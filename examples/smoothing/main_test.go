package main

// Example chooses the smoothing distribution for the default machine
// model and runs it.
func Example() {
	main()
	// Output:
	// N=256, P=4, alpha=1.0e-04, beta=1.0e-09
	// modeled cost/step: columns 2.041e-04 s, 2-D blocks 2.020e-04 s -> choose (BLOCK,BLOCK), halo depth 13
	// ran 10 steps under (BLOCK,BLOCK), halo depth 13: 0.20 msgs/proc/step, 2798 bytes/proc/step
	// modeled time 0.0031s, max deviation from serial 0.00e+00
	// DCASE: 2-D block algorithm selected — one face message per neighbour per step (4 in the interior, 2 on a 2x2 array)
}
