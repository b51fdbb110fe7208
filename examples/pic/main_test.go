package main

// Example runs Figure 2 with the default flags: particles are conserved
// and the rebalancing DISTRIBUTEs keep the load near balance.
func Example() {
	main()
	// Output:
	// PIC: 256 cells on 4 processors, 60 steps, B_BLOCK(BOUNDS), rebalanced every 10 steps
	// particles: 16384 -> 16384 (conserved: true)
	// load imbalance (max/avg particles per processor):
	//   step   1: 1.004
	//   step  11: 1.043
	//   step  21: 1.082
	//   step  31: 1.004
	//   step  41: 1.035
	//   step  51: 1.074
	//   final:    1.109 (peak 1.117, mean 1.057)
	// redistributions: 3 (720 bytes moved by DISTRIBUTE)
}
