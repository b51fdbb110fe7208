package main

// Example runs Figure 1 with the default flags.  The traffic line counts
// every DISTRIBUTE of V and every ghost refresh of U; on the in-process
// transport a DISTRIBUTE moves offer tokens that the transport books as
// the bytes they stand for, so the line is what a framed run sends.
func Example() {
	main()
	// Output:
	// ADI 100x100 on 4 processors, 3 iterations
	// final V distribution: (BLOCK,:) (redistributed 5 times)
	// checksum(V) = 2391.518422
	// redistribution schedule cache: 12 hits / 8 misses
	// traffic: 84 data messages, 314448 bytes (all from DISTRIBUTE + ghost refresh)
}
