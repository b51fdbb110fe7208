package main

// Example runs the quickstart tour.
func Example() {
	main()
	// Output:
	// declared: C[1:8,1:8] DIST (BLOCK,BLOCK) TO R[1:2,1:2]
	//           B[1:8,1:8] DIST (BLOCK,CYCLIC) TO R[1:2,1:2]
	//           A[1:8,1:8] DIST (BLOCK,CYCLIC) TO R[1:2,1:2]
	// owner of B(5,5): processor 1
	// B's type: (BLOCK,CYCLIC)   A follows: (BLOCK,CYCLIC)
	// after DISTRIBUTE: B (BLOCK,BLOCK), A (BLOCK,BLOCK) (epoch 1)
	// B(5,5) still reads 55
	// IDT(B, (BLOCK,*)) = true
	// DCASE picked: both block-block
	// rejected as declared: core: DISTRIBUTE B :: (CYCLIC(3),CYCLIC(3)) violates declared RANGE((BLOCK,BLOCK), (*,CYCLIC)): distribution outside declared RANGE
	// traffic: 6 data messages, 536 bytes
}
