package main

// Example moves the connect class C(B) with one DISTRIBUTE.  The traffic
// line is B's and A2's data (A1 is NOTRANSFER): one offer per peer pair,
// booked by the transport as the bytes its token stands for.
func Example() {
	main()
	// Output:
	// class C(B):
	//   B: (BLOCK,BLOCK)
	//   A1: (BLOCK,BLOCK)
	//   A2: (B_BLOCK[4 8],B_BLOCK[4 8])
	// alignment invariant: owner A2(3,5) = 1, owner B(5,3) = 1
	//
	// after DISTRIBUTE B :: (CYCLIC,BLOCK) NOTRANSFER(A1):
	//   B: (CYCLIC,BLOCK) (epoch 1)
	//   A1: (CYCLIC,BLOCK) (epoch 1)
	//   A2: (B_BLOCK[4 8],CYCLIC) (epoch 1)
	//   B(3,5) = 35 (moved), A2 still mirrors B through the alignment
	//   traffic for the class move: 4 data messages, 512 bytes
	//   alignment invariant still holds: true
}
