package main

// Example runs the paper's Example 4: each DISTRIBUTE selects the next arm.
func Example() {
	main()
	// Output:
	//   -> a1
	// initial: B1=(BLOCK) B2=(BLOCK) B3=(CYCLIC(2),CYCLIC) matched arm 1
	//   -> a2
	// after DISTRIBUTE B1::(CYCLIC), B3::(BLOCK,CYCLIC(7)): B1=(CYCLIC) B2=(BLOCK) B3=(BLOCK,CYCLIC(7)) matched arm 2
	//   -> a3
	// after DISTRIBUTE B3::(BLOCK,CYCLIC), B1::(BLOCK): B1=(BLOCK) B2=(BLOCK) B3=(BLOCK,CYCLIC) matched arm 3
	//   -> a4 (DEFAULT)
	// after DISTRIBUTE B3::(CYCLIC,CYCLIC): B1=(BLOCK) B2=(BLOCK) B3=(CYCLIC,CYCLIC) matched arm 4
}
