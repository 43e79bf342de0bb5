package main

// Example runs the walkthrough and pins its output: the simulation is
// deterministic, so any change to it is a change to the numbers.
func Example() {
	main()
	// Output:
	// mlinference: LibOS booted in 95.711014ms (excluded from training time)
	// training finished in 472.653µs
	// training accuracy: 95.0%
	//
	// model persisted: 256 plaintext bytes -> 4144 sealed bytes on the untrusted FS
	// raw file bytes do not contain the model weights — PF encryption holds
	//
	// simulated totals: 301 ECALLs, 1009 OCALLs, 22176 EPC evictions
}
