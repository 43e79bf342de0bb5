package main

// Example runs the walkthrough and pins its output: the simulation is
// deterministic, so any change to it is a change to the numbers.
func Example() {
	main()
	// Output:
	// securekv: loading 2000 records into the enclave store...
	//   get(100)  = 10000
	//   get(1999) = 3996001
	//
	// sealed snapshot: 32000 plaintext bytes -> 32048 sealed bytes
	// unsealed OK: 2000 records recovered
	// tampered snapshot rejected (MAC mismatch) — integrity holds
	//
	// simulated cost: 285.318µs, 2 ECALLs, 32 EPC pages allocated
}
