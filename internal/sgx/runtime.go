package sgx

import "sgxgauge/internal/perf"

// The Runtime* methods are the transition primitives used by trusted
// runtime code (the LibOS loader) rather than by applications. Unlike
// ECall, they perform the transition in every SGX mode.

// RuntimeECall performs a real enclave entry/exit around fn,
// regardless of execution mode.
func (t *Thread) RuntimeECall(fn func()) {
	c := &t.env.M.Costs
	t.env.M.Counters.Inc(perf.ECalls)
	t.Clock.Advance(c.ECallEnter)
	t.flushTLB()
	t.enclaveDepth++
	fn()
	t.enclaveDepth--
	t.Clock.Advance(c.ECallExit)
	t.flushTLB()
}

// RuntimeOCall performs a real enclave exit/re-entry around fn,
// bypassing the switchless machinery.
func (t *Thread) RuntimeOCall(fn func()) {
	c := &t.env.M.Costs
	t.env.M.Counters.Inc(perf.OCalls)
	t.Clock.Advance(t.transitionCost(c.OCallExit))
	t.flushTLB()
	depth := t.enclaveDepth
	t.enclaveDepth = 0
	fn()
	t.enclaveDepth = depth
	t.Clock.Advance(t.transitionCost(c.OCallReturn))
	t.flushTLB()
}

// RuntimeAEX records one asynchronous enclave exit (interrupt,
// exception) with its cost and TLB flush.
func (t *Thread) RuntimeAEX() {
	c := &t.env.M.Costs
	t.env.M.Counters.Inc(perf.AEXs)
	t.Clock.Advance(c.AEX)
	t.flushTLB()
}
