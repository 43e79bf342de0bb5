package sgx

import "sgxgauge/internal/perf"

// The Runtime* methods are the one body of each enclave transition:
// its counter, cycle cost and TLB flush. ECall, OCall and the
// machine's fault-path AEXs (an EPC fault inside the enclave, an
// injected interrupt storm) run their own checks, chaos draw and trace
// event, then one of these. Trusted runtime code (the LibOS loader)
// calls them directly: then the transition happens in every SGX mode,
// draws no chaos fault and emits no trace event.

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
	t.outside(fn)
	t.Clock.Advance(t.transitionCost(c.OCallReturn))
	t.flushTLB()
}

// RuntimeAEX records one asynchronous enclave exit (interrupt,
// exception) with its cost and TLB flush.
func (t *Thread) RuntimeAEX() {
	t.env.M.Counters.Inc(perf.AEXs)
	t.Clock.Advance(t.env.M.Costs.AEX)
	t.flushTLB()
}
