package sgx

import (
	"errors"
	"fmt"
)

// Fault is a recoverable machine fault. The Thread API (Read, Write,
// ECall, OCall...) has no error returns — workloads are written like
// application code — so when the machine hits a fault on that path it
// raises the typed Fault as a panic, and Protect converts it back to
// an ordinary error at the harness boundary. No Fault ever escapes a
// Protect frame, so no fault class kills the process.
type Fault interface {
	error
	machineFault()
}

// AbortError reports that an enclave has transitioned to the aborted
// state: an integrity violation (tampered, replayed, or dropped sealed
// page) or unrecoverable paging failure poisoned it, mirroring real
// SGX abort-page semantics. Every subsequent access to the enclave
// raises an AbortError with the same cause; sibling enclaves on the
// machine are unaffected.
type AbortError struct {
	// EnclaveID identifies the aborted enclave.
	EnclaveID uint32
	// Cause is the first failure that aborted the enclave (e.g.
	// mee.ErrMACMismatch, mee.ErrRollback, epc.ErrPageLost,
	// epc.ErrEPCExhausted).
	Cause error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("sgx: enclave %d aborted: %v", e.EnclaveID, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *AbortError) Unwrap() error { return e.Cause }

func (*AbortError) machineFault() {}

// TransientError reports a transient, retryable fault: an injected
// ECALL/OCALL transition failure. The enclave is NOT aborted — a
// fresh run of the same spec may succeed, which is why the harness
// retries specs whose Result.Err is transient.
type TransientError struct {
	// Op names the failed transition ("ECALL" or "OCALL").
	Op string
	// Cause is the underlying fault (chaos.ErrTransition).
	Cause error
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("sgx: transient %s failure: %v", e.Op, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Cause }

func (*TransientError) machineFault() {}

// IsTransient reports whether err is (or wraps) a transient machine
// fault worth retrying.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// IsAbort reports whether err is (or wraps) an enclave abort.
func IsAbort(err error) bool {
	var ae *AbortError
	return errors.As(err, &ae)
}

// raise unwinds a non-nil machine fault as a typed panic: the Thread
// API the workloads program against has no error returns, and a
// faulted access cannot meaningfully continue the computation that
// issued it. Protect recovers it.
func raise(err error) {
	if err != nil {
		panic(err.(Fault))
	}
}

// Protect runs fn, converting a machine Fault raised inside it into
// the returned error. Any other panic propagates unchanged. The
// harness wraps every simulated phase (enclave launch, LibOS boot,
// workload run) in Protect, so faults surface as per-spec errors
// while the machine — and every sibling enclave on it — keeps
// running.
func Protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if f, ok := r.(Fault); ok {
				err = f
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}
