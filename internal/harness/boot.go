package harness

import (
	"sync"

	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// A LibOS boot — the loader adding and measuring the whole enclave —
// is excluded from measured time (Appendix D) but dominates the host
// cost of a LibOS spec. Within one batch, specs that boot the same
// configuration share it: the first user boots a template machine and
// every user runs on a clone of it (sgx.Env.Clone, libos.Clone), with
// results identical to a fresh boot. DESIGN.md §"Boot templates"
// records the rules.

// bootKey identifies everything a LibOS boot reads: the effective
// machine configuration and the enclave size.
type bootKey struct {
	cfg   sgx.Config
	pages int
}

// bootKeyOf returns the spec's boot key, or ok=false when the spec
// boots in place: it is not a LibOS workload spec, or it carries hooks
// (a tracer must see the boot), chaos (the injector draws during the
// boot) or a timeline (sampling starts before the boot).
func bootKeyOf(spec Spec) (bootKey, bool) {
	if spec.Mode != sgx.LibOS || spec.Workload == nil || spec.Scenario != nil ||
		!spec.Hooks.empty() || spec.Chaos != nil || spec.Timeline > 0 {
		return bootKey{}, false
	}
	cfg := machineConfig(spec).WithDefaults()
	return bootKey{cfg: cfg, pages: libosManifest(spec, nil).EnclavePages(cfg.EPCPages)}, true
}

// bootPlan is one batch's set of shared boots.
type bootPlan struct {
	mu    sync.Mutex
	tpls  map[bootKey]*template // guarded by mu
	live  int                   // templates built or building, not yet released; guarded by mu
	limit int                   // most templates live at once: the batch's worker count
}

// template is one shared boot. All fields are guarded by the plan's mu.
type template struct {
	left  int             // planned users that have not claimed the template yet
	refs  int             // users between claiming and finishing their clone
	ready chan struct{}   // nil until a build starts; closed when it ends
	inst  *libos.Instance // the booted template; nil if the build failed or after release
}

// bootSlot is one spec's place in the plan.
type bootSlot struct {
	plan    *bootPlan
	key     bootKey
	claimed bool // the spec has used (or given up) its claim
	cloned  bool // the spec's boot was cloned from the template
}

// planBoots counts the boot keys of a batch and returns one slot per
// spec sharing its key with another spec, nil for specs that boot in
// place. workers bounds the templates kept live at once: each in-flight
// LibOS spec already holds a full boot, so peak memory does not grow.
func planBoots(specs []Spec, workers int) []*bootSlot {
	keys := make([]bootKey, len(specs))
	planned := make([]bool, len(specs))
	uses := map[bootKey]int{}
	for i, spec := range specs {
		if keys[i], planned[i] = bootKeyOf(spec); planned[i] {
			uses[keys[i]]++
		}
	}
	tpls := map[bootKey]*template{}
	plan := &bootPlan{tpls: tpls, limit: workers}
	slots := make([]*bootSlot, len(specs))
	for i := range specs {
		if n := uses[keys[i]]; planned[i] && n > 1 {
			if tpls[keys[i]] == nil {
				tpls[keys[i]] = &template{left: n}
			}
			slots[i] = &bootSlot{plan: plan, key: keys[i]}
		}
	}
	return slots
}

// start boots the LibOS for the slot's spec: on a clone of the batch
// template when one serves it, otherwise in place on newMachine(). The
// first user of a key builds the template; a concurrent user waits for
// that build. A key's last user, a user past the live-template limit,
// and every user after a failed build boot in place. A nil slot, or
// one whose claim is spent (a retried spec), boots in place.
func (s *bootSlot) start(newMachine func() *sgx.Machine, cfg sgx.Config, fs *osal.FS, man libos.Manifest, timeline uint64) (*libos.Instance, error) {
	t, build := s.claim()
	if t == nil {
		return bootLibOS(newMachine(), fs, man, timeline)
	}
	p := s.plan
	// Deferred, so a panicking build or clone cannot pin the template.
	defer func() {
		p.mu.Lock()
		t.refs--
		p.releaseIfDone(t)
		p.mu.Unlock()
	}()
	if build {
		t.build(p, cfg, man.Binary, s.key.pages)
	} else {
		<-t.ready
	}
	p.mu.Lock()
	tpl := t.inst
	p.mu.Unlock()
	if tpl == nil {
		return bootLibOS(newMachine(), fs, man, timeline)
	}
	inst, err := tpl.Clone(fs, man)
	s.cloned = err == nil
	return inst, err
}

// claim spends the slot's claim. It returns the template holding a
// reference for the caller, with build set when the caller must boot
// it, or nil when the spec boots in place.
func (s *bootSlot) claim() (t *template, build bool) {
	if s == nil || s.claimed {
		return nil, false
	}
	s.claimed = true
	p := s.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	t = p.tpls[s.key]
	t.left--
	switch {
	case t.ready != nil:
	case t.left == 0 || p.live >= p.limit:
		return nil, false
	default:
		t.ready = make(chan struct{})
		p.live++
		build = true
	}
	t.refs++
	return t, build
}

// build boots the template. It boots with no input files — manifest
// processing is per spec and runs in Clone — and closes ready however
// the boot ends; a failed boot leaves inst nil.
func (t *template) build(p *bootPlan, cfg sgx.Config, binary string, pages int) {
	defer close(t.ready)
	inst, err := bootLibOS(sgx.NewMachine(cfg), nil, libos.Manifest{Binary: binary, EnclaveSizePages: pages}, 0)
	if err != nil {
		return
	}
	p.mu.Lock()
	t.inst = inst
	p.mu.Unlock()
}

// finish gives up the slot's claim if the spec never booted (it failed
// or was cancelled first), so its template is still released once
// every other user is done. Nil-safe.
func (s *bootSlot) finish() {
	if s == nil || s.claimed {
		return
	}
	s.claimed = true
	p := s.plan
	p.mu.Lock()
	t := p.tpls[s.key]
	t.left--
	p.releaseIfDone(t)
	p.mu.Unlock()
}

// wasCloned reports whether the slot's spec ran on a template clone.
// Nil-safe.
func (s *bootSlot) wasCloned() bool { return s != nil && s.cloned }

// releaseIfDone drops a built template once no user will clone it
// again, freeing its live slot. Every call follows a decrement of left
// or refs, so the condition first holds exactly once. caller holds mu.
func (p *bootPlan) releaseIfDone(t *template) {
	if t.ready != nil && t.left == 0 && t.refs == 0 {
		t.inst = nil
		p.live--
	}
}

// bootLibOS is the one LibOS boot path, for in-place specs and batch
// templates alike: it boots the library OS on m, turning a machine
// fault during the boot into an error.
func bootLibOS(m *sgx.Machine, fs *osal.FS, man libos.Manifest, timeline uint64) (*libos.Instance, error) {
	var inst *libos.Instance
	var err error
	if perr := sgx.Protect(func() {
		inst, err = libos.StartWithTimeline(m, fs, man, timeline)
	}); perr != nil {
		err = perr
	}
	return inst, err
}
