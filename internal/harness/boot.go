package harness

import (
	"sync"
	"sync/atomic"

	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// A LibOS boot — the loader adding and measuring the whole enclave —
// is excluded from measured time (Appendix D) but dominates the host
// cost of a LibOS spec. Specs that boot the same configuration share
// it: the first user boots a template machine and every user runs on
// a clone of it (sgx.Env.Clone, libos.Clone), with results identical
// to a fresh boot. A Runner keeps its templates across batches, idle
// between users; DESIGN.md §"Boot templates" records the rules.

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

// bootPlan is a Runner's set of shared boots, kept for the Runner's
// lifetime.
type bootPlan struct {
	mu    sync.Mutex
	tpls  map[bootKey]*template // templates with planned users, building or built; guarded by mu
	idle  []*template           // built templates with no user, least recently used first; guarded by mu
	live  int                   // templates built or building, idle ones included; guarded by mu
	limit int                   // most templates live at once
	stats *bootStats
}

// bootStats counts how the LibOS specs of a plan booted.
type bootStats struct {
	builds, clones, inPlace atomic.Uint64
}

// template is one shared boot. All fields but key are guarded by the
// plan's mu.
type template struct {
	key   bootKey
	left  int             // planned users that have not claimed the template yet
	refs  int             // users between claiming and finishing their clone
	ready chan struct{}   // nil until a build starts; closed when it ends
	inst  *libos.Instance // the booted template; nil if the build failed or after release
}

// bootSlot is one spec's place in the plan.
type bootSlot struct {
	plan    *bootPlan
	tpl     *template // nil: the spec boots in place
	claimed bool      // the spec has used (or given up) its claim
	cloned  bool      // the spec's boot was cloned from the template
}

// newBootPlan returns an empty plan keeping at most limit templates
// live.
func newBootPlan(limit int, stats *bootStats) *bootPlan {
	return &bootPlan{tpls: map[bootKey]*template{}, limit: limit, stats: stats}
}

// planBoots adds a batch's specs to the plan and returns one slot per
// spec. A spec shares a template when its key is used twice or more in
// the batch, or when the plan already holds a template for the key (an
// idle one left by an earlier batch, or one a concurrent batch plans);
// every other spec boots in place. The plan's limit bounds the
// templates live at once: each in-flight LibOS spec already holds a
// full boot, so with the limit at the worker count peak memory does
// not grow.
func planBoots(p *bootPlan, specs []Spec) []*bootSlot {
	keys := make([]bootKey, len(specs))
	planned := make([]bool, len(specs))
	uses := map[bootKey]int{}
	for i, spec := range specs {
		if keys[i], planned[i] = bootKeyOf(spec); planned[i] {
			uses[keys[i]]++
		}
	}
	slots := make([]*bootSlot, len(specs))
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range specs {
		slots[i] = &bootSlot{plan: p}
		if !planned[i] {
			continue
		}
		t := p.tpls[keys[i]]
		if t == nil {
			if uses[keys[i]] < 2 {
				continue
			}
			t = &template{key: keys[i]}
			p.tpls[keys[i]] = t
		}
		if t.left == 0 && t.refs == 0 && t.ready != nil {
			p.unidle(t) // an idle template has users again
		}
		t.left++
		slots[i].tpl = t
	}
	return slots
}

// start boots the LibOS for the slot's spec: on a clone of its
// template when one serves it, otherwise in place on newMachine(). The
// first user of an unbuilt template builds it; a concurrent user waits
// for that build. The last user of an unbuilt template, a user that
// finds no live slot free, and every user after a failed build boot
// in place. A nil slot, or one whose claim is spent (a retried spec),
// boots in place.
func (s *bootSlot) start(newMachine func() *sgx.Machine, cfg sgx.Config, fs *osal.FS, man libos.Manifest, timeline uint64) (*libos.Instance, error) {
	t, build := s.claim()
	if t == nil {
		if s != nil {
			s.plan.stats.inPlace.Add(1)
		}
		return bootLibOS(newMachine(), fs, man, timeline)
	}
	p := s.plan
	// Deferred, so a panicking build or clone cannot pin the template.
	defer func() {
		p.mu.Lock()
		t.refs--
		p.settle(t)
		p.mu.Unlock()
	}()
	if build {
		p.stats.builds.Add(1)
		t.build(p, cfg, man.Binary, t.key.pages)
	} else {
		<-t.ready
	}
	p.mu.Lock()
	tpl := t.inst
	p.mu.Unlock()
	if tpl == nil {
		p.stats.inPlace.Add(1)
		return bootLibOS(newMachine(), fs, man, timeline)
	}
	inst, err := tpl.Clone(fs, man)
	if s.cloned = err == nil; s.cloned {
		p.stats.clones.Add(1)
	}
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
	if s.tpl == nil {
		return nil, false
	}
	t, p := s.tpl, s.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	t.left--
	switch {
	case t.ready != nil:
	case t.left == 0 || !p.reserve():
		p.settle(t)
		return nil, false
	default:
		t.ready = make(chan struct{})
		build = true
	}
	t.refs++
	return t, build
}

// reserve takes a live slot for a build. When every slot is taken it
// first releases the least recently used idle template; it reports
// false when no template is idle. caller holds mu.
func (p *bootPlan) reserve() bool {
	if p.live >= p.limit {
		if len(p.idle) == 0 {
			return false
		}
		lru := p.idle[0]
		p.unidle(lru)
		p.release(lru)
	}
	p.live++
	return true
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
// or was cancelled first), so its template settles once every other
// user is done.
func (s *bootSlot) finish() {
	if s.claimed {
		return
	}
	s.claimed = true
	if t := s.tpl; t != nil {
		p := s.plan
		p.mu.Lock()
		t.left--
		p.settle(t)
		p.mu.Unlock()
	}
}

// settle retires a template no planned user will claim or use again:
// a built one stays idle, a failed build is released, and an unbuilt
// one leaves the plan. Every call
// follows a decrement of left or refs, so the condition first holds
// exactly once per round of users. caller holds mu.
func (p *bootPlan) settle(t *template) {
	switch {
	case t.left > 0 || t.refs > 0:
	case t.ready == nil:
		delete(p.tpls, t.key)
	case t.inst != nil:
		p.idle = append(p.idle, t)
	default:
		p.release(t)
	}
}

// release drops a built template and frees its live slot.
// caller holds mu.
func (p *bootPlan) release(t *template) {
	t.inst = nil
	delete(p.tpls, t.key)
	p.live--
}

// unidle takes t off the idle list. caller holds mu.
func (p *bootPlan) unidle(t *template) {
	for i, u := range p.idle {
		if u == t {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return
		}
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
