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
// it: a Runner keeps one booted template machine per boot
// configuration and every such spec runs on a clone of it
// (sgx.Env.Clone, libos.Clone), with results identical to a fresh
// boot. DESIGN.md §"Boot templates" records the rules.

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

// bootCache is a Runner's boot templates, keyed by boot configuration
// and kept for the Runner's lifetime. It holds at most limit templates
// live, the Runner's worker count, so templates add at most one full
// boot per worker to what the in-flight specs hold.
type bootCache struct {
	mu    sync.Mutex
	tpls  map[bootKey]*template // live templates: building, in use or idle; guarded by mu
	idle  []*template           // built templates with no user, least recently idled first; guarded by mu
	limit int                   // most templates live at once

	builds, clones, inPlace atomic.Uint64 // boots by kind, for RunStats
}

// template is one shared boot. All fields but key and ready are
// guarded by the cache's mu.
type template struct {
	key   bootKey
	refs  int             // users building or cloning the template
	ready chan struct{}   // closed when the build ends
	inst  *libos.Instance // the booted template; nil while building, if the build failed, or after eviction
}

// boot boots the LibOS for spec over fs and man: on a clone of the
// template for the spec's boot key when the spec has one, otherwise in
// place on newMachine(). It reports whether the boot was cloned. A nil
// cache boots in place without counting the boot.
func (c *bootCache) boot(spec Spec, newMachine func() *sgx.Machine, fs *osal.FS, man libos.Manifest) (*libos.Instance, bool, error) {
	if c != nil {
		if key, ok := bootKeyOf(spec); ok {
			if inst, shared, err := c.clone(key, fs, man); shared {
				return inst, err == nil, err
			}
		}
		c.inPlace.Add(1)
	}
	inst, err := bootLibOS(newMachine(), fs, man, spec.Timeline)
	return inst, false, err
}

// clone starts man over fs on a clone of key's template, building the
// template first when the cache holds none; a concurrent user of an
// unbuilt template waits for its build. It reports ok=false, starting
// nothing, when the spec must boot in place: every live template is
// busy, or the template's build failed.
func (c *bootCache) clone(key bootKey, fs *osal.FS, man libos.Manifest) (inst *libos.Instance, ok bool, err error) {
	t, build := c.acquire(key)
	if t == nil {
		return nil, false, nil
	}
	// Deferred, so a panicking build or clone cannot pin the template.
	defer c.put(t)
	if build {
		c.builds.Add(1)
		c.build(t, man.Binary)
	} else {
		<-t.ready
	}
	c.mu.Lock()
	tpl := t.inst
	c.mu.Unlock()
	if tpl == nil {
		return nil, false, nil
	}
	inst, err = tpl.Clone(fs, man)
	if err == nil {
		c.clones.Add(1)
	}
	return inst, true, err
}

// acquire returns key's template holding a reference for the caller,
// with build set when the caller must build it, or nil when the cache
// holds no template for key and has no room for one.
func (c *bootCache) acquire(key bootKey) (t *template, build bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t = c.tpls[key]
	switch {
	case t == nil:
		if !c.reserve() {
			return nil, false
		}
		if c.tpls == nil {
			c.tpls = map[bootKey]*template{}
		}
		t = &template{key: key, ready: make(chan struct{})}
		c.tpls[key] = t
		build = true
	case t.refs == 0:
		c.unidle(t) // an idle template has a user again
	}
	t.refs++
	return t, build
}

// reserve makes room for one more live template. When the cache is
// full it evicts the least recently idled template, giving its
// machine's page memory back to the recycler; it reports false when
// no template is idle. An idle template has no clone in progress.
// caller holds mu.
func (c *bootCache) reserve() bool {
	if len(c.tpls) < c.limit {
		return true
	}
	if len(c.idle) == 0 {
		return false
	}
	lru := c.idle[0]
	c.idle = c.idle[1:]
	lru.inst.Env.M.Release()
	lru.inst = nil
	delete(c.tpls, lru.key)
	return true
}

// build boots t with no input files — manifest processing is per spec
// and runs in Clone — and closes ready however the boot ends; a failed
// boot leaves inst nil.
func (c *bootCache) build(t *template, binary string) {
	defer close(t.ready)
	inst, err := bootLibOS(sgx.NewMachine(t.key.cfg), nil, libos.Manifest{Binary: binary, EnclaveSizePages: t.key.pages}, 0)
	if err != nil {
		return
	}
	c.mu.Lock()
	t.inst = inst
	c.mu.Unlock()
}

// put drops a reference taken by acquire. Once its last user is done
// a built template goes idle and a failed build leaves the cache.
func (c *bootCache) put(t *template) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.refs--; t.refs > 0 {
		return
	}
	if t.inst != nil {
		c.idle = append(c.idle, t)
	} else {
		delete(c.tpls, t.key)
	}
}

// unidle takes t off the idle list. caller holds mu.
func (c *bootCache) unidle(t *template) {
	for i, u := range c.idle {
		if u == t {
			c.idle = append(c.idle[:i], c.idle[i+1:]...)
			return
		}
	}
}

// bootLibOS is the one LibOS boot path, for in-place specs and
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
