package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// childEnv carries a childConfig to a re-executed bench binary; its
// presence is what makes the process a child.
const childEnv = "SGXBENCH_CHILD"

// childConfig is one rep as the parent orders it.
type childConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Short    bool   `json:"short,omitempty"`
	Trace    bool   `json:"trace,omitempty"`
	// SetupOnly makes the child exit right after it is ready, so the
	// parent can sample set-up time without paying for a whole rep.
	SetupOnly bool `json:"setup_only,omitempty"`
}

// readyLine is the child's first stdout line.
type readyLine struct {
	Ready bool   `json:"ready"`
	Addr  string `json:"addr,omitempty"`
}

// childReport is the child's last stdout line.
type childReport struct {
	// WorkS is the wall time of the measured work (simulator
	// workloads; the serve-mixed parent times its own sweeps).
	WorkS      float64              `json:"work_s,omitempty"`
	AllocBytes uint64               `json:"alloc_bytes"`
	PeakRSSKB  uint64               `json:"peak_rss_kb"`
	GCCycles   uint64               `json:"gc_cycles"`
	Ops        int                  `json:"ops"`
	Failed     int                  `json:"failed"`
	Errors     []string             `json:"errors,omitempty"`
	Digest     string               `json:"digest,omitempty"`
	Executed   int                  `json:"executed"`
	CacheHits  int                  `json:"cache_hits"`
	Counters   perf.Snapshot        `json:"counters"`
	Cycles     uint64               `json:"cycles"`
	Startup    uint64               `json:"startup_cycles"`
	SpecMS     map[string][]float64 `json:"spec_ms,omitempty"` // by mode
	ExpS       map[string]float64   `json:"exp_s,omitempty"`
	LayerS     map[string]float64   `json:"layer_s,omitempty"`
	ProfileS   float64              `json:"profile_s,omitempty"`
}

// fail records one failed op.
func (r *childReport) fail(err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// childFunc runs one rep inside the child: it sets up, calls ready
// (with the address to load, for the served workload), and then does
// the measured work unless the config asks for set-up only.
type childFunc func(cfg childConfig, ready func(addr string) error) (childReport, error)

// childMain is the entry point of a re-executed bench binary.
func childMain(raw string) int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 2
	}
	w := workloadByName(cfg.Workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench child: unknown workload %q\n", cfg.Workload)
		return 2
	}
	var prof bytes.Buffer
	if cfg.Trace {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
	}
	out := json.NewEncoder(os.Stdout)
	rep, err := w.child(cfg, func(addr string) error {
		return out.Encode(readyLine{Ready: true, Addr: addr})
	})
	if cfg.Trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if cfg.Trace {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		rep.LayerS, rep.ProfileS = p.attribute()
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	rep.AllocBytes, rep.GCCycles = s[0].Value.Uint64(), s[1].Value.Uint64()
	if rep.PeakRSSKB, err = peakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	if err := out.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench child:", err)
		return 1
	}
	return 0
}

// peakRSS reads the process's peak resident set (VmHWM) in KiB. The
// child reads its own: the rusage a parent gets from wait4 starts
// from the parent's high-water mark, which exec carries over.
func peakRSS() (uint64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// recorder wraps a Runner's result cache and progress callback, so
// the bench sees executed specs, cache hits and per-spec wall time
// through public hooks only.
type recorder struct {
	inner harness.ResultCache

	mu       sync.Mutex
	hits     int                  // guarded by mu
	executed int                  // guarded by mu
	total    perf.Snapshot        // guarded by mu
	cycles   uint64               // guarded by mu
	startup  uint64               // guarded by mu
	specMS   map[string][]float64 // guarded by mu
}

// newRunner returns a cold Runner at the bench's EPC size, recorded.
func newRunner(seed int64) (*harness.Runner, *recorder) {
	r := harness.NewRunner(epcPages)
	r.Seed = seed
	r.Jobs = 2
	rec := &recorder{inner: r.Cache, specMS: map[string][]float64{}}
	r.Cache = rec
	r.Progress = rec.progress
	return r, rec
}

func (c *recorder) Get(k harness.Key) (*harness.Result, bool) {
	res, ok := c.inner.Get(k)
	if ok {
		c.mu.Lock()
		c.hits++
		c.mu.Unlock()
	}
	return res, ok
}

// Add sees every freshly executed successful spec exactly once.
func (c *recorder) Add(k harness.Key, res *harness.Result) *harness.Result {
	kept := c.inner.Add(k, res)
	if kept == res {
		c.mu.Lock()
		c.executed++
		c.total = c.total.Add(res.TotalCounters)
		c.cycles += res.Cycles
		c.startup += res.StartupCycles
		c.mu.Unlock()
	}
	return kept
}

func (c *recorder) Len() int { return c.inner.Len() }

func (c *recorder) progress(p harness.Progress) {
	c.mu.Lock()
	c.specMS[p.Mode.String()] = append(c.specMS[p.Mode.String()], float64(p.Wall)/1e6)
	c.mu.Unlock()
}

func (c *recorder) fill(rep *childReport) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rep.Executed, rep.CacheHits = c.executed, c.hits
	rep.Counters, rep.Cycles, rep.Startup = c.total, c.cycles, c.startup
	rep.SpecMS = c.specMS
}

// paperChild renders every experiment of the report, in report order,
// through one cold Runner. The digest covers the rendered text. The
// report is a fixed input: it runs at sgxreport's default seed 1
// whatever the run's seed, because some workloads' work depends on
// the seed (seeds 1-3 allocate 5.5 GB, higher ones 6.3 GB), which
// would otherwise swamp the run-to-run spread.
func paperChild(cfg childConfig, ready func(string) error) (childReport, error) {
	r, rec := newRunner(1)
	exps := harness.Experiments()
	if cfg.Short {
		exps = slices.DeleteFunc(exps, func(e harness.Experiment) bool { return e.ID != "tab2" && e.ID != "fig6a" })
	}
	if err := ready(""); err != nil || cfg.SetupOnly {
		return childReport{}, err
	}
	rep := childReport{ExpS: map[string]float64{}}
	h := sha256.New()
	start := time.Now()
	for _, e := range exps {
		t := time.Now()
		text, err := e.Render(r)
		rep.ExpS[e.ID] = time.Since(t).Seconds()
		rep.Ops++
		if err != nil {
			rep.fail(fmt.Errorf("%s: %w", e.ID, err))
			continue
		}
		h.Write([]byte(text))
	}
	rep.WorkS = time.Since(start).Seconds()
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rec.fill(&rep)
	return rep, nil
}

// gridChild runs one batch of generated specs through RunAll.
func gridChild(gen func(seed int64, short bool) []harness.Spec) childFunc {
	return func(cfg childConfig, ready func(string) error) (childReport, error) {
		r, rec := newRunner(cfg.Seed)
		specs := gen(cfg.Seed, cfg.Short)
		if err := ready(""); err != nil || cfg.SetupOnly {
			return childReport{}, err
		}
		var rep childReport
		start := time.Now()
		results, err := r.RunAll(specs)
		rep.WorkS = time.Since(start).Seconds()
		if err != nil {
			return rep, fmt.Errorf("RunAll: %w", err)
		}
		rep.Ops = len(results)
		for _, res := range results {
			if res.Err != nil {
				rep.fail(res.Err)
			}
		}
		h := sha256.New()
		for i, spec := range specs {
			key, err := r.Key(spec)
			if err != nil {
				return rep, fmt.Errorf("spec key: %w", err)
			}
			writeResultDigest(h, key.String(), results[i])
		}
		rep.Digest = hex.EncodeToString(h.Sum(nil))
		rec.fill(&rep)
		return rep, nil
	}
}

// writeResultDigest folds one executed spec into a digest: its key,
// simulated cycles, startup cycles, functional checksum and every
// counter of the machine's lifetime.
func writeResultDigest(h hash.Hash, key string, res *harness.Result) {
	fmt.Fprintf(h, "%s %d %d %d", key, res.Cycles, res.StartupCycles, res.Output.Checksum)
	for _, v := range res.TotalCounters {
		fmt.Fprintf(h, " %d", v)
	}
	fmt.Fprintln(h)
}

// specSeed derives the i-th spec seed of a run from the run's seed,
// the only input to spec generation.
func specSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// vanillaGridSpecs is every suite workload in Vanilla mode at every
// input size, for 6 seeds.
func vanillaGridSpecs(seed int64, short bool) []harness.Spec {
	ws, sizes, seeds := suite.All(), workloads.Sizes(), 6
	if short {
		ws, sizes, seeds = ws[:2], sizes[:1], 1
	}
	var specs []harness.Spec
	for _, w := range ws {
		for _, size := range sizes {
			for i := 0; i < seeds; i++ {
				specs = append(specs, harness.Spec{Workload: w, Mode: sgx.Vanilla, Size: size, Seed: specSeed(seed, i)})
			}
		}
	}
	return specs
}

// epcThrashSpecs is every Native port at High input, for 4 seeds.
func epcThrashSpecs(seed int64, short bool) []harness.Spec {
	ws, seeds := suite.Native(), 4
	if short {
		ws, seeds = ws[:1], 1
	}
	var specs []harness.Spec
	for _, w := range ws {
		for i := 0; i < seeds; i++ {
			specs = append(specs, harness.Spec{Workload: w, Mode: sgx.Native, Size: workloads.High, Seed: specSeed(seed, i)})
		}
	}
	return specs
}
