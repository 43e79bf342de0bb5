package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts `// want "regex"` expectation comments from corpus
// source lines. Multiple want comments on one line are all honored.
var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one parsed want comment.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// parseWants scans every Go file in dir for want comments.
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus dir %s: %v", dir, err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("opening %s: %v", path, err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{
					file: path,
					line: line,
					re:   regexp.MustCompile(m[1]),
				})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning %s: %v", path, err)
		}
		f.Close()
	}
	return wants
}

// TestGolden runs each analyzer over its corpus and asserts the exact
// diagnostic set: every want comment must be matched by a finding on
// its line, every unsuppressed finding must be covered by a want, and
// the corpus's //sgxlint:ignore pragmas must suppress (each suppressed
// finding carries the pragma's reason and produces no unsuppressed
// finding, which the want matching would otherwise catch).
func TestGolden(t *testing.T) {
	cases := []struct {
		analyzer   string
		dir        string
		importPath string // synthetic in-scope module path
		suppressed int    // exact count of suppressed findings
	}{
		{"ctxflow", "testdata/src/ctxflow", "sgxgauge/internal/serve/corpus", 1},
		{"determinism", "testdata/src/determinism", "sgxgauge/internal/sgx/corpus", 1},
		{"droppederr", "testdata/src/droppederr", "sgxgauge/internal/epc/corpus", 1},
		{"goroleak", "testdata/src/goroleak", "sgxgauge/internal/serve/corpus", 1},
		{"lockdiscipline", "testdata/src/lockdiscipline", "sgxgauge/internal/perf/corpus", 1},
		{"lockdiscipline", "testdata/src/lockinterproc", "sgxgauge/internal/serve/corpus", 1},
		{"satconv", "testdata/src/satconv", "sgxgauge/internal/sgx/corpus", 1},
		{"streamerr", "testdata/src/streamerr", "sgxgauge/internal/journal/corpus", 1},
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			a, ok := ByName(tc.analyzer)
			if !ok {
				t.Fatalf("unknown analyzer %q", tc.analyzer)
			}
			diags, err := CheckDirAs(tc.dir, tc.importPath, "sgxgauge", []*Analyzer{a})
			if err != nil {
				t.Fatalf("CheckDirAs(%s): %v", tc.dir, err)
			}
			wants := parseWants(t, tc.dir)
			if len(wants) == 0 {
				t.Fatalf("corpus %s has no want comments", tc.dir)
			}
			var suppressed int
			for _, d := range diags {
				if d.Suppressed {
					suppressed++
					if d.Reason == "" {
						t.Errorf("suppressed finding without a reason: %s", d)
					}
					continue
				}
				if d.Analyzer == "sgxlint" {
					t.Errorf("driver-level problem in corpus: %s", d)
					continue
				}
				matched := false
				for _, w := range wants {
					if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
						w.matched = true
						matched = true
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", d)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("missing finding at %s:%d matching %q", w.file, w.line, w.re)
				}
			}
			if suppressed != tc.suppressed {
				t.Errorf("suppressed findings = %d, want %d", suppressed, tc.suppressed)
			}
		})
	}
}

// TestApprovedHelperExempt checks satconv's one sanctioned home for
// the raw conversion: Sat* functions in internal/cycles itself.
func TestApprovedHelperExempt(t *testing.T) {
	diags, err := CheckDirAs("testdata/src/satconv_approved", "sgxgauge/internal/cycles", "sgxgauge", []*Analyzer{SatConv})
	if err != nil {
		t.Fatalf("CheckDirAs: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding in approved helper corpus: %s", d)
	}
}

// TestScopedAnalyzerSkipsForeignPackages loads the determinism corpus
// under an out-of-scope import path: the analyzer must not run, and
// its now-pointless pragma must be reported as unused.
func TestScopedAnalyzerSkipsForeignPackages(t *testing.T) {
	diags, err := CheckDirAs("testdata/src/determinism", "sgxgauge/cmd/outofscope", "sgxgauge", []*Analyzer{Determinism})
	if err != nil {
		t.Fatalf("CheckDirAs: %v", err)
	}
	var unused int
	for _, d := range diags {
		switch {
		case d.Analyzer == "determinism":
			t.Errorf("determinism ran out of scope: %s", d)
		case d.Analyzer == "sgxlint" && strings.Contains(d.Message, "suppresses nothing"):
			unused++
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if unused != 1 {
		t.Errorf("unused-pragma findings = %d, want 1", unused)
	}
}

// TestPragmaValidation exercises the driver's pragma diagnostics:
// missing analyzer, unknown analyzer, missing reason, and a valid but
// unused pragma.
func TestPragmaValidation(t *testing.T) {
	dir := t.TempDir()
	src := `package corpus

//sgxlint:ignore
var a = 1

//sgxlint:ignore nosuch because reasons
var b = 2

//sgxlint:ignore droppederr
var c = 3

//sgxlint:ignore droppederr stale excuse for code that is long gone
var d = 4
`
	if err := os.WriteFile(filepath.Join(dir, "corpus.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := CheckDirAs(dir, "sgxgauge/internal/epc/corpus", "sgxgauge", All())
	if err != nil {
		t.Fatalf("CheckDirAs: %v", err)
	}
	wantSubstrings := []string{
		"missing analyzer name",
		"unknown analyzer \"nosuch\"",
		"requires a written reason",
		"suppresses nothing",
	}
	for _, want := range wantSubstrings {
		found := false
		for _, d := range diags {
			if d.Analyzer == "sgxlint" && strings.Contains(d.Message, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no sgxlint diagnostic containing %q; got %v", want, diags)
		}
	}
	if len(diags) != len(wantSubstrings) {
		t.Errorf("diagnostics = %d, want %d: %v", len(diags), len(wantSubstrings), diags)
	}
}

// TestDetachedPragmaValidation exercises goroleak's own annotation
// grammar: a reason-less //sgxlint:detached is reported and covers
// nothing (the go statement stays flagged), and a valid pragma turns
// the finding into a suppressed one carrying the reason.
func TestDetachedPragmaValidation(t *testing.T) {
	dir := t.TempDir()
	src := `package corpus

func bad(ch chan int) {
	//sgxlint:detached
	go func() {
		<-ch
	}()
}

func good(ch chan int) {
	//sgxlint:detached drained by the producer closing ch
	go func() {
		<-ch
	}()
}
`
	if err := os.WriteFile(filepath.Join(dir, "corpus.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := CheckDirAs(dir, "sgxgauge/internal/serve/corpus", "sgxgauge", []*Analyzer{GoroLeak})
	if err != nil {
		t.Fatalf("CheckDirAs: %v", err)
	}
	var missingReason, unjoined, suppressed int
	for _, d := range diags {
		switch {
		case d.Suppressed:
			suppressed++
			if d.Reason != "drained by the producer closing ch" {
				t.Errorf("suppressed finding carries reason %q", d.Reason)
			}
		case strings.Contains(d.Message, "requires a written reason"):
			missingReason++
		case strings.Contains(d.Message, "not joined"):
			unjoined++
		default:
			t.Errorf("unexpected finding: %s", d)
		}
	}
	if missingReason != 1 || unjoined != 1 || suppressed != 1 {
		t.Errorf("missingReason=%d unjoined=%d suppressed=%d, want 1/1/1: %v",
			missingReason, unjoined, suppressed, diags)
	}
}

// TestGraphResolvesInterproceduralJoin pins the call-graph summary
// path: weaken BuildGraph's WaitGroup Done detection and the joined
// named-callee case regresses into a false positive.
func TestGraphResolvesInterproceduralJoin(t *testing.T) {
	dir := t.TempDir()
	src := `package corpus

import "sync"

type pool struct{ wg sync.WaitGroup }

func (p *pool) run() { defer p.wg.Done() }

func (p *pool) spawn() {
	p.wg.Add(1)
	go p.run()
	p.wg.Wait()
}
`
	if err := os.WriteFile(filepath.Join(dir, "corpus.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	diags, err := CheckDirAs(dir, "sgxgauge/internal/serve/corpus", "sgxgauge", []*Analyzer{GoroLeak})
	if err != nil {
		t.Fatalf("CheckDirAs: %v", err)
	}
	for _, d := range diags {
		t.Errorf("WaitGroup-joined named callee reported: %s", d)
	}
}
