// Package lint is sgxgauge's in-tree static-analysis driver: a small,
// dependency-free framework (go/parser + go/types only) that
// type-checks every package in the module, builds a module-wide static
// call graph (callgraph.go), and runs a pluggable set of analyzers
// enforcing the simulator's cross-cutting invariants — determinism,
// error propagation, lock discipline, saturating cycle arithmetic,
// context-aware blocking, goroutine join tracking, and stream
// write-error handling. See DESIGN.md §8 for the invariant catalogue
// and the historical bugs each analyzer exists to prevent.
//
// Findings are reported as "file:line: [analyzer] message". A finding
// can be acknowledged in place with a pragma on the offending line or
// the line directly above it:
//
//	//sgxlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory: an unexplained suppression is itself
// reported. Suppressed findings are retained (marked Suppressed) so
// tooling can audit them.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Position
	// Analyzer names the analyzer that produced the finding (or the
	// pseudo-analyzer "sgxlint" for driver-level problems such as
	// malformed pragmas).
	Analyzer string
	// Message describes the violated invariant.
	Message string
	// Suppressed reports that an //sgxlint:ignore pragma acknowledged
	// this finding; Reason carries the pragma's written justification.
	Suppressed bool
	Reason     string
}

// String renders the finding in the canonical file:line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Fset resolves token positions for every file of the package.
	Fset *token.FileSet
	// PkgPath is the package's import path within the module.
	PkgPath string
	// ModulePath is the module's root import path ("sgxgauge").
	ModulePath string
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Files are the package's parsed sources (tests excluded).
	Files []*ast.File
	// Info holds the type-checker's resolution tables.
	Info *types.Info
	// Graph is the module-wide call graph and fact tables, shared by
	// every pass of one RunAnalyzers invocation. Analyzers still report
	// only on the current package but may judge it against facts from
	// anywhere in the module.
	Graph *Graph

	report           func(pos token.Pos, msg string)
	reportSuppressed func(pos token.Pos, msg, reason string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// ReportSuppressedf records a finding at pos that is born suppressed
// with the given reason — used by analyzers whose own annotation
// grammar (goroleak's //sgxlint:detached) acknowledges a finding
// without the generic ignore pragma, so the -suppressed audit still
// surfaces it.
func (p *Pass) ReportSuppressedf(pos token.Pos, reason, format string, args ...any) {
	p.reportSuppressed(pos, fmt.Sprintf(format, args...), reason)
}

// InModule reports whether pkgPath belongs to this module.
func (p *Pass) InModule(pkgPath string) bool {
	return pkgPath == p.ModulePath || strings.HasPrefix(pkgPath, p.ModulePath+"/")
}

// Analyzer is one pluggable invariant checker.
type Analyzer struct {
	// Name is the identifier used in findings and ignore pragmas.
	Name string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc string
	// Appliesf, when non-nil, restricts the analyzer to packages whose
	// module-relative import path it accepts.
	Appliesf func(pkgPath string) bool
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Applies reports whether the analyzer covers the package.
func (a *Analyzer) Applies(pkgPath string) bool {
	return a.Appliesf == nil || a.Appliesf(pkgPath)
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		CtxFlow,
		Determinism,
		DroppedErr,
		GoroLeak,
		LockDiscipline,
		SatConv,
		StreamErr,
	}
}

// ByName resolves one analyzer from All, reporting false when unknown.
func ByName(name string) (*Analyzer, bool) {
	for _, a := range All() {
		if a.Name == name {
			return a, true
		}
	}
	return nil, false
}

// suppression is one parsed //sgxlint:ignore pragma.
type suppression struct {
	analyzers map[string]bool
	reason    string
	line      int
	used      bool
}

// pragmaRe matches the ignore pragma. Like go:build directives, the
// pragma must open the comment with no space after "//" — prose that
// merely mentions the pragma does not trigger it.
var pragmaRe = regexp.MustCompile(`^//sgxlint:ignore(\s.*)?$`)

// fileSuppressions indexes a file's pragmas by the source line they
// cover: a pragma covers its own line (trailing comment) and, when it
// stands alone, the line directly below it.
type fileSuppressions struct {
	byLine map[int][]*suppression
	all    []*suppression
}

// collectSuppressions parses every //sgxlint:ignore pragma in the
// file. Malformed pragmas (no analyzer, unknown analyzer, or a missing
// reason) are reported as "sgxlint" diagnostics through report.
func collectSuppressions(fset *token.FileSet, f *ast.File, known func(string) bool, report func(pos token.Pos, msg string)) *fileSuppressions {
	fs := &fileSuppressions{byLine: map[int][]*suppression{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := pragmaRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			fields := strings.Fields(m[1])
			if len(fields) == 0 {
				report(c.Pos(), "malformed sgxlint:ignore pragma: missing analyzer name")
				continue
			}
			names := strings.Split(fields[0], ",")
			s := &suppression{analyzers: map[string]bool{}, line: fset.Position(c.Pos()).Line}
			bad := false
			for _, n := range names {
				if !known(n) {
					report(c.Pos(), fmt.Sprintf("sgxlint:ignore names unknown analyzer %q", n))
					bad = true
				}
				s.analyzers[n] = true
			}
			s.reason = strings.Join(fields[1:], " ")
			if s.reason == "" {
				report(c.Pos(), "sgxlint:ignore requires a written reason after the analyzer name")
				bad = true
			}
			if bad {
				continue
			}
			fs.all = append(fs.all, s)
			fs.byLine[s.line] = append(fs.byLine[s.line], s)
			// A pragma on its own line covers the next line.
			fs.byLine[s.line+1] = append(fs.byLine[s.line+1], s)
		}
	}
	return fs
}

// match returns the pragma covering (analyzer, line), or nil.
func (fs *fileSuppressions) match(analyzer string, line int) *suppression {
	for _, s := range fs.byLine[line] {
		if s.analyzers[analyzer] {
			s.used = true
			return s
		}
	}
	return nil
}

// RunAnalyzers runs every applicable analyzer over every package of
// the module and returns all findings (including suppressed ones),
// sorted by position. Unused pragmas are reported so stale
// suppressions cannot linger after the code they excused is gone.
func RunAnalyzers(mod *Module, analyzers []*Analyzer) []Diagnostic {
	known := func(name string) bool {
		for _, a := range analyzers {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	graph := BuildGraph(mod)
	var diags []Diagnostic
	for _, pkg := range mod.Packages {
		diags = append(diags, runPackage(mod, graph, pkg, analyzers, known)...)
	}
	sortDiagnostics(diags)
	return diags
}

// runPackage runs the applicable analyzers over one loaded package.
func runPackage(mod *Module, graph *Graph, pkg *Package, analyzers []*Analyzer, known func(string) bool) []Diagnostic {
	var diags []Diagnostic
	sups := map[string]*fileSuppressions{} // filename -> pragmas
	for _, f := range pkg.Files {
		name := mod.Fset.Position(f.Pos()).Filename
		sups[name] = collectSuppressions(mod.Fset, f, known, func(pos token.Pos, msg string) {
			diags = append(diags, Diagnostic{
				Pos:      mod.Fset.Position(pos),
				Analyzer: "sgxlint",
				Message:  msg,
			})
		})
	}
	for _, a := range analyzers {
		if !a.Applies(pkg.Path) {
			continue
		}
		pass := &Pass{
			Fset:       mod.Fset,
			PkgPath:    pkg.Path,
			ModulePath: mod.Path,
			Pkg:        pkg.Types,
			Files:      pkg.Files,
			Info:       pkg.Info,
			Graph:      graph,
		}
		pass.report = func(pos token.Pos, msg string) {
			d := Diagnostic{
				Pos:      mod.Fset.Position(pos),
				Analyzer: a.Name,
				Message:  msg,
			}
			if fs := sups[d.Pos.Filename]; fs != nil {
				if s := fs.match(a.Name, d.Pos.Line); s != nil {
					d.Suppressed = true
					d.Reason = s.reason
				}
			}
			diags = append(diags, d)
		}
		pass.reportSuppressed = func(pos token.Pos, msg, reason string) {
			diags = append(diags, Diagnostic{
				Pos:        mod.Fset.Position(pos),
				Analyzer:   a.Name,
				Message:    msg,
				Suppressed: true,
				Reason:     reason,
			})
		}
		a.Run(pass)
	}
	for _, f := range pkg.Files {
		name := mod.Fset.Position(f.Pos()).Filename
		for _, s := range sups[name].all {
			if !s.used {
				diags = append(diags, Diagnostic{
					Pos:      token.Position{Filename: name, Line: s.line},
					Analyzer: "sgxlint",
					Message:  "sgxlint:ignore pragma suppresses nothing; delete it",
				})
			}
		}
	}
	return diags
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
