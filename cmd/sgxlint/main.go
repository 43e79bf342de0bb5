// Command sgxlint runs sgxgauge's in-tree static-analysis suite: the
// invariant checkers of internal/lint (ctxflow, determinism,
// droppederr, goroleak, lockdiscipline, satconv, streamerr) over every package of the module, with a shared
// interprocedural call graph backing the concurrency analyzers.
//
// Usage:
//
//	go run ./cmd/sgxlint ./...
//	go run ./cmd/sgxlint -a determinism ./internal/sgx/...
//	go run ./cmd/sgxlint -suppressed ./...
//	go run ./cmd/sgxlint -json ./... > sgxlint.json
//
// Findings print as "file:line: [analyzer] message"; the exit status
// is non-zero when any unsuppressed finding (or type error) exists, so
// CI can gate on it. -json instead emits the full diagnostic set
// (suppressed findings included, with their reasons) as a JSON array
// for machine consumption — CI uploads it as a build artifact. See
// DESIGN.md §8 for the enforced invariants and the //sgxlint:ignore
// suppression syntax.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sgxgauge/internal/lint"
)

func main() {
	analyzerFlag := flag.String("a", "", "comma-separated analyzer subset (default: all)")
	showSuppressed := flag.Bool("suppressed", false, "also print suppressed findings with their reasons")
	jsonOut := flag.Bool("json", false, "emit every finding (suppressed included) as a JSON array instead of text")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	asPath := flag.String("as", "", "lint the single directory argument as a package at this import path (for testdata corpora, which the module walk skips)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sgxlint [flags] [patterns]\n\npatterns are ./... style package patterns (default ./...)\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.All()
	if *analyzerFlag != "" {
		analyzers = nil
		for _, name := range strings.Split(*analyzerFlag, ",") {
			a, ok := lint.ByName(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "sgxlint: unknown analyzer %q\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgxlint: %v\n", err)
		os.Exit(2)
	}

	if *asPath != "" {
		if flag.NArg() != 1 {
			fmt.Fprintf(os.Stderr, "sgxlint: -as takes exactly one directory argument\n")
			os.Exit(2)
		}
		_, modPath, err := lint.FindModule(cwd)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgxlint: %v\n", err)
			os.Exit(2)
		}
		diags, err := lint.CheckDirAs(flag.Arg(0), *asPath, modPath, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sgxlint: %v\n", err)
			os.Exit(2)
		}
		os.Exit(emitDiags(cwd, diags, *showSuppressed, *jsonOut))
	}

	mod, err := lint.LoadModule(cwd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgxlint: %v\n", err)
		os.Exit(2)
	}

	match, err := patternMatcher(cwd, mod, flag.Args())
	if err != nil {
		fmt.Fprintf(os.Stderr, "sgxlint: %v\n", err)
		os.Exit(2)
	}

	exit := 0
	filtered := &lint.Module{Dir: mod.Dir, Path: mod.Path, Fset: mod.Fset}
	for _, pkg := range mod.Packages {
		if !match(pkg.Path) {
			continue
		}
		filtered.Packages = append(filtered.Packages, pkg)
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "sgxlint: %s: %v\n", pkg.Path, terr)
			exit = 2
		}
	}
	if len(filtered.Packages) == 0 {
		fmt.Fprintf(os.Stderr, "sgxlint: no packages matched %v\n", flag.Args())
		os.Exit(2)
	}

	if code := emitDiags(mod.Dir, lint.RunAnalyzers(filtered, analyzers), *showSuppressed, *jsonOut); code > exit {
		exit = code
	}
	os.Exit(exit)
}

// emitDiags renders findings relative to root — as text, or as a JSON
// array when jsonOut is set — and returns 1 when any unsuppressed
// finding exists, 0 otherwise.
func emitDiags(root string, diags []lint.Diagnostic, showSuppressed, jsonOut bool) int {
	if jsonOut {
		return printJSON(root, diags)
	}
	exit := 0
	for _, d := range diags {
		if d.Suppressed {
			if showSuppressed {
				fmt.Printf("%s (suppressed: %s)\n", rel(root, d), d.Reason)
			}
			continue
		}
		fmt.Println(rel(root, d))
		exit = 1
	}
	return exit
}

// jsonDiag is the stable wire shape of one finding in -json output.
// Suppressed findings are always included so the artifact doubles as
// the suppression audit; consumers filter on the suppressed field.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Column     int    `json:"column"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func printJSON(root string, diags []lint.Diagnostic) int {
	out := make([]jsonDiag, 0, len(diags))
	exit := 0
	for _, d := range diags {
		file := d.Pos.Filename
		if r, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(r, "..") {
			file = filepath.ToSlash(r)
		}
		out = append(out, jsonDiag{
			File:       file,
			Line:       d.Pos.Line,
			Column:     d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Suppressed: d.Suppressed,
			Reason:     d.Reason,
		})
		if !d.Suppressed {
			exit = 1
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "sgxlint: encoding JSON: %v\n", err)
		return 2
	}
	return exit
}

// rel renders a diagnostic with its path relative to the module root.
func rel(root string, d lint.Diagnostic) string {
	if r, err := filepath.Rel(root, d.Pos.Filename); err == nil && !strings.HasPrefix(r, "..") {
		d.Pos.Filename = r
	}
	return d.String()
}

// patternMatcher turns ./... style arguments into an import-path
// predicate. Supported forms: "./..." (everything), "./dir/..."
// (subtree), "./dir" (one package), and bare import paths with or
// without a trailing /... — enough for the go-tool idioms the scripts
// and CI use.
func patternMatcher(cwd string, mod *lint.Module, args []string) (func(string) bool, error) {
	if len(args) == 0 {
		return func(string) bool { return true }, nil
	}
	var exact []string
	var prefixes []string
	for _, arg := range args {
		recursive := false
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			recursive = true
			arg = rest
			if arg == "." || arg == "" {
				arg = "./."
			}
		}
		var ip string
		if arg == "." || strings.HasPrefix(arg, "./") || strings.HasPrefix(arg, "../") {
			abs, err := filepath.Abs(filepath.Join(cwd, arg))
			if err != nil {
				return nil, err
			}
			r, err := filepath.Rel(mod.Dir, abs)
			if err != nil || strings.HasPrefix(r, "..") {
				return nil, fmt.Errorf("pattern %q points outside the module", arg)
			}
			if r == "." {
				ip = mod.Path
			} else {
				ip = mod.Path + "/" + filepath.ToSlash(r)
			}
		} else {
			ip = arg
		}
		if recursive {
			prefixes = append(prefixes, ip)
		} else {
			exact = append(exact, ip)
		}
	}
	return func(pkgPath string) bool {
		for _, e := range exact {
			if pkgPath == e {
				return true
			}
		}
		for _, p := range prefixes {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}, nil
}
