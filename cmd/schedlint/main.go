// Command schedlint runs the repo's custom static analyzers over Go
// packages and reports violations of the determinism, locking and
// protocol invariants the scheduler reproduction depends on:
//
//	nodeterminism    wall-clock / global-rand use in deterministic packages
//	maporder         order-sensitive work inside range-over-map
//	lockcheck        `// guarded by mu` discipline and Lock/Unlock pairing
//	protoerr         dropped proto.Conn Send/Recv/Request/Close errors
//	lockorder        interprocedural self-deadlocks, ABBA cycles, declared-order violations
//	protoexhaustive  proto message registry ↔ daemon dispatch switch agreement
//	goroutinelife    every go statement needs a provable shutdown path
//	epochguard       writes to epoch-guarded fields must reach their bump before return
//	atomicfield      sync/atomic fields: atomic everywhere, declared, 64-bit aligned on 386
//	sharedguard      fields written from several goroutine contexts need a declared guard
//	chanlife         channel fields: one closing owner, no send-after-close or double close
//
// Usage:
//
//	go run ./cmd/schedlint [-json|-sarif] [-tests] [-o file] [packages...]   (default: repro/...)
//
// -tests re-checks each package with its _test.go files included and
// adds external test packages; only analyzers that opt in (the
// memory-model trio above) report findings inside test files.
//
// Output modes:
//
//	(default)  file:line:col: analyzer: message, one finding per line
//	-json      a JSON array of findings {analyzer, file, line, col, message}
//	-sarif     SARIF 2.1.0, for CI upload as code-scanning annotations
//
// Exit codes are a stable contract for CI and tooling:
//
//	0  clean — the packages loaded and no analyzer reported a finding
//	1  findings were reported (the requested report was still written)
//	2  the load or an analyzer failed: pattern expansion, parse or type
//	   errors, or an internal analyzer error; findings are unreliable
//
// See DESIGN.md "Determinism & static analysis" for the suppression
// directives each analyzer honours.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/chanlife"
	"repro/internal/analysis/epochguard"
	"repro/internal/analysis/goroutinelife"
	"repro/internal/analysis/loader"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/maporder"
	"repro/internal/analysis/nodeterminism"
	"repro/internal/analysis/protoerr"
	"repro/internal/analysis/protoexhaustive"
	"repro/internal/analysis/sharedguard"
)

var analyzers = []*analysis.Analyzer{
	nodeterminism.Analyzer,
	maporder.Analyzer,
	lockcheck.Analyzer,
	protoerr.Analyzer,
	lockorder.Analyzer,
	protoexhaustive.Analyzer,
	goroutinelife.Analyzer,
	epochguard.Analyzer,
	atomicfield.Analyzer,
	sharedguard.Analyzer,
	chanlife.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	tests := flag.Bool("tests", false, "include _test.go files and external test packages")
	outPath := flag.String("o", "", "write the report to this file instead of stdout")
	flag.Parse()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "schedlint: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"repro/..."}
	}
	// ./... style patterns depend on the working directory; module-path
	// patterns are resolved by go list either way.
	for i, p := range patterns {
		if p == "all" {
			patterns[i] = "repro/..."
		}
	}

	l := loader.New()
	l.IncludeTests = *tests
	pkgs, err := l.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}

	broken := 0
	var findings []analysis.Finding
	for _, p := range pkgs {
		// The analyzers' own golden-test fixtures intentionally violate
		// every invariant; they are inputs, not code under analysis.
		if strings.Contains(p.ImportPath, "/testdata/") {
			continue
		}
		for _, e := range p.ParseErrors {
			fmt.Fprintf(os.Stderr, "schedlint: %s: %v\n", p.ImportPath, e)
			broken++
		}
		for _, e := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "schedlint: %s: %v\n", p.ImportPath, e)
			broken++
		}
		if broken > 0 {
			continue
		}
		target := p.Target()
		target.Dep = l.DepResolver()
		fs, err := analysis.RunAnalyzers(target, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "schedlint: %s: %v\n", p.ImportPath, err)
			os.Exit(2)
		}
		findings = append(findings, fs...)
	}
	if broken > 0 {
		os.Exit(2)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "schedlint:", err)
			os.Exit(2)
		}
		defer f.Close()
		out = f
	}
	switch {
	case *sarifOut:
		err = writeSARIF(out, findings)
	case *jsonOut:
		err = writeJSON(out, findings)
	default:
		for _, f := range findings {
			fmt.Fprintln(out, f.String())
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedlint:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "schedlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

// jsonFinding is the -json record shape; field names are part of the
// output contract.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, findings []analysis.Finding) error {
	recs := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		recs = append(recs, jsonFinding{
			Analyzer: f.Analyzer,
			File:     relPath(f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recs)
}

// SARIF 2.1.0, the minimal subset GitHub code scanning consumes: one
// run, one rule per analyzer, one result per finding with a physical
// location. Repo-relative URIs keep the upload working regardless of
// the runner's checkout directory.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

func writeSARIF(w io.Writer, findings []analysis.Finding) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "schedlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath makes a filename repository-relative (slash-separated) when
// it sits under the working directory; SARIF viewers and annotation
// uploads want URIs rooted at the checkout.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return filepath.ToSlash(name)
	}
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}
