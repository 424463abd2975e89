package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/loader"
)

// BenchmarkSchedlintRepo measures a whole-repo schedlint sweep, tests
// included: one shared parse+typecheck load feeds every analyzer
// (BENCH_lint.json tracks the wall time). The load-ms metric, the
// mean load per sweep like ns/op, separates the load from the analyzer
// passes — the loader caches each package and analyzers memoize the
// call graph per target, so the analysis cost is paid once per
// package, not once per analyzer.
// The sweep doubles as a regression gate: the repo must be clean.
func BenchmarkSchedlintRepo(b *testing.B) {
	var loadMS, pkgCount float64
	for i := 0; i < b.N; i++ {
		start := time.Now()
		l := loader.New()
		l.IncludeTests = true
		pkgs, err := l.Load("repro/...")
		if err != nil {
			b.Fatal(err)
		}
		loadMS += float64(time.Since(start).Milliseconds())
		analyzed := 0
		findings := 0
		for _, p := range pkgs {
			if strings.Contains(p.ImportPath, "/testdata/") {
				continue
			}
			if len(p.ParseErrors) > 0 || len(p.TypeErrors) > 0 {
				b.Fatalf("%s: %v %v", p.ImportPath, p.ParseErrors, p.TypeErrors)
			}
			target := p.Target()
			target.Dep = l.DepResolver()
			fs, err := analysis.RunAnalyzers(target, analyzers)
			if err != nil {
				b.Fatal(err)
			}
			findings += len(fs)
			analyzed++
		}
		if findings != 0 {
			b.Fatalf("repo not clean: %d finding(s)", findings)
		}
		pkgCount = float64(analyzed)
	}
	b.ReportMetric(loadMS/float64(b.N), "load-ms")
	b.ReportMetric(pkgCount, "packages")
	b.ReportMetric(float64(len(analyzers)), "analyzers")
}
