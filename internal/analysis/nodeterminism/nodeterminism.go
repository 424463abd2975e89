// Package nodeterminism flags wall-clock and global-randomness use in
// packages that must be bit-deterministic.
//
// The scheduler and the discrete-event substrate reproduce the paper's
// Table II only because every run is exactly repeatable: all time
// flows from the virtual clock (sim.Time) and all randomness from
// explicitly seeded *rand.Rand values. A single time.Now() or global
// rand.Intn() silently breaks that property. This analyzer enforces
// it mechanically:
//
//   - in the Deterministic packages of analysis.ClassOf's table (core,
//     profile, sim, cluster, esp, quadflow, workload, fairness, rms,
//     fairtree, campaign, backoff, and the pure data/format packages
//     they feed: job, metrics, trace, config, experiments) and in the
//     Tooling packages (schedlint and every analyzer package) any call
//     to the wall clock (time.Now, time.Sleep, time.After, timers, ...)
//     or to a global math/rand function is an error, and the
//     //lint:wallclock directive is itself rejected — these packages
//     have no legitimate wall-clock path;
//   - in the Daemon packages (serverd, mauid, mom, proto, tm, clock,
//     chaos) the same calls are flagged but may be annotated with
//     `//lint:wallclock <reason>` where the path is genuinely
//     wall-clock (daemon timeouts, uptime, socket deadlines).
//
// Examples and the other binaries are exempt.
package nodeterminism

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the nodeterminism check.
var Analyzer = &analysis.Analyzer{
	Name:      "nodeterminism",
	Doc:       "flags wall-clock time and global math/rand use in deterministic packages",
	Directive: "wallclock",
	Packages:  analysis.Deterministic | analysis.Daemon | analysis.Tooling,
	Run:       run,
}

// wallClockFuncs are the package-level time functions that read or
// wait on the wall clock. Pure conversions (time.Duration arithmetic,
// d.Milliseconds(), ...) are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// allowedRandFuncs construct explicitly seeded generators; everything
// else at package level draws from the process-global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	// Strict packages have no legitimate wall-clock path; only a Daemon
	// package may annotate one.
	name := pass.Pkg.Name()
	strict := analysis.ClassOf(pass.Pkg.Path())&(analysis.Deterministic|analysis.Tooling) != 0
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn := pkgFunc(pass, call)
			switch {
			case pkgPath == "time" && wallClockFuncs[fn]:
				if strict {
					// Findings in sim-driven packages cannot be silenced
					// by the wallclock directive.
					pass.Report(analysis.Diagnostic{
						Pos:            call.Pos(),
						Message:        fmt.Sprintf("wall-clock call time.%s in sim-driven package %s; use the virtual clock (sim.Time / sim.Engine)", fn, name),
						Unsuppressable: true,
					})
				} else {
					pass.Reportf(call.Pos(), "wall-clock call time.%s; route through internal/clock or annotate //lint:wallclock <reason>", fn)
				}
			case (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !allowedRandFuncs[fn]:
				pass.Report(analysis.Diagnostic{
					Pos:            call.Pos(),
					Message:        fmt.Sprintf("global %s.%s draws from the process-wide source; thread an explicitly seeded *rand.Rand", pkgPath, fn),
					Unsuppressable: strict,
				})
			}
			return true
		})
	}
	if strict {
		for _, d := range analysis.Directives(pass.Fset, pass.Files) {
			if d.Name == "wallclock" {
				pass.Report(analysis.Diagnostic{
					Pos:            d.Pos,
					Message:        "//lint:wallclock is not allowed in sim-driven package " + name + "; these packages must stay bit-deterministic",
					Unsuppressable: true,
				})
			}
		}
	}
	return nil
}

// pkgFunc resolves a call of the form pkg.Fn(...) to its package path
// and function name; empty strings otherwise.
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", ""
	}
	return pn.Imported().Path(), sel.Sel.Name
}
