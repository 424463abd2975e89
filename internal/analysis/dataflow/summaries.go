package dataflow

import "repro/internal/analysis/callgraph"

// Fixpoint repeatedly applies update to every node of the graph until
// a full round reports no change. Analyzers use it to close function
// summaries over the call graph: update recomputes one node's summary
// from its callees' current summaries and reports whether it grew.
// With monotone summaries over finite lattices the iteration
// terminates; recursion simply converges at the loop's least fixed
// point.
func Fixpoint(g *callgraph.Graph, update func(*callgraph.Node) bool) {
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if update(n) {
				changed = true
			}
		}
	}
}
