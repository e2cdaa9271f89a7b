package lint

import (
	"go/ast"
)

// Goroutine flags raw go statements in simulator-core packages. The
// core runs one serial event loop, and its byte-identity rests on
// every write happening in event order. A goroutine's writes land
// whenever the runtime schedules them, which is exactly the
// nondeterminism the golden corpus exists to catch. Parallelism
// belongs across runs (RunBatch, gfsd's worker pool), never inside
// one; a go statement the core truly needs carries a //lint:ordered
// waiver explaining why ordering cannot leak.
var Goroutine = &Analyzer{
	Name: "goroutine",
	Doc:  "flags every raw go statement in simulator-core packages",
	Run:  runGoroutine,
}

func runGoroutine(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				p.Reportf(g.Pos(), "raw go statement in the serial simulator core; goroutine writes land in scheduling order, not event order — parallelize across runs instead, or waive with //lint:ordered <reason>")
			}
			return true
		})
	}
}
