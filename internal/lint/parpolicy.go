package lint

// parpolicy: the repo's documented rule that parallelism policy lives
// in one place — internal/par. Raw go statements and sync.WaitGroup
// declarations anywhere else are flagged; worker-count decisions,
// chunking, and joins must route through par.For/par.ForEach.
// Concurrency *tests* that deliberately hammer shared state from raw
// goroutines silence the check with //lint:ignore parpolicy <reason>.

import (
	"go/ast"
	"go/types"
)

func runParpolicy(p *pass) {
	if p.unit.Dir == "internal/par" {
		return
	}
	for _, f := range p.unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				p.reportf(n.Go, "parpolicy",
					"raw go statement outside internal/par; route fan-out through par.For/par.ForEach")
			case *ast.Ident:
				if obj, ok := p.unit.Info.Defs[n].(*types.Var); ok && isNamedType(obj.Type(), "sync", "WaitGroup") {
					p.reportf(n.Pos(), "parpolicy",
						"sync.WaitGroup outside internal/par; parallelism policy lives in internal/par")
				}
			}
			return true
		})
	}
}
