package lint

// seedrand: every random number in a generated surface must flow from
// the seeded, splittable streams in internal/rng, or realizations stop
// being reproducible and the tiled/streaming engines lose their
// bit-identical-overlap guarantee. Importing math/rand (or v2)
// anywhere else is flagged at the import site.
//
// A second rule applies everywhere, including inside internal/rng (the
// one package allowed to touch math/rand): constructing or seeding a
// generator from the wall clock — rand.NewSource(time.Now().UnixNano()),
// rand.New with a time-derived argument, rand.Seed(time...) — makes
// every run a different realization, silently. The time-derived
// argument is matched through the shared package-call matcher
// (pkgCallName, taint.go); a nested rand constructor is reported once,
// at the innermost call that takes the time value.

import (
	"go/ast"
	"strconv"
)

func runSeedrand(p *pass) {
	if p.unit.Dir != "internal/rng" {
		for _, f := range p.unit.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					p.reportf(imp.Pos(), "seedrand",
						"%s outside internal/rng; draw variates from internal/rng so seeds stay reproducible", path)
				}
			}
		}
	}
	for _, f := range p.unit.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isRandSeedCall(p, call) {
				return true
			}
			if hasTimeDerivedArg(p, call) {
				p.reportf(call.Pos(), "seedrand",
					"seeding math/rand from the wall clock; every run becomes a different realization — use a fixed seed via internal/rng")
			}
			return true
		})
	}
}

// isRandSeedCall matches the math/rand (and v2) constructors and
// seeders whose argument determines the stream.
func isRandSeedCall(p *pass, call *ast.CallExpr) bool {
	if _, ok := pkgCallName(p, call, "math/rand", "NewSource", "New", "Seed"); ok {
		return true
	}
	_, ok := pkgCallName(p, call, "math/rand/v2", "New", "NewPCG", "NewChaCha8")
	return ok
}

// hasTimeDerivedArg reports whether any argument's subtree reaches
// time.Now (UnixNano and friends are methods on its result, so the
// root call is the telltale). Nested rand constructors are skipped —
// they carry their own finding at the inner call.
func hasTimeDerivedArg(p *pass, call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(m ast.Node) bool {
			if found {
				return false
			}
			inner, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isRandSeedCall(p, inner) {
				return false
			}
			if _, ok := pkgCallName(p, inner, "time", "Now"); ok {
				found = true
				return false
			}
			return true
		})
	}
	return found
}
