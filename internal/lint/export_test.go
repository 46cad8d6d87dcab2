package lint

import "sync"

// FixtureTree is one run of every check over the whole fixture module,
// computed once per test binary through the white-box tests' source
// importer, so the standard library the fixtures and the typed passes
// share is type-checked once.
var FixtureTree = sync.OnceValues(func() ([]Diagnostic, error) {
	typedMu.Lock()
	defer typedMu.Unlock()
	l, err := newLoader("testdata/src/fixture", "fixture", typedFset, typedImp)
	if err != nil {
		return nil, err
	}
	res, err := l.run(nil, nil)
	return res.Diagnostics, err
})
