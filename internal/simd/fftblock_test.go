package simd

import "testing"

// TestBlockFFTsListEveryKernelSet: one column-block handle per kernel
// set, in dispatch order, with the selected set last.
func TestBlockFFTsListEveryKernelSet(t *testing.T) {
	fs := BlockFFTs()
	if len(fs) != len(kernels) {
		t.Fatalf("%d block kernels, want %d", len(fs), len(kernels))
	}
	for i, f := range fs {
		if f.Name() != kernels[i].name {
			t.Errorf("block kernels %d = %q, want %q", i, f.Name(), kernels[i].name)
		}
	}
	if got := DefaultBlockFFT().Name(); got != Impl() {
		t.Errorf("DefaultBlockFFT = %q, want %q", got, Impl())
	}
}

// TestBlockFFTPanics: blocks that are not a power-of-two number of
// whole rows and short twiddle tables are rejected before any kernel
// runs.
func TestBlockFFTPanics(t *testing.T) {
	f := DefaultBlockFFT()
	row := func(n int) []complex128 { return make([]complex128, n*BlockLanes) }
	for name, call := range map[string]func(){
		"empty block":    func() { f.Stages(nil, nil, false) },
		"partial row":    func() { f.Stages(make([]complex128, BlockLanes+1), nil, false) },
		"three rows":     func() { f.Stages(row(3), make([]complex128, 8), false) },
		"short twiddles": func() { f.Stages(row(16), make([]complex128, 11), true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}
