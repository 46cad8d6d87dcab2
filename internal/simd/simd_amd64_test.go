//go:build amd64 && !noasm

package simd

import "testing"

// TestImplMatchesCPU: the dispatch picks the widest kernel set the CPU
// and OS support, "avx512" on an AVX-512 host.
func TestImplMatchesCPU(t *testing.T) {
	want := "go"
	if hasAVX2() {
		want = "avx2"
	}
	if hasAVX512() {
		want = "avx512"
	}
	if Impl() != want {
		t.Fatalf("Impl() = %q, want %q", Impl(), want)
	}
	t.Logf("MAC kernels: %s", Impl())
}
