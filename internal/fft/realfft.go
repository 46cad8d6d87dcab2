package fft

import (
	"fmt"
	"math"

	"roughsurface/internal/par"
	"roughsurface/internal/simd"
)

// Real-input fast path.
//
// Every generator in this repository transforms purely real data (noise
// windows, kernel taps, height fields) or inverts Hermitian spectra back
// to real fields — the same symmetry the paper's eqns 21–28 spend their
// bookkeeping on. A length-n real DFT therefore carries only n/2+1
// independent bins, and the remaining work in a complex transform is
// redundant. The fast path packs the even/odd samples of a real input
// into a complex sequence of half the length,
//
//	z[m] = x[2m] + j·x[2m+1],   Z = DFT_{n/2}(z),
//
// and recovers the half-spectrum (bins k = 0..n/2) from Z by the split
//
//	E[k] = (Z[k] + conj(Z[h−k]))/2    (spectrum of the even samples)
//	O[k] = (Z[k] − conj(Z[h−k]))/(2j) (spectrum of the odd samples)
//	X[k] = E[k] + w^k·O[k],           w = e^{−2πj/n}, h = n/2,
//
// for one complex transform of length n/2 — about half the arithmetic
// and half the memory traffic of the complex route. The inverse runs the
// identities backward. Only even power-of-two lengths have the packed
// path; odd and Bluestein lengths fall back to the complex transform
// behind the same half-spectrum interface, so callers never branch.
//
// Half-spectrum convention: bins k = 0..n/2 of the full DFT, with the
// remaining bins implied by X[n−k] = conj(X[k]). The imaginary parts of
// the self-conjugate bins (DC, and Nyquist for even n) must be zero for
// the inverse to be meaningful; the packed inverse ignores them.

// realFFT holds the half-length plan and unpack twiddles backing the
// packed real path of a power-of-two Plan. Built lazily on first use so
// plan construction does not recurse through ever-smaller inner plans.
type realFFT struct {
	half *Plan
	tw   []complex128 // e^{−2πjk/n}, k = 0..n/2
}

// realPath returns the packed-path tables, or nil when this plan's
// length has no packed path (Bluestein or n < 2).
func (p *Plan) realPath() *realFFT {
	p.realOnce.Do(func() {
		if p.blu != nil || p.n < 2 {
			return
		}
		h := p.n / 2
		tw := make([]complex128, h+1)
		for k := range tw {
			s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(p.n))
			tw[k] = complex(c, s)
		}
		p.rfft = &realFFT{half: MustPlan(h), tw: tw}
	})
	return p.rfft
}

// HalfLen reports the number of independent spectrum bins of a real
// length-N input: N/2 + 1.
func (p *Plan) HalfLen() int { return p.n/2 + 1 }

// ForwardReal computes bins 0..N/2 of the unnormalized forward DFT of
// the real sequence src into dst (length HalfLen). The remaining bins
// are implied by Hermitian symmetry. src is not modified.
func (p *Plan) ForwardReal(dst []complex128, src []float64) {
	if len(src) != p.n || len(dst) != p.HalfLen() {
		panic(fmt.Sprintf("fft: ForwardReal length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
	r := p.realPath()
	if r == nil {
		p.forwardRealFallback(dst, src)
		return
	}
	h := p.n / 2
	z := dst[:h]
	for m := 0; m < h; m++ {
		z[m] = complex(src[2*m], src[2*m+1])
	}
	r.half.transform(z, z, false)
	// Unpack in place. The self-paired bin Z[0] yields the two real
	// edge bins; interior pairs (k, h−k) yield X[k] = E + w^k·O and
	// X[h−k] = conj(E − w^k·O) since E and O are spectra of real
	// sequences (E[h−k] = conj(E[k]), likewise O).
	z0 := z[0]
	dst[h] = complex(real(z0)-imag(z0), 0)
	dst[0] = complex(real(z0)+imag(z0), 0)
	for k, kr := 1, h-1; k <= kr; k, kr = k+1, kr-1 {
		// E and d = (Z[k] − conj(Z[h−k]))/2 by exact real halving:
		// complex division by 2 would call the runtime's Smith
		// division, which reduces to the same halving at far more cost.
		zk, zr := z[k], z[kr]
		e := complex((real(zk)+real(zr))/2, (imag(zk)-imag(zr))/2)
		d := complex((real(zk)-real(zr))/2, (imag(zk)+imag(zr))/2)
		o := complex(imag(d), -real(d)) // O[k] = −j·d
		t := r.tw[k] * o
		dst[k] = e + t
		dst[kr] = conj(e - t)
	}
}

// InverseRealTo computes the real inverse DFT (including the 1/N
// factor) of the Hermitian half-spectrum src (length HalfLen) into dst
// (length N). src is not modified on the packed path but is undefined
// input to reuse afterward; treat it as consumed.
func (p *Plan) InverseRealTo(dst []float64, src []complex128) {
	p.inverseReal(dst, src, 1/float64(p.n))
}

// InverseRealUnscaledTo is InverseRealTo without the 1/N normalization:
// dst[m] = Σ_k X[k]·e^{+j2πkm/N} with X the Hermitian extension of src.
// The generators use it where the paper's algebra carries the N factor
// explicitly (e.g. f = Σ v·u·e^{+j...}).
func (p *Plan) InverseRealUnscaledTo(dst []float64, src []complex128) {
	p.inverseReal(dst, src, 1)
}

// inverseReal computes dst[m] = scale·Σ_{k=0}^{N−1} X[k]·e^{+j2πkm/N}.
func (p *Plan) inverseReal(dst []float64, src []complex128, scale float64) {
	if len(dst) != p.n || len(src) != p.HalfLen() {
		panic(fmt.Sprintf("fft: InverseRealTo length mismatch: plan %d, dst %d, src %d", p.n, len(dst), len(src)))
	}
	r := p.realPath()
	if r == nil {
		p.inverseRealFallback(dst, src, scale)
		return
	}
	h := p.n / 2
	sp := p.getScratch()
	y := (*sp)[:h]
	// Rebuild the packed spectrum: Y[k] = scale·(E'[k] + j·O'[k]) with
	// E'[k] = X[k] + conj(X[h−k]) and O'[k] = (X[k] − conj(X[h−k]))·w^{−k}
	// — twice the forward-split E and O, so Y = 2·scale·Z and the
	// unscaled half-length inverse below returns scale·N·x.
	cs := complex(scale, 0)
	x0, xh := src[0], src[h]
	y[0] = cs * complex(real(x0)+real(xh), real(x0)-real(xh))
	for k, kr := 1, h-1; k <= kr; k, kr = k+1, kr-1 {
		xk, xr := src[k], src[h-k]
		e := xk + conj(xr)
		d := xk - conj(xr)
		o := conj(r.tw[k]) * d
		y[k] = cs * complex(real(e)-imag(o), imag(e)+real(o))
		if k != kr {
			y[kr] = cs * complex(real(e)+imag(o), real(o)-imag(e))
		}
	}
	r.half.transform(y, y, true)
	for m := 0; m < h; m++ {
		dst[2*m] = real(y[m])
		dst[2*m+1] = imag(y[m])
	}
	p.putScratch(sp)
}

// forwardRealFallback routes through the complex transform, keeping the
// half-spectrum interface for lengths without a packed path.
func (p *Plan) forwardRealFallback(dst []complex128, src []float64) {
	sp := p.getScratch()
	s := *sp
	for i, v := range src {
		s[i] = complex(v, 0)
	}
	p.transform(s, s, false)
	copy(dst, s[:len(dst)])
	p.putScratch(sp)
}

// inverseRealFallback reconstructs the full Hermitian spectrum and
// routes through the complex transform.
func (p *Plan) inverseRealFallback(dst []float64, src []complex128, scale float64) {
	sp := p.getScratch()
	s := *sp
	copy(s[:len(src)], src)
	for k := 1; 2*k < p.n; k++ {
		s[p.n-k] = conj(src[k])
	}
	p.transform(s, s, true)
	for i := range dst {
		dst[i] = real(s[i]) * scale
	}
	p.putScratch(sp)
}

// HalfNx reports the half-spectrum row length of a real nx×ny input:
// nx/2 + 1.
func (p *Plan2D) HalfNx() int { return p.nx/2 + 1 }

// ForwardReal computes the 2D half-spectrum DFT of the real row-major
// array src (nx×ny): dst holds ny rows of HalfNx bins kx = 0..nx/2,
// row-major. The full spectrum is implied by the 2D Hermitian symmetry
// F[nx−kx, (ny−ky) mod ny] = conj(F[kx, ky]). src is not modified.
func (p *Plan2D) ForwardReal(dst []complex128, src []float64) {
	p.forwardRealRows(dst, src, p.ny)
}

// forwardRealRows is ForwardReal for an input whose rows at and beyond
// rows are zero: only src rows [0, rows) are transformed, and the
// column pass takes the zero rows' spectrum rows as zeros instead of
// reading them (a zero row transforms to zeros), so the result equals
// ForwardReal's value for value.
func (p *Plan2D) forwardRealRows(dst []complex128, src []float64, rows int) {
	hx := p.HalfNx()
	if len(src) != p.nx*p.ny || len(dst) != hx*p.ny {
		panic(fmt.Sprintf("fft: 2D ForwardReal length mismatch: plan %dx%d, dst %d, src %d",
			p.nx, p.ny, len(dst), len(src)))
	}
	p.checkRows(rows)
	workers := p.workerBound()
	p.rowsForward(dst, src, rows, workers)
	p.colPass(blockFFT, dst, hx, rows, p.ny, false, workers)
}

// InverseRealTo computes the real 2D inverse DFT (including the
// 1/(nx·ny) factor) of the Hermitian half-spectrum src into dst
// (nx×ny). src is consumed: it is overwritten as column workspace.
func (p *Plan2D) InverseRealTo(dst []float64, src []complex128) {
	p.inverseReal(dst, src, 1/float64(p.nx*p.ny), p.ny)
}

// InverseRealUnscaledTo is InverseRealTo without the 1/(nx·ny) factor.
// src is consumed.
func (p *Plan2D) InverseRealUnscaledTo(dst []float64, src []complex128) {
	p.inverseReal(dst, src, 1, p.ny)
}

// inverseReal is the scaled 2D inverse for a caller that reads only dst
// rows [0, rows): the final row pass runs over those rows alone and
// leaves the rest of dst untouched. Each output row depends only on its
// own column-pass row, so the rows written equal the full inverse's
// value for value. src is consumed.
func (p *Plan2D) inverseReal(dst []float64, src []complex128, scale float64, rows int) {
	hx := p.HalfNx()
	if len(dst) != p.nx*p.ny || len(src) != hx*p.ny {
		panic(fmt.Sprintf("fft: 2D InverseRealTo length mismatch: plan %dx%d, dst %d, src %d",
			p.nx, p.ny, len(dst), len(src)))
	}
	p.checkRows(rows)
	workers := p.workerBound()
	p.colPass(blockFFT, src, hx, p.ny, rows, true, workers)
	p.rowsInverse(dst, src, scale, rows, workers)
}

// CorrelateRealRows computes the circular cross-correlation of the real
// nx×ny array src with a real kernel whose 2D half-spectrum (ForwardReal
// of the kernel zero-padded to nx×ny) is K:
//
//	dst = IRFFT(RFFT(src)·conj(K)),   including the 1/(nx·ny) factor,
//
// reading only src rows [0, inRows) (the rest are taken as zero) and
// writing only dst rows [0, outRows). kHat holds K in the column-block
// layout the column pass reads, as BlockInterleaved returns it.
//
// The column pass is fused: each column block is gathered once and
// runs the forward column transforms, the spectral multiply and the
// inverse column transforms while it is cache-resident, and only the
// rows the final row pass reads are scattered back. The values equal
// the unfused sequence (forward, multiply every bin by conj(K),
// inverse) value for value.
//
// Buffers are row-bounded: src needs only its inRows rows of nx
// samples, dst its outRows rows, and the scratch work max(inRows,
// outRows) rows of HalfNx bins; kHat is the full spectrum.
// Longer buffers are fine, and samples past those rows are neither read
// nor written. dst may alias src, which is fully read before dst is
// written.
func (p *Plan2D) CorrelateRealRows(dst, src []float64, kHat, work []complex128, inRows, outRows int) {
	p.correlateRealRows(blockFFT, dst, src, kHat, work, inRows, outRows)
}

// correlateRealRows is CorrelateRealRows with the column-block kernels
// of k.
func (p *Plan2D) correlateRealRows(k simd.BlockFFT, dst, src []float64, kHat, work []complex128, inRows, outRows int) {
	hx := p.HalfNx()
	if len(src) < inRows*p.nx || len(dst) < outRows*p.nx || len(kHat) != p.blockSpecLen() || len(work) < hx*max(inRows, outRows) {
		panic(fmt.Sprintf("fft: CorrelateRealRows buffers too short: plan %dx%d, rows %d→%d, dst %d, src %d, kHat %d, work %d",
			p.nx, p.ny, inRows, outRows, len(dst), len(src), len(kHat), len(work)))
	}
	p.checkRows(inRows)
	p.checkRows(outRows)
	workers := p.workerBound()
	p.rowsForward(work, src, inRows, workers)
	p.colBlocks(work, hx, inRows, outRows, workers, func(buf []complex128, x0, bw int) {
		kb := kHat[x0*p.ny : (x0+colBlock)*p.ny]
		if p.py.blu != nil {
			p.eachLane(buf, bw, func(col []complex128, b int) {
				p.py.transform(col, col, false)
				for iy := range col {
					t := kb[iy*colBlock+b]
					col[iy] *= complex(real(t), -imag(t))
				}
				p.py.transform(col, col, true)
			})
			return
		}
		k.Stages(buf, p.py.twiddle, false)
		mulConjBitRev(buf, kb, p.py.rev)
		k.Stages(buf, p.py.twidInv, true)
	})
	p.rowsInverse(dst, work, 1/float64(p.nx*p.ny), outRows, workers)
}

// mulConjBitRev multiplies every bin of the block a by the conjugate of
// the matching bin of the kHat block k and stores it at the
// bit-reversed row, a'[rev[r]] = a[r]·conj(k[r]) lane by lane: the
// spectral multiply of a correlation fused with the permutation the
// inverse stages start from. Rows are taken in pairs (r, rev[r]) so the
// permutation runs in place. Each product is the scalar complex128
// x·complex(kr, −ki).
func mulConjBitRev(a, k []complex128, rev []int) {
	row := func(s []complex128, r int) *[colBlock]complex128 {
		return (*[colBlock]complex128)(s[r*colBlock:])
	}
	for r, j := range rev {
		if j < r {
			continue
		}
		x, kx := row(a, r), row(k, r)
		if j == r {
			for b, t := range kx {
				x[b] *= complex(real(t), -imag(t))
			}
			continue
		}
		y, ky := row(a, j), row(k, j)
		for b := range x {
			xr, yr := x[b], y[b]
			tx, ty := kx[b], ky[b]
			y[b] = xr * complex(real(tx), -imag(tx))
			x[b] = yr * complex(real(ty), -imag(ty))
		}
	}
}

// blockSpecLen is the length of a half-spectrum in the column-block
// layout: HalfNx columns rounded up to whole blocks, times ny rows.
func (p *Plan2D) blockSpecLen() int {
	return (p.HalfNx() + colBlock - 1) / colBlock * colBlock * p.ny
}

// BlockInterleaved returns the half-spectrum spec (HalfNx×ny, row-major,
// as ForwardReal writes it) in the column-block layout CorrelateRealRows
// reads: the columns in blocks of 16, each block row-interleaved like
// the column pass's gather buffer, so bin (kx, ky) sits at
// (kx−b)·ny + ky·16 + b with b = kx mod 16. The last block is padded
// with zero columns to the full width.
func (p *Plan2D) BlockInterleaved(spec []complex128) []complex128 {
	hx := p.HalfNx()
	if len(spec) != hx*p.ny {
		panic(fmt.Sprintf("fft: BlockInterleaved length mismatch: plan %dx%d, spec %d", p.nx, p.ny, len(spec)))
	}
	out := make([]complex128, p.blockSpecLen())
	for iy := 0; iy < p.ny; iy++ {
		for kx, v := range spec[iy*hx : (iy+1)*hx] {
			b := kx % colBlock
			out[(kx-b)*p.ny+iy*colBlock+b] = v
		}
	}
	return out
}

// rowsForward runs the real forward transform of src rows [0, rows)
// into the matching half-spectrum rows of dst.
func (p *Plan2D) rowsForward(dst []complex128, src []float64, rows, workers int) {
	hx := p.HalfNx()
	par.For(rows, workers, func(lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			p.px.ForwardReal(dst[iy*hx:(iy+1)*hx], src[iy*p.nx:(iy+1)*p.nx])
		}
	})
}

// rowsInverse runs the scaled real inverse transform of src rows
// [0, rows) into the matching rows of dst.
func (p *Plan2D) rowsInverse(dst []float64, src []complex128, scale float64, rows, workers int) {
	hx := p.HalfNx()
	par.For(rows, workers, func(lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			p.px.inverseReal(dst[iy*p.nx:(iy+1)*p.nx], src[iy*hx:(iy+1)*hx], scale)
		}
	})
}

func (p *Plan2D) checkRows(rows int) {
	if rows < 0 || rows > p.ny {
		panic(fmt.Sprintf("fft: row bound %d outside [0, %d]", rows, p.ny))
	}
}
