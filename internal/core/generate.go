package core

import (
	"fmt"

	"roughsurface/internal/convgen"
	"roughsurface/internal/dftgen"
	"roughsurface/internal/grid"
	"roughsurface/internal/inhomo"
	"roughsurface/internal/rng"
)

// Result bundles a generated surface with the assembled machinery, so
// callers can generate further windows (tiling, streaming) or inspect
// blend weights without re-deriving kernels.
type Result struct {
	Surface *grid.Grid
	// Inhomo is non-nil for plate/point scenes.
	Inhomo *inhomo.Generator
	// Conv is non-nil for homogeneous convolution scenes.
	Conv *convgen.Generator
	// KernelSizes reports the (possibly truncated) kernel extents per
	// component, for cost reporting.
	KernelSizes [][2]int
}

// Generate assembles and runs the scene, returning the surface centered
// on the origin. The dft generator synthesizes its grid directly; every
// other scene renders through its Components.
func Generate(sc Scene) (*Result, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := sc.normalized()
	if s.Method == MethodHomogeneous && s.Generator == GeneratorDFT {
		spec, err := s.Spectrum.Build()
		if err != nil {
			return nil, err
		}
		gen, err := dftgen.New(spec, s.Nx, s.Ny, s.Dx, s.Dy)
		if err != nil {
			return nil, err
		}
		return &Result{Surface: gen.Generate(rng.NewGaussian(s.Seed))}, nil
	}
	comp, err := s.Components()
	if err != nil {
		return nil, err
	}
	res := &Result{KernelSizes: comp.KernelSizes}
	if comp.Blender == nil {
		res.Conv = convgen.NewGenerator(comp.Kernels[0], s.Seed)
		res.Surface = res.Conv.GenerateCentered(s.Nx, s.Ny)
		return res, nil
	}
	if res.Inhomo, err = inhomo.NewGenerator(comp.Kernels, comp.Blender, s.Seed); err != nil {
		return nil, err
	}
	res.Surface = res.Inhomo.GenerateCentered(s.Nx, s.Ny)
	return res, nil
}

// MustGenerate is Generate that panics on error, for validated presets.
func MustGenerate(sc Scene) *Result {
	r, err := Generate(sc)
	if err != nil {
		panic(err)
	}
	return r
}

// Components is the scene's generation machinery without a materialized
// surface: the designed convolution kernels plus, for plate/point
// scenes, the blender that mixes them. It is the window-server entry
// point — a caller holding Components can pair the kernels with
// convgen/inhomo generators (any seed) and render arbitrary windows of
// the same deterministic surface on demand, amortizing kernel design
// across requests.
type Components struct {
	// Kernels holds one designed kernel per component (exactly one for
	// homogeneous scenes).
	Kernels []*convgen.Kernel
	// Blender is non-nil for plate/point scenes.
	Blender inhomo.Blender
	// KernelSizes reports the (possibly truncated) kernel extents per
	// component, for cost reporting.
	KernelSizes [][2]int
}

// Components validates the scene and designs its kernels (and blender)
// without generating samples. Scenes with the dft generator have no
// windowed form — the direct spectral method synthesizes one periodic
// grid, not an unbounded surface — so they are rejected here even
// though Generate accepts them.
func (sc Scene) Components() (*Components, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	s := sc.normalized()
	switch s.Method {
	case MethodHomogeneous:
		if s.Generator == GeneratorDFT {
			return nil, fmt.Errorf("core: generator: dft has no windowed components (one periodic grid, not an unbounded surface); use conv")
		}
		k, err := s.designKernel(*s.Spectrum)
		if err != nil {
			return nil, err
		}
		return &Components{
			Kernels:     []*convgen.Kernel{k},
			KernelSizes: [][2]int{{k.Nx, k.Ny}},
		}, nil
	case MethodPlate:
		return s.plateComponents()
	case MethodPoint:
		return s.pointComponents()
	}
	panic("unreachable: Validate accepted unknown method")
}

func (sc Scene) designKernel(spec SpectrumSpec) (*convgen.Kernel, error) {
	s, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if sc.ExactVariance {
		return convgen.DesignExact(s, sc.Dx, sc.Dy, sc.KernelSpanCL, sc.KernelEps)
	}
	return convgen.Design(s, sc.Dx, sc.Dy, sc.KernelSpanCL, sc.KernelEps)
}

func (sc Scene) plateComponents() (*Components, error) {
	regions := make([]inhomo.Region, len(sc.Regions))
	kernels := make([]*convgen.Kernel, len(sc.Regions))
	sizes := make([][2]int, len(sc.Regions))
	for i, rs := range sc.Regions {
		r, err := rs.buildRegion()
		if err != nil {
			return nil, fmt.Errorf("regions[%d]: %w", i, err)
		}
		regions[i] = r
		k, err := sc.designKernel(rs.Spectrum)
		if err != nil {
			return nil, fmt.Errorf("regions[%d]: %w", i, err)
		}
		kernels[i] = k
		sizes[i] = [2]int{k.Nx, k.Ny}
	}
	blender, err := inhomo.NewPlateBlender(regions)
	if err != nil {
		return nil, err
	}
	return &Components{Kernels: kernels, Blender: blender, KernelSizes: sizes}, nil
}

func (sc Scene) pointComponents() (*Components, error) {
	// Deduplicate identical spectra into shared components, so the ten
	// points of Fig. 4 need only four kernels.
	index := map[string]int{}
	var kernels []*convgen.Kernel
	var sizes [][2]int
	points := make([]inhomo.Point, len(sc.Points))
	for i, ps := range sc.Points {
		key := ps.Spectrum.key()
		comp, ok := index[key]
		if !ok {
			k, err := sc.designKernel(ps.Spectrum)
			if err != nil {
				return nil, fmt.Errorf("points[%d]: %w", i, err)
			}
			comp = len(kernels)
			index[key] = comp
			kernels = append(kernels, k)
			sizes = append(sizes, [2]int{k.Nx, k.Ny})
		}
		points[i] = inhomo.Point{X: ps.X, Y: ps.Y, Component: comp}
	}
	blender, err := inhomo.NewPointBlender(points, sc.TransitionT, len(kernels))
	if err != nil {
		return nil, err
	}
	return &Components{Kernels: kernels, Blender: blender, KernelSizes: sizes}, nil
}
