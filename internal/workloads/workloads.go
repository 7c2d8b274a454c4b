// Package workloads is the registry of named, parameterized benchmark
// generators over the compiler IR (see registry.go).
//
// The six NAS-derived kernels of the paper's evaluation (Table 2, this
// file) are parameterless entries; each reproduces its original's
// signature: kernel count, number of strided (SPM) and potentially
// incoherent (guarded) references, relative data-set sizes, disjointness of
// the SPM- and guarded-accessed data, and access locality. Footprints are
// scaled down from Table 2 so simulations finish in seconds (see DESIGN.md
// §2 and §5); the Scale type controls how much.
//
// The synthetic generators (synthetic.go) open the rest of the access-
// pattern space with typed parameters: streaming triad, stencil, pointer
// chase, matrix transpose, reduction tree, and GUPS-style random access.
package workloads

import (
	"encoding/json"
	"fmt"

	"repro/internal/compiler"
)

// Scale selects the footprint scaling.
type Scale int

const (
	// Tiny is for unit tests and testing.B benchmarks: runs in
	// milliseconds on a few cores.
	Tiny Scale = iota
	// Small is the default experiment scale: Table 2 shapes at roughly
	// 1/12th the footprint, minutes for the full suite.
	Small
)

func (s Scale) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// div returns n scaled down for the tiny configuration (floor at 'min').
func (s Scale) div(n, min int) int {
	if s == Tiny {
		n /= 16
	}
	if n < min {
		n = min
	}
	return n
}

// ParseScale maps a scale name (as used by command-line flags) to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	default:
		return 0, fmt.Errorf("workloads: unknown scale %q (want tiny or small)", name)
	}
}

// MarshalJSON encodes the scale by its stable name, keeping spec JSON
// readable and robust against enum reordering.
func (s Scale) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the names MarshalJSON produces. A name quoted
// plainly, as MarshalJSON writes it, is matched in place, without a decode.
func (s *Scale) UnmarshalJSON(b []byte) error {
	for _, sc := range []Scale{Tiny, Small} {
		if n := len(b); n >= 2 && b[0] == '"' && b[n-1] == '"' && string(b[1:n-1]) == sc.String() {
			*s = sc
			return nil
		}
	}
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	sc, err := ParseScale(name)
	if err != nil {
		return err
	}
	*s = sc
	return nil
}

// Build constructs one benchmark at the given scale with default
// parameters. It panics on unknown names — the registry-aware paths
// (BuildSpec, system.Spec.Validate) reject those with errors first.
func Build(name string, sc Scale) *compiler.Benchmark {
	b, err := BuildSpec(name, nil, sc)
	if err != nil {
		panic(fmt.Sprintf("workloads: %v", err))
	}
	return b
}

// All builds every registered workload at its default parameters.
func All(sc Scale) []*compiler.Benchmark {
	var out []*compiler.Benchmark
	for _, n := range Names() {
		out = append(out, Build(n, sc))
	}
	return out
}

// arena hands out SPM-size-aligned array base addresses so DMA chunk bases
// never straddle arrays.
type arena struct {
	next uint64
}

const arenaAlign = 32 << 10

func newArena() *arena { return &arena{next: 0x1000_0000} }

func (a *arena) alloc(name string, size int) *compiler.Array {
	if size <= 0 {
		panic("workloads: zero-size array")
	}
	aligned := (uint64(size) + arenaAlign - 1) &^ (arenaAlign - 1)
	arr := &compiler.Array{Name: name, Base: a.next, Size: size}
	a.next += aligned
	return arr
}

// stridedRefs allocates n per-reference array sections of iters elements and
// returns strided refs, the first nStores of them writes.
func stridedRefs(a *arena, prefix string, n, nStores, iters int) ([]compiler.Ref, []*compiler.Array) {
	var refs []compiler.Ref
	var arrs []*compiler.Array
	for i := 0; i < n; i++ {
		arr := a.alloc(fmt.Sprintf("%s%d", prefix, i), iters*8)
		arrs = append(arrs, arr)
		refs = append(refs, compiler.Ref{
			Name:    arr.Name,
			Array:   arr,
			Pattern: compiler.Strided,
			IsWrite: i < nStores,
		})
	}
	return refs, arrs
}

// buildCG is the conjugate-gradient sparse matrix-vector product: few strided
// references over a big input, one guarded indirect load (x[col[j]]) over a
// much smaller vector with strong temporal locality (Table 2: 5 SPM refs /
// 109 MB, 1 guarded ref / 600 KB).
func buildCG(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(262144, 2048)
	// Dynamic mix of a real spmv: two dense per-nonzero streams (values
	// and column indices), three sparse per-row sections (row pointers,
	// p vector reads, q accumulator stores) touched every 8th iteration.
	val := a.alloc("cg_val", iters*8)
	col := a.alloc("cg_col", iters*8)
	rowp := a.alloc("cg_rowptr", iters)
	pvec := a.alloc("cg_p", iters)
	qvec := a.alloc("cg_q", iters)
	x := a.alloc("cg_x", sc.div(256<<10, 16<<10))
	refs := []compiler.Ref{
		{Name: "val", Array: val, Pattern: compiler.Strided},
		{Name: "col", Array: col, Pattern: compiler.Strided},
		{Name: "rowptr", Array: rowp, Pattern: compiler.Strided, Every: 8},
		{Name: "p", Array: pvec, Pattern: compiler.Strided, Every: 8},
		{Name: "q", Array: qvec, Pattern: compiler.Strided, IsWrite: true, Every: 8},
		{Name: "x", Array: x, Pattern: compiler.Random, MayAliasSPM: true,
			HotFraction: 0.93, HotBytes: 8 << 10},
	}
	arrs := []*compiler.Array{val, col, rowp, pvec, qvec}
	return &compiler.Benchmark{
		Name:    "CG",
		Repeats: 2,
		Arrays:  append(arrs, x),
		Kernels: []compiler.Kernel{{
			Name: "spmv", Iters: iters, ComputeOps: 20, Refs: refs,
		}},
	}
}

// buildEP is the embarrassingly-parallel kernel: tiny data sets, heavy
// computation, and register spilling that makes the stack dominate memory
// traffic (Table 2: 3 SPM refs / 1 MB, 1 guarded ref / 512 KB).
func buildEP(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(32768, 2048)
	k1refs, arrs1 := stridedRefs(a, "ep_a", 2, 1, iters)
	k2refs, arrs2 := stridedRefs(a, "ep_b", 1, 0, iters)
	table := a.alloc("ep_tab", sc.div(512<<10, 16<<10))
	stack := func(n string, w bool) compiler.Ref {
		return compiler.Ref{Name: n, Pattern: compiler.Stack, IsWrite: w}
	}
	k1 := compiler.Kernel{
		Name: "gauss", Iters: iters, ComputeOps: 28,
		Refs: append(k1refs, stack("sp0", false), stack("sp1", true),
			stack("sp2", false), stack("sp3", true)),
	}
	k2 := compiler.Kernel{
		Name: "tally", Iters: iters, ComputeOps: 24,
		Refs: append(k2refs,
			compiler.Ref{Name: "tab", Array: table, Pattern: compiler.Random,
				MayAliasSPM: true, HotFraction: 0.98, HotBytes: 8 << 10, Every: 4},
			stack("sp4", false), stack("sp5", true)),
	}
	return &compiler.Benchmark{
		Name:    "EP",
		Repeats: 1,
		Arrays:  append(append(arrs1, arrs2...), table),
		Kernels: []compiler.Kernel{k1, k2},
	}
}

// buildFT is the 3-D FFT: five stride-heavy kernels over a large input with
// a few guarded twiddle/transpose accesses (Table 2: 32 SPM refs / 269 MB,
// 4 guarded refs / 1 MB).
func buildFT(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(16384, 1024)
	shapes := []struct {
		refs, stores int
		guarded      bool
		compute      int
	}{
		{6, 2, true, 24},
		{7, 3, true, 24},
		{6, 2, true, 30},
		{7, 3, true, 24},
		{6, 2, false, 18},
	}
	var kernels []compiler.Kernel
	var arrays []*compiler.Array
	for ki, sh := range shapes {
		refs, arrs := stridedRefs(a, fmt.Sprintf("ft_k%d_", ki), sh.refs, sh.stores, iters)
		arrays = append(arrays, arrs...)
		if sh.guarded {
			tw := a.alloc(fmt.Sprintf("ft_tw%d", ki), sc.div(64<<10, 8<<10))
			arrays = append(arrays, tw)
			refs = append(refs, compiler.Ref{
				Name: "tw", Array: tw, Pattern: compiler.Random, MayAliasSPM: true,
				HotFraction: 0.95, HotBytes: 8 << 10, Every: 2,
			})
		}
		kernels = append(kernels, compiler.Kernel{
			Name:  fmt.Sprintf("fft%d", ki),
			Iters: iters, ComputeOps: sh.compute, Refs: refs,
		})
	}
	return &compiler.Benchmark{Name: "FT", Repeats: 2, Arrays: arrays, Kernels: kernels}
}

// buildIS is the integer bucket sort: strided key streams plus two guarded
// histogram accesses (load + store) over a larger shared region with weaker
// locality — the benchmark with the lowest filter hit ratio (Table 2:
// 3 SPM refs / 67 MB, 2 guarded refs / 2 MB).
func buildIS(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(524288, 4096)
	refs, arrs := stridedRefs(a, "is_k", 3, 1, iters)
	hist := a.alloc("is_hist", sc.div(512<<10, 32<<10))
	refs = append(refs,
		compiler.Ref{Name: "hist_ld", Array: hist, Pattern: compiler.Random,
			MayAliasSPM: true, HotFraction: 0.85, HotBytes: 8 << 10},
		compiler.Ref{Name: "hist_st", Array: hist, Pattern: compiler.Random,
			MayAliasSPM: true, IsWrite: true, HotFraction: 0.85, HotBytes: 8 << 10})
	return &compiler.Benchmark{
		Name:    "IS",
		Repeats: 2,
		Arrays:  append(arrs, hist),
		Kernels: []compiler.Kernel{{
			Name: "rank", Iters: iters, ComputeOps: 16, Refs: refs,
		}},
	}
}

// buildMG is the multigrid stencil: many strided references over a big grid
// hierarchy, with a handful of guarded accesses to a tiny boundary
// descriptor (Table 2: 59 SPM refs / 454 MB, 6 guarded refs / 64 B).
func buildMG(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(16384, 1024)
	bound := a.alloc("mg_bound", 64)
	counts := []int{20, 19, 20} // 59 strided refs across 3 kernels
	var kernels []compiler.Kernel
	arrays := []*compiler.Array{bound}
	for ki, n := range counts {
		refs, arrs := stridedRefs(a, fmt.Sprintf("mg_k%d_", ki), n, n/3, iters)
		arrays = append(arrays, arrs...)
		for g := 0; g < 2; g++ { // 6 guarded refs total
			refs = append(refs, compiler.Ref{
				Name: fmt.Sprintf("bnd%d", g), Array: bound,
				Pattern: compiler.Random, MayAliasSPM: true,
				IsWrite: g == 1, Every: 16,
			})
		}
		kernels = append(kernels, compiler.Kernel{
			Name:  fmt.Sprintf("mg%d", ki),
			Iters: iters, ComputeOps: 36, Refs: refs,
		})
	}
	return &compiler.Benchmark{Name: "MG", Repeats: 2, Arrays: arrays, Kernels: kernels}
}

// buildSP is the scalar pentadiagonal solver: 54 kernels whose 497 strided
// references traverse a small input set; no guarded accesses at all, so the
// protocol's filters stay idle/gated (Table 2: 497 SPM refs / 2 MB, 0
// guarded refs).
func buildSP(sc Scale) *compiler.Benchmark {
	a := newArena()
	iters := sc.div(8192, 1024)
	// Each kernel streams its own array sections. (The real SP reuses a
	// small set of working vectors, but its non-hashed 4-way L1 conflict-
	// thrashes on them — the paper's stated baseline behaviour. Our cache
	// model hashes set indices, so we recreate the baseline's streaming
	// misses by keeping per-kernel sections distinct; see DESIGN.md §2.)
	var arrs []*compiler.Array
	const totalRefs = 497
	const numKernels = 54
	var kernels []compiler.Kernel
	emitted := 0
	for ki := 0; ki < numKernels; ki++ {
		n := totalRefs / numKernels
		if ki < totalRefs%numKernels {
			n++
		}
		var refs []compiler.Ref
		for r := 0; r < n; r++ {
			arr := a.alloc(fmt.Sprintf("sp_k%d_v%d", ki, r), iters*8)
			arrs = append(arrs, arr)
			refs = append(refs, compiler.Ref{
				Name:    arr.Name,
				Array:   arr,
				Pattern: compiler.Strided,
				IsWrite: r == 0, // one written vector per kernel
			})
		}
		emitted += n
		kernels = append(kernels, compiler.Kernel{
			Name:  fmt.Sprintf("sp%d", ki),
			Iters: iters, ComputeOps: 30, Refs: refs,
		})
	}
	if emitted != totalRefs {
		panic("workloads: SP ref count drifted")
	}
	return &compiler.Benchmark{Name: "SP", Repeats: 2, Arrays: arrs, Kernels: kernels}
}
