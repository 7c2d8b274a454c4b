// Package compiler implements the compiler support of the hybrid memory
// system (paper §2.2 and §2.4): it classifies the memory references of a
// parallel kernel into SPM accesses, GM accesses and potentially incoherent
// (guarded) accesses, and performs the tiling code transformation that turns
// a parallel loop into control / synchronization / work phases driving the
// SPM runtime.
//
// The kernel IR is declarative: a kernel is a parallel loop with a set of
// memory references, each carrying an access pattern and an alias-analysis
// verdict (standing in for the GCC alias report the paper consumes). Code
// generation is lazy — work phases are materialized one loop iteration at a
// time — so multi-million-iteration kernels do not hold their instruction
// streams in memory.
package compiler

import "fmt"

// Pattern is a reference's access pattern.
type Pattern int

const (
	// Strided references sequentially traverse an array section private
	// to each thread — the preferred SPM candidates (paper §2.2).
	Strided Pattern = iota
	// Random references are unpredictable (pointer chasing, indirection).
	Random
	// Stack references hit the core-private stack with high locality
	// (register spilling; dominant in EP).
	Stack
)

func (p Pattern) String() string {
	switch p {
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Stack:
		return "stack"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Class is the compiler's categorization of a reference (paper §2.4).
type Class int

const (
	// ClassSPM references are rewritten to SPM buffers and fed by DMA.
	ClassSPM Class = iota
	// ClassGM references provably never alias SPM contents: normal
	// loads/stores served by the cache hierarchy.
	ClassGM
	// ClassGuarded references may alias SPM contents: the compiler emits
	// guarded memory instructions for the hardware to divert.
	ClassGuarded
)

func (c Class) String() string {
	switch c {
	case ClassSPM:
		return "spm"
	case ClassGM:
		return "gm"
	case ClassGuarded:
		return "guarded"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Array is a named data region. Base addresses are assigned by the workload
// (arena allocation); Size is in bytes.
type Array struct {
	Name string
	Base uint64
	Size int
}

// Ref is one static memory reference inside the kernel loop body.
type Ref struct {
	Name    string
	Array   *Array
	Pattern Pattern
	IsWrite bool

	// Stride is the byte distance between consecutively touched elements
	// of a Strided reference (0 means the dense unit stride of 8 bytes).
	// Non-unit strides wrap column-major once they pass the array's end —
	// the traversal of a matrix transpose — and are never SPM candidates:
	// the runtime's DMA moves contiguous chunks only, so a strided-but-
	// sparse reference streams through the cache hierarchy instead
	// (Classify returns ClassGM).
	Stride int

	// MayAliasSPM is the alias-analysis verdict for Random references:
	// true means the compiler could not prove the reference independent
	// of the SPM-mapped sections, so it must be guarded.
	MayAliasSPM bool

	// HotFraction (Random only) is the probability an access falls in the
	// core's hot window (temporal locality); HotBytes is that window's
	// size. Zero values mean uniform access over the whole array.
	HotFraction float64
	HotBytes    int

	// Every emits the reference once per Every iterations (default 1).
	Every int
}

// every returns the emission period, defaulting to 1.
func (r *Ref) every() int {
	if r.Every <= 0 {
		return 1
	}
	return r.Every
}

// stride returns the byte stride, defaulting to the dense element size.
func (r *Ref) stride() int {
	if r.Stride <= 0 {
		return elemBytes
	}
	return r.Stride
}

// Kernel is one parallel loop (fork-join): Iters iterations distributed
// evenly across cores, each iteration touching every Ref and executing
// ComputeOps ALU operations.
type Kernel struct {
	Name       string
	Iters      int
	ComputeOps int
	Refs       []Ref
}

// Benchmark is a sequence of kernels executed Repeats times (the time-step
// loop of the NAS codes), separated by barriers.
type Benchmark struct {
	Name    string
	Kernels []Kernel
	Repeats int
	Arrays  []*Array
}

// Classify applies §2.4's categorization to a reference.
func Classify(r *Ref) Class {
	switch r.Pattern {
	case Strided:
		if r.stride() > elemBytes {
			// Non-unit strides leave most of each DMA chunk unused, so
			// the compiler keeps them out of the SPMs (see Ref.Stride).
			return ClassGM
		}
		return ClassSPM
	case Stack:
		return ClassGM // provably thread-private, never SPM-mapped
	case Random:
		if r.MayAliasSPM {
			return ClassGuarded
		}
		return ClassGM
	default:
		panic(fmt.Sprintf("compiler: unknown pattern %v", r.Pattern))
	}
}

// Characterization summarizes a benchmark the way Table 2 does.
type Characterization struct {
	Name        string
	Kernels     int
	SPMRefs     int
	SPMBytes    int64
	GuardedRefs int
	GuardBytes  int64
}

// Characterize computes the Table 2 row for a benchmark. Data sizes count
// each array once even when several references traverse it.
func Characterize(b *Benchmark) Characterization {
	c := Characterization{Name: b.Name, Kernels: len(b.Kernels)}
	spmArrays := map[*Array]bool{}
	guardArrays := map[*Array]bool{}
	for ki := range b.Kernels {
		k := &b.Kernels[ki]
		for ri := range k.Refs {
			r := &k.Refs[ri]
			switch Classify(r) {
			case ClassSPM:
				c.SPMRefs++
				if !spmArrays[r.Array] {
					spmArrays[r.Array] = true
					c.SPMBytes += int64(r.Array.Size)
				}
			case ClassGuarded:
				c.GuardedRefs++
				if !guardArrays[r.Array] {
					guardArrays[r.Array] = true
					c.GuardBytes += int64(r.Array.Size)
				}
			}
		}
	}
	return c
}
