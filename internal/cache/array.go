// Package cache provides the building blocks of the cache hierarchy:
// set-associative arrays with tree-pseudoLRU replacement, miss status holding
// registers (MSHRs), and a per-PC stride prefetcher. The coherence package
// composes these into L1 caches and L2 NUCA slices.
package cache

import (
	"fmt"
	"math/bits"
)

// Invalid is the reserved line state meaning "not present". Protocol
// packages layer their own states on top (any non-zero value).
const Invalid int8 = 0

// Line is one cache line's metadata. Tag stores the full line address
// (address >> log2(lineSize)); sets are selected by the low tag bits, so
// storing the whole line address keeps reverse mapping trivial.
type Line struct {
	Tag   uint64
	State int8
	Dirty bool
}

// Valid reports whether the line holds data.
func (l *Line) Valid() bool { return l.State != Invalid }

// Array is a set-associative cache array with tree-pseudoLRU replacement.
type Array struct {
	sets  int
	bits  uint // log2(sets)
	ways  int
	lines []Line   // sets*ways, row-major by set
	plru  []uint64 // one tree-bit word per set

	hits, misses, evictions uint64
}

// NewArray builds an array of sizeBytes capacity with the given
// associativity and line size. The set count must be a power of two and
// ways must be in [1, 64].
func NewArray(sizeBytes, ways, lineSize int) *Array {
	if ways <= 0 || ways > 64 {
		panic(fmt.Sprintf("cache: ways %d out of range", ways))
	}
	sets := sizeBytes / (ways * lineSize)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two (size=%d ways=%d line=%d)",
			sets, sizeBytes, ways, lineSize))
	}
	return &Array{
		sets:  sets,
		bits:  uint(bits.TrailingZeros(uint(sets))),
		ways:  ways,
		lines: make([]Line, sets*ways),
		plru:  make([]uint64, sets),
	}
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// SetOf maps a line address to its set index. The index XOR-folds upper
// address bits so large-aligned arrays (the workload arena aligns to the SPM
// size) do not pathologically collide — real allocations carry random page
// offsets that real caches benefit from; the fold stands in for that.
func (a *Array) SetOf(lineAddr uint64) int {
	h := lineAddr ^ (lineAddr >> a.bits) ^ (lineAddr >> (2 * a.bits))
	return int(h & uint64(a.sets-1))
}

// Lookup finds a valid line by line address. When touch is set a hit also
// refreshes the pseudoLRU state. Returns nil on miss. Hit/miss counters are
// updated; use Peek for statistics-neutral inspection.
func (a *Array) Lookup(lineAddr uint64, touch bool) *Line {
	set := a.SetOf(lineAddr)
	base := set * a.ways
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if l.Valid() && l.Tag == lineAddr {
			a.hits++
			if touch {
				a.touch(set, w)
			}
			return l
		}
	}
	a.misses++
	return nil
}

// Peek is Lookup without statistics or LRU side effects.
func (a *Array) Peek(lineAddr uint64) *Line {
	base := a.SetOf(lineAddr) * a.ways
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if l.Valid() && l.Tag == lineAddr {
			return l
		}
	}
	return nil
}

// EachValid calls fn on every valid line, in storage order, without
// statistics or LRU side effects.
func (a *Array) EachValid(fn func(l *Line)) {
	for i := range a.lines {
		if a.lines[i].Valid() {
			fn(&a.lines[i])
		}
	}
}

// Insert allocates a line for lineAddr with the given state, evicting the
// pseudoLRU victim if the set is full. It returns the new line and, when an
// eviction occurred, the victim's metadata (its line address is victim.Tag).
// Inserting an address that is already present is a protocol bug and panics.
func (a *Array) Insert(lineAddr uint64, state int8) (inserted *Line, victim Line, evicted bool) {
	if a.Peek(lineAddr) != nil {
		panic(fmt.Sprintf("cache: double insert of line %#x", lineAddr))
	}
	set := a.SetOf(lineAddr)
	base := set * a.ways

	way := -1
	for w := 0; w < a.ways; w++ {
		if !a.lines[base+w].Valid() {
			way = w
			break
		}
	}
	if way < 0 {
		way = a.victimWay(set)
		victim = a.lines[base+way]
		evicted = true
		a.evictions++
	}
	a.lines[base+way] = Line{Tag: lineAddr, State: state}
	a.touch(set, way)
	return &a.lines[base+way], victim, evicted
}

// Invalidate removes a line if present, returning its prior metadata.
func (a *Array) Invalidate(lineAddr uint64) (old Line, ok bool) {
	base := a.SetOf(lineAddr) * a.ways
	for w := 0; w < a.ways; w++ {
		l := &a.lines[base+w]
		if l.Valid() && l.Tag == lineAddr {
			old = *l
			*l = Line{}
			return old, true
		}
	}
	return Line{}, false
}

// touch marks way as most recently used within set by flipping the tree
// bits along the root-to-leaf path away from it.
func (a *Array) touch(set, way int) {
	bits := a.plru[set]
	node := 0 // root of the implicit tree, nodes numbered 0..ways-2
	lo, hi := 0, a.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if way < mid {
			bits |= 1 << uint(node) // point away: toward upper half
			node = 2*node + 1
			hi = mid
		} else {
			bits &^= 1 << uint(node) // point away: toward lower half
			node = 2*node + 2
			lo = mid
		}
	}
	a.plru[set] = bits
}

// victimWay walks the tree bits toward the pseudo-least-recently-used way.
func (a *Array) victimWay(set int) int {
	bits := a.plru[set]
	node := 0
	lo, hi := 0, a.ways
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if bits&(1<<uint(node)) != 0 { // bit set: victim in upper half
			node = 2*node + 2
			lo = mid
		} else { // bit clear: victim in lower half
			node = 2*node + 1
			hi = mid
		}
	}
	return lo
}

// Hits returns the lookup hit count.
func (a *Array) Hits() uint64 { return a.hits }

// Misses returns the lookup miss count.
func (a *Array) Misses() uint64 { return a.misses }

// Evictions returns the count of valid lines displaced by Insert.
func (a *Array) Evictions() uint64 { return a.evictions }

// ValidCount returns how many lines are currently valid (O(capacity); for
// tests and debugging).
func (a *Array) ValidCount() int {
	n := 0
	for i := range a.lines {
		if a.lines[i].Valid() {
			n++
		}
	}
	return n
}
