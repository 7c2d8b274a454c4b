// Package noc models the on-chip interconnect: a 2D mesh of routers with XY
// dimension-order routing, one-cycle routers and links (Table 1), packet
// serialization into link-width flits, and per-link bandwidth contention.
//
// A packet reserves its whole XY route when it is injected, so links are
// held in injection order rather than in the order packets reach them, and
// a K-hop packet costs one engine event, its delivery (DESIGN.md §2).
//
// Every message carries a traffic Category so the harness can reproduce the
// paper's Figure 10 breakdown (Ifetch / Read / Write / WB-Repl / DMA /
// CohProt).
package noc

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Category classifies NoC traffic for accounting (paper Fig. 10).
type Category int

const (
	// Ifetch is instruction-fetch traffic.
	Ifetch Category = iota
	// Read is data-cache read traffic: requests, data and acks.
	Read
	// Write is data-cache write traffic, including prefetches.
	Write
	// WBRepl is write-back/replacement/invalidation traffic.
	WBRepl
	// DMA is scratchpad DMA transfer traffic.
	DMA
	// CohProt is traffic added by the paper's SPM coherence protocol.
	CohProt

	// NumCategories is the number of traffic categories.
	NumCategories
)

var categoryNames = [NumCategories]string{"Ifetch", "Read", "Write", "WB-Repl", "DMA", "CohProt"}

func (c Category) String() string {
	if c < 0 || c >= NumCategories {
		return fmt.Sprintf("Category(%d)", int(c))
	}
	return categoryNames[c]
}

// direction indexes the four outgoing links of a router.
type direction int

const (
	east direction = iota
	west
	north
	south
	numDirs
)

// Mesh is the interconnect. Nodes are numbered row-major: node id = y*W + x.
type Mesh struct {
	eng       *sim.Engine
	w, h      int
	flitBytes int
	linkBW    int // flits per cycle per link
	linkLat   sim.Time
	routerLat sim.Time

	// linkFree[node][dir] is the first cycle the link leaving node in
	// direction dir is available.
	linkFree [][numDirs]sim.Time
	// xy[node] is the node's (column, row), precomputed so routing does
	// no division per hop.
	xy []coord

	pkts     [NumCategories]uint64
	flits    [NumCategories]uint64
	flitHops [NumCategories]uint64
	latency  stats.Dist

	// tr, when set, records every injection as a telemetry event. Nil on
	// untraced runs: one pointer check per send, nothing else.
	tr *telemetry.Trace
}

// SetTrace enables event tracing on the mesh.
func (m *Mesh) SetTrace(tr *telemetry.Trace) { m.tr = tr }

// New builds a W×H mesh on the engine. flitBytes is the link width;
// linkLat/routerLat are per-hop latencies in cycles. Links accept one flit
// per cycle; use NewBW for multi-flit (virtual-channel style) links.
func New(eng *sim.Engine, w, h, flitBytes, linkLat, routerLat int) *Mesh {
	return NewBW(eng, w, h, flitBytes, 1, linkLat, routerLat)
}

// NewBW builds a mesh whose links accept linkBW flits per cycle.
func NewBW(eng *sim.Engine, w, h, flitBytes, linkBW, linkLat, routerLat int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", w, h))
	}
	if flitBytes <= 0 || linkBW <= 0 {
		panic("noc: flitBytes and linkBW must be positive")
	}
	xy := make([]coord, w*h)
	for n := range xy {
		xy[n] = coord{x: int32(n % w), y: int32(n / w)}
	}
	return &Mesh{
		eng:       eng,
		w:         w,
		h:         h,
		flitBytes: flitBytes,
		linkBW:    linkBW,
		linkLat:   sim.Time(linkLat),
		routerLat: sim.Time(routerLat),
		linkFree:  make([][numDirs]sim.Time, w*h),
		xy:        xy,
	}
}

// coord is a node's mesh position.
type coord struct{ x, y int32 }

// occupancy returns the cycles a packet of flits holds one link.
func (m *Mesh) occupancy(flits int) sim.Time {
	return sim.Time((flits + m.linkBW - 1) / m.linkBW)
}

// Nodes returns the number of mesh nodes.
func (m *Mesh) Nodes() int { return m.w * m.h }

// Flits returns how many flits a payload of n bytes occupies (minimum 1: the
// head flit carries the address/command).
func (m *Mesh) Flits(n int) int {
	if n <= 0 {
		return 1
	}
	return (n + m.flitBytes - 1) / m.flitBytes
}

// Hops returns the XY-routing hop count between two nodes.
func (m *Mesh) Hops(src, dst int) int {
	s, d := m.xy[src], m.xy[dst]
	return abs(int(s.x-d.x)) + abs(int(s.y-d.y))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Send injects a packet of size bytes from src to dst and invokes deliver at
// the destination once the head flit arrives and the tail flit has been
// serialized. Contention is modelled by per-link bandwidth reservation: a
// packet of F flits occupies each traversed link for F cycles.
func (m *Mesh) Send(src, dst, bytes int, cat Category, deliver func()) {
	m.SendCont(src, dst, bytes, cat, sim.AsCont(deliver))
}

// SendCont is Send for pooled continuations. The whole route is reserved at
// injection, so the packet costs one engine event: its delivery.
func (m *Mesh) SendCont(src, dst, bytes int, cat Category, deliver sim.Cont) {
	if src < 0 || src >= m.Nodes() || dst < 0 || dst >= m.Nodes() {
		panic(fmt.Sprintf("noc: send %d->%d outside %d-node mesh", src, dst, m.Nodes()))
	}
	if deliver == nil {
		deliver = sim.Nop
	}
	flits := m.Flits(bytes)
	m.pkts[cat]++
	m.flits[cat] += uint64(flits)
	m.flitHops[cat] += uint64(flits * m.Hops(src, dst))
	if m.tr != nil {
		m.tr.Add(telemetry.KNoCSend, src, 0, uint64(dst), uint64(bytes)<<4|uint64(cat))
	}
	now := m.eng.Now()
	at := m.route(src, dst, flits, now)
	m.latency.Observe(uint64(at - now))
	m.eng.AtCont(at, deliver)
}

// route reserves every link of the XY route from src to dst for a packet of
// flits injected at cycle t, in injection order, and returns the cycle the
// packet is delivered. Each link is taken at max(arrival, linkFree) and held
// for the packet's occupancy; the head then pays one router and one link
// traversal. Tail serialization is charged once, at the last hop:
// intermediate hops pipeline flits. Local delivery pays the router only.
func (m *Mesh) route(src, dst, flits int, t sim.Time) sim.Time {
	if src == dst {
		return t + m.routerLat
	}
	occ := m.occupancy(flits)
	for cur := src; cur != dst; {
		next, dir := m.xyNext(cur, dst)
		free := &m.linkFree[cur][dir]
		t = max(t, *free)
		*free = t + occ
		t += m.routerLat + m.linkLat
		cur = next
	}
	return t + occ - 1
}

// xyNext returns the neighbour on the XY route toward dst and the link
// direction used to reach it.
func (m *Mesh) xyNext(cur, dst int) (int, direction) {
	c, d := m.xy[cur], m.xy[dst]
	switch {
	case c.x < d.x:
		return cur + 1, east
	case c.x > d.x:
		return cur - 1, west
	case c.y < d.y:
		return cur + m.w, south
	case c.y > d.y:
		return cur - m.w, north
	default:
		panic("noc: xyNext called with cur == dst")
	}
}

// Packets returns the packet count for one category.
func (m *Mesh) Packets(cat Category) uint64 { return m.pkts[cat] }

// TotalPackets sums packets across all categories.
func (m *Mesh) TotalPackets() uint64 {
	var t uint64
	for _, v := range m.pkts {
		t += v
	}
	return t
}

// FlitHops returns flit·hop work for one category; this is the quantity the
// energy model charges per-link traversal energy on.
func (m *Mesh) FlitHops(cat Category) uint64 { return m.flitHops[cat] }

// TotalFlitHops sums flit-hops across all categories.
func (m *Mesh) TotalFlitHops() uint64 {
	var t uint64
	for _, v := range m.flitHops {
		t += v
	}
	return t
}

// Latency returns the packet latency distribution observed so far.
func (m *Mesh) Latency() stats.Dist { return m.latency }

// String renders every traffic counter, zeros included, under a "noc:"
// header: one per line, sorted by name, in the stats.Counters layout.
func (m *Mesh) String() string {
	type row struct {
		name string
		v    uint64
	}
	rows := make([]row, 0, 3*NumCategories)
	for c := Category(0); c < NumCategories; c++ {
		rows = append(rows,
			row{"pkts." + c.String(), m.pkts[c]},
			row{"flits." + c.String(), m.flits[c]},
			row{"flithops." + c.String(), m.flitHops[c]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var b strings.Builder
	b.WriteString("noc:\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-32s %12d\n", r.name, r.v)
	}
	return b.String()
}
