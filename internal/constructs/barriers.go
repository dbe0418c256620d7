package constructs

import (
	"fmt"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
)

// CentralBarrier is the sense-reversing centralized barrier of figure 3:
// arrivals fetch_and_decrement a shared counter; the last arrival resets
// it and toggles the shared sense flag the others spin on. The counter
// and the sense flag live on separate blocks at node 0 so the decrement
// traffic does not false-share with the spin.
type CentralBarrier struct {
	count      machine.Addr
	sense      machine.Addr
	procs      int
	localSense [64]uint32
	lat        *metrics.Histogram
}

// NewCentralBarrier allocates a centralized barrier for all processors.
func NewCentralBarrier(m *machine.Machine, name string) *CentralBarrier {
	m.MarkConstruct(name)
	b := &CentralBarrier{
		count: m.Alloc(name+".count", 4, 0),
		sense: m.Alloc(name+".sense", 4, 0),
		procs: m.Procs(),
		lat:   m.MetricsHistogram(HistBarrierEpisode),
	}
	m.Poke(b.count, uint32(m.Procs()))
	for i := range b.localSense {
		b.localSense[i] = 1
	}
	return b
}

// DisseminationBarrier is the barrier of figure 4: ceil(log2 P) rounds in
// which processor i signals processor (i + 2^k) mod P, with two parity
// sets of flags to keep consecutive episodes from interfering. Every
// flag is padded to its own cache block homed at the processor that
// spins on it, so each flag block has exactly one writer (the unique
// round-k signaler) and one reader — the placement behind the paper's
// observation that the dissemination barrier generates no useless update
// traffic under the update-based protocols.
type DisseminationBarrier struct {
	procs  int
	rounds int
	flags  [64]machine.Addr // per-processor flag area (one block per flag)
	parity [64]int
	sense  [64]uint32
	lat    *metrics.Histogram
}

// NewDisseminationBarrier allocates a dissemination barrier.
func NewDisseminationBarrier(m *machine.Machine, name string) *DisseminationBarrier {
	m.MarkConstruct(name)
	b := &DisseminationBarrier{procs: m.Procs(), rounds: ceilLog2(m.Procs())}
	b.lat = m.MetricsHistogram(HistBarrierEpisode)
	for i := 0; i < m.Procs(); i++ {
		// 2 parities x up to 6 rounds, one block each.
		b.flags[i] = m.Alloc(fmt.Sprintf("%s.flags%d", name, i), 64*2*6, i)
	}
	for i := range b.sense {
		b.sense[i] = 1
	}
	return b
}

// flagAddr returns allnodes[node].myflags[parity][round] (block-padded).
func (b *DisseminationBarrier) flagAddr(node, parity, round int) machine.Addr {
	return b.flags[node] + machine.Addr(64*(parity*6+round))
}

// TreeBarrier is the 4-ary arrival-tree barrier of figure 5 (Mellor-
// Crummey & Scott): each processor waits for its (up to four) children's
// not-ready flags to clear, clears its slot in its parent's flags, and —
// except for the root — spins on a global sense flag the root toggles.
//
// Each child-not-ready flag is padded to its own cache block homed at
// the waiting (parent) processor, so every flag block has exactly one
// writer (the child) and one spinner (the parent); the parent waits for
// its children one flag at a time. This is the update-friendly layout
// behind the paper's observation that the tree barrier, like the
// dissemination barrier, generates essentially no useless update traffic
// under PU and CU. The global sense flag lives on its own block at
// node 0.
type TreeBarrier struct {
	procs       int
	nodes       [64]machine.Addr // per-processor 4-block childnotready area
	globalSense machine.Addr
	havechild   [64][4]bool
	sense       [64]uint32
	lat         *metrics.Histogram
}

// NewTreeBarrier allocates a tree barrier and initializes the arrival
// flags (childnotready := havechild).
func NewTreeBarrier(m *machine.Machine, name string) *TreeBarrier {
	m.MarkConstruct(name)
	b := &TreeBarrier{procs: m.Procs()}
	b.lat = m.MetricsHistogram(HistBarrierEpisode)
	b.globalSense = m.Alloc(name+".gsense", 4, 0)
	for i := 0; i < m.Procs(); i++ {
		b.nodes[i] = m.Alloc(fmt.Sprintf("%s.node%d", name, i), 64*4, i)
		for j := 0; j < 4; j++ {
			b.havechild[i][j] = 4*i+j+1 < m.Procs()
			if b.havechild[i][j] {
				m.Poke(b.childFlag(i, j), 1)
			}
		}
	}
	for i := range b.sense {
		b.sense[i] = 1
	}
	return b
}

// childFlag returns nodes[node].childnotready[j] (block-padded).
func (b *TreeBarrier) childFlag(node, j int) machine.Addr {
	return b.nodes[node] + machine.Addr(64*j)
}

// parentSlot returns the address of this processor's not-ready slot in
// its parent's node (processor 0 has none).
func (b *TreeBarrier) parentSlot(id int) machine.Addr {
	return b.childFlag((id-1)/4, (id-1)%4)
}

// ceilLog2 returns ceil(log2(n)) for n >= 1.
func ceilLog2(n int) int {
	k, v := 0, 1
	for v < n {
		v <<= 1
		k++
	}
	return k
}
