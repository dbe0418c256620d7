// Package mesh models the interconnection network of the simulated
// multiprocessor: a bi-directional wormhole-routed 2D mesh with
// dimension-ordered routing, a 16-bit-wide datapath, and a 2-cycle delay
// per switch, clocked at processor speed. Following the paper's
// methodology, network contention is modeled only at the source and
// destination of messages: each node's network interface serializes
// outgoing and incoming flits, while the interior of the mesh is treated
// as contention-free pipelined wormhole transmission.
//
// Routing distance is the one per-message computation that depends on the
// topology; New tabulates it for every node pair (n*n bytes), so Send is
// table lookups, additions and comparisons — no division on the
// per-message path.
package mesh

import (
	"fmt"
	"math/bits"

	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
)

// Config holds the network parameters. The zero value is not valid; use
// DefaultConfig as a starting point.
type Config struct {
	FlitBytes   int      // datapath width in bytes (paper: 2, i.e. 16 bits)
	SwitchDelay sim.Time // header delay per switch (paper: 2 cycles)
	LocalDelay  sim.Time // delivery delay when src == dst (NI loopback)
}

// DefaultConfig returns the paper's network parameters.
func DefaultConfig() Config {
	return Config{FlitBytes: 2, SwitchDelay: 2, LocalDelay: 1}
}

// Stats aggregates network traffic counters.
type Stats struct {
	Messages uint64 // messages delivered (excluding loopback)
	Loopback uint64 // src == dst deliveries
	Flits    uint64 // flits injected into the mesh
	HopSum   uint64 // total switch traversals (for mean-hops reporting)
}

// Network is the mesh. Nodes are numbered 0..N-1 and laid out row-major
// on a W x H grid with W*H >= N and W as close to sqrt(N) as possible.
type Network struct {
	e   *sim.Engine
	cfg Config
	n   int
	w   int // grid width
	// hops[src*n+dst] is the switch-traversal count of the route.
	hops      []uint8
	flitShift int // log2(FlitBytes) if a power of two (the paper's 2), else -1

	outFree []sim.Time // per-node earliest time the output NI is free
	inFree  []sim.Time // per-node earliest time the input NI is free

	// Per-node flit counts, for hot-spot analysis of the contention the
	// model concentrates at sources and destinations.
	outFlits []uint64
	inFlits  []uint64

	stats Stats

	// Optional sampled observability counters (nil-safe handles).
	mMsgs  *metrics.Counter
	mFlits *metrics.Counter
}

// Instrument attaches sampled metric counters for delivered messages and
// injected flits, so the observability layer can export network traffic
// rates over simulated time. Loopback deliveries are excluded, matching
// Stats.Messages.
func (nw *Network) Instrument(msgs, flits *metrics.Counter) {
	nw.mMsgs, nw.mFlits = msgs, flits
}

// maxNodes bounds the mesh so a route's hop count fits the hop table's
// uint8 entries (a 64x64 grid: at most 127 hops).
const maxNodes = 1 << 12

// New builds an N-node mesh on engine e.
func New(e *sim.Engine, n int, cfg Config) *Network {
	if n <= 0 || n > maxNodes {
		panic(fmt.Sprintf("mesh: invalid node count %d", n))
	}
	if cfg.FlitBytes <= 0 {
		panic("mesh: FlitBytes must be positive")
	}
	w := 1
	for w*w < n {
		w++
	}
	hops := make([]uint8, n*n)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				hops[src*n+dst] = uint8(abs(src%w-dst%w) + abs(src/w-dst/w) + 1)
			}
		}
	}
	flitShift := -1
	if cfg.FlitBytes&(cfg.FlitBytes-1) == 0 {
		flitShift = bits.TrailingZeros(uint(cfg.FlitBytes))
	}
	return &Network{
		e:         e,
		cfg:       cfg,
		n:         n,
		w:         w,
		hops:      hops,
		flitShift: flitShift,
		outFree:   make([]sim.Time, n),
		inFree:    make([]sim.Time, n),
		outFlits:  make([]uint64, n),
		inFlits:   make([]uint64, n),
	}
}

// Reset clears NI occupancy and traffic counters for machine reuse and
// detaches instrumentation (a reusing machine re-attaches its own).
func (nw *Network) Reset() {
	clear(nw.outFree)
	clear(nw.inFree)
	clear(nw.outFlits)
	clear(nw.inFlits)
	nw.stats = Stats{}
	nw.mMsgs, nw.mFlits = nil, nil
}

// Hops returns the number of switch traversals between src and dst under
// dimension-ordered routing (the Manhattan distance, plus one for the
// injection switch when src != dst).
func (nw *Network) Hops(src, dst int) int { return int(nw.hops[src*nw.n+dst]) }

// Flits returns the number of flits needed to carry a message of the given
// byte size (at least one flit).
func (nw *Network) Flits(bytes int) int {
	f := bytes + nw.cfg.FlitBytes - 1
	if nw.flitShift >= 0 {
		f >>= nw.flitShift
	} else {
		f /= nw.cfg.FlitBytes
	}
	if f < 1 {
		f = 1
	}
	return f
}

// Send injects a message of the given size from src to dst and schedules
// deliver to run at the instant it returns: Book's for a message that
// crosses the mesh, LocalDelay from now for a loopback. The transaction
// tracer uses that time to bound per-hop and fan-out spans.
func (nw *Network) Send(src, dst, bytes int, deliver func()) sim.Time {
	if src == dst {
		nw.stats.Loopback++
		nw.e.Schedule(nw.cfg.LocalDelay, deliver)
		return nw.e.Now() + nw.cfg.LocalDelay
	}
	done := nw.Book(src, dst, bytes)
	nw.e.At(done, deliver)
	return done
}

// Book passes a message from src to dst (src != dst) through the mesh,
// scheduling nothing, and returns the instant its tail flit has drained
// into the destination NI. Timing: the source NI serializes the flits
// (contention with other outgoing messages), the header pipelines through
// the mesh at SwitchDelay per hop, and the destination NI serializes
// arrival (contention with other incoming messages) — so arrivals at one
// destination strictly increase in booking order, which is what lets
// proto count an acknowledgement without delivering it.
func (nw *Network) Book(src, dst, bytes int) sim.Time {
	now := nw.e.Now()
	flits := sim.Time(nw.Flits(bytes))
	hops := sim.Time(nw.Hops(src, dst))

	start := max64(now, nw.outFree[src])
	nw.outFree[src] = start + flits

	headArrive := start + hops*nw.cfg.SwitchDelay
	inStart := max64(headArrive, nw.inFree[dst])
	done := inStart + flits
	nw.inFree[dst] = done

	nw.stats.Messages++
	nw.stats.Flits += uint64(flits)
	nw.stats.HopSum += uint64(hops)
	nw.outFlits[src] += uint64(flits)
	nw.inFlits[dst] += uint64(flits)
	if nw.mMsgs != nil {
		nw.mMsgs.Add(now, 1)
		nw.mFlits.Add(now, uint64(flits))
	}
	return done
}

// NodeFlits returns node id's injected (out) and received (in) flit
// counts — the occupancies of the two interfaces where contention is
// modeled. Loopback deliveries do not count.
func (nw *Network) NodeFlits(id int) (out, in uint64) {
	return nw.outFlits[id], nw.inFlits[id]
}

// Stats returns a copy of the accumulated traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func max64(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
