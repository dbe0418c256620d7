// Package constructs implements the parallel programming constructs the
// paper studies, written against the simulated-processor API:
//
//   - spin locks: the centralized ticket lock, the MCS list-based queue
//     lock, and the paper's proposed update-conscious MCS variant that
//     flushes predecessor/successor queue nodes;
//   - barriers: the sense-reversing centralized barrier, the
//     dissemination barrier, and the 4-ary arrival-tree barrier;
//   - reductions: parallel (lock-protected global) and sequential (one
//     processor combines per-processor slots).
//
// All shared state is allocated with the placement the paper prescribes —
// "shared data are mapped to the processors that use them most
// frequently": global words at node 0, per-processor queue nodes and
// flag blocks at their owning node, each on a private cache block.
package constructs

import (
	"fmt"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
)

// Observability histogram names shared by every construct of a kind, so
// a machine's exported metrics aggregate per construct class.
const (
	HistLockAcquire    = "latency.lock_acquire"
	HistBarrierEpisode = "latency.barrier_episode"
	HistReduction      = "latency.reduction"
)

// Lock is a mutual-exclusion lock usable from simulated processors.
// machine.MagicLock implements it too.
type Lock interface {
	// FAcquire pushes the acquire operation; the caller must have saved
	// its resume PC and must return the OpStatus unchanged.
	FAcquire(p *machine.Proc) machine.OpStatus
	// FRelease pushes the release operation, as FAcquire.
	FRelease(p *machine.Proc) machine.OpStatus
}

// Barrier is a global barrier usable from simulated processors.
// machine.MagicBarrier implements it too.
type Barrier interface {
	// FWait pushes the barrier-wait operation; the caller must have
	// saved its resume PC and must return the OpStatus unchanged.
	FWait(p *machine.Proc) machine.OpStatus
}

// TicketLock is the centralized ticket lock of the paper's figure 1: a
// fetch_and_add ticket dispenser and a now-serving counter, with the
// proportional backoff of Mellor-Crummey & Scott's ticket lock (whose
// experiments the paper replicates): a waiter with k tickets ahead of it
// pauses k backoff quanta between probes of the now-serving counter
// instead of spinning tightly. The two counters live on separate cache
// blocks at node 0, so dispenser traffic does not false-share with the
// probes of now-serving.
type TicketLock struct {
	ticket  machine.Addr
	now     machine.Addr
	backoff uint32 // pause per waiting ticket, in cycles
	myTick  [64]uint32
	lat     *metrics.Histogram
}

// NewTicketLock allocates a ticket lock. name must be unique per machine.
func NewTicketLock(m *machine.Machine, name string) *TicketLock {
	m.MarkConstruct(name)
	return &TicketLock{
		ticket:  m.Alloc(name+".ticket", 4, 0),
		now:     m.Alloc(name+".now", 4, 0),
		backoff: 50, // roughly one critical section per ticket ahead
		lat:     m.MetricsHistogram(HistLockAcquire),
	}
}

// MCSLock is the list-based queue lock of figure 2 (Mellor-Crummey &
// Scott). Each processor spins on a flag in its own queue node, allocated
// on its own cache block at its own node; the global tail pointer lives
// at node 0. With UpdateConscious set, the lock is the paper's proposed
// variant: after writing its predecessor's next pointer a processor
// flushes the predecessor's node, and after releasing it flushes the
// successor's node, cutting the update traffic that qnode sharing causes
// under update-based protocols.
type MCSLock struct {
	tail            machine.Addr
	nodes           [64]machine.Addr // per-processor queue node blocks
	updateConscious bool
	lat             *metrics.Histogram
}

// Queue-node word offsets: next pointer, then the spun-on flag.
const (
	qnodeNext   = 0
	qnodeLocked = 4
)

// NewMCSLock allocates an MCS lock; updateConscious selects the paper's
// flush-augmented variant.
func NewMCSLock(m *machine.Machine, name string, updateConscious bool) *MCSLock {
	m.MarkConstruct(name)
	l := &MCSLock{updateConscious: updateConscious}
	l.lat = m.MetricsHistogram(HistLockAcquire)
	l.tail = m.Alloc(name+".tail", 4, 0)
	for i := 0; i < m.Procs(); i++ {
		l.nodes[i] = m.Alloc(fmt.Sprintf("%s.qnode%d", name, i), 8, i)
	}
	return l
}

// node returns processor id's queue-node base address. Queue-node
// addresses stored in simulated memory are the block base addresses;
// zero is never a valid node (allocations start at block 0 only for the
// first allocation, so the tail allocation claims it first).
func (l *MCSLock) node(id int) machine.Addr { return l.nodes[id] }
