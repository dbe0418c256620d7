package fleet

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/walk"
)

// The lease queue walked exhaustively: every interleaving of two
// workers' polls and completions (ok, error, late, duplicate, malformed,
// their responses lost in transit), their deaths and network cuts,
// clock ticks past the heartbeat timeout or a retry backoff, a second
// job's arrival, either job's cancellation and the local runners, over
// two jobs that repeat a point within themselves and share one with
// each other. The model plays the shell: it files what the queue
// accepts, reports what it fills and releases what it ends.

// walkPts are the distinct points: j1 asks for A, B, A and j2 for B, C.
// C is a point no executor can run: every attempt at it posts an error.
var (
	walkPts = []experiments.Point{
		{Family: experiments.FamilyLock, Kind: 0, Procs: 1, Iterations: 8, Label: "A"},
		{Family: experiments.FamilyLock, Kind: 1, Procs: 1, Iterations: 8, Label: "B"},
		{Family: experiments.FamilyLock, Kind: 2, Procs: 1, Iterations: 8, Label: "C"},
	}
	walkJobs     = [][]int{{0, 1, 0}, {1, 2}}
	walkPtKeys   = []string{walkPts[0].Key(), walkPts[1].Key(), walkPts[2].Key()}
	walkKeys     = map[string]int{walkPtKeys[0]: 0, walkPtKeys[1]: 1, walkPtKeys[2]: 2}
	walkShardPts = map[string]int{} // shard ID -> point, filled by init
	walkT0       = time.Unix(1_000_000, 0)
)

// walkTimeout is the walked queue's heartbeat timeout; the backoff tick,
// the longest retry backoff, is shorter.
const (
	walkTimeout = 5 * time.Second
	walkBackoff = 8 * retryBackoff
)

const walkBad = 2 // C

func init() {
	for ji, pts := range walkJobs {
		for i, p := range pts {
			walkShardPts[fmt.Sprintf("j%d#%d", ji+1, i)] = p
		}
	}
}

// walkResult is what executing point p gives.
func walkResult(p int) experiments.PointResult {
	return experiments.PointResult{SimCycles: uint64(100 + p)}
}

// walkFault seeds one defect into the queue as the model sees it, to
// show the walk catches it.
type walkFault int

const (
	noFault          walkFault = iota
	faultMisorder              // filing fills each slot's neighbour instead
	faultSkipFill              // filing leaves one attached slot unfilled
	faultRefile                // an accepted shard stays leasable, to be accepted again
	faultKeepLeases            // reaping forgets a worker but not the shards it held
	faultNoRedeliver           // the unkeyed queue: a slot's lease lost in transit is never handed back
)

// walkConfig bounds one walk.
type walkConfig struct {
	slots  [2]int // execution slots of w0 and w1
	local  int    // local runners
	faults int    // misfortunes per schedule: a response lost, a malformed body posted, a death, a network cut
	fault  walkFault
}

var walkWorkers = [2]string{"w0", "w1"}

type wslot struct {
	shard string // the shard being executed, or "" when polling
	retry bool   // its completion was posted and the response lost: post again
}

type wworker struct {
	dead, cut bool // cut: its network was cut once past the timeout
	slots     []wslot
}

// wstate is one state of the walk: the queue and the world around it.
type wstate struct {
	q       *leaseQueue
	jobs    []*job   // submitted, in order
	filled  [][]bool // per job and slot: reported filled
	ended   []bool   // per job: its caller was released
	now     time.Time
	workers [2]wworker
	local   []string  // shards the local runners execute
	filing  []effects // accepted outcomes awaiting the memo Put
	puts    [3]uint8  // memo Puts per point
	faults  int       // misfortunes left
	bad     string    // an invariant a transition broke
}

type wkind uint8

const (
	aSubmit wkind = iota
	aPoll
	aDone
	aRetry
	aDie
	aExpire
	aBackoff
	aCancel
	aLocal
	aLocalDone
	aFile
	aMalformed
)

// wact is one action: kind on worker w's slot s (or job, local runner,
// filing w), its response lost in transit.
type wact struct {
	kind wkind
	w, s uint8
	lost bool
}

func (a wact) String() string {
	var b strings.Builder
	switch a.kind {
	case aSubmit:
		b.WriteString("submit j2")
	case aPoll, aDone, aRetry:
		fmt.Fprintf(&b, "%s w%d/%d", [...]string{aPoll: "poll", aDone: "done", aRetry: "retry"}[a.kind], a.w, a.s)
	case aDie:
		fmt.Fprintf(&b, "die w%d", a.w)
	case aExpire:
		fmt.Fprintf(&b, "expire w%d", a.w)
	case aBackoff:
		b.WriteString("backoff")
	case aCancel:
		fmt.Fprintf(&b, "cancel j%d", a.w+1)
	case aLocal:
		b.WriteString("local")
	case aLocalDone:
		fmt.Fprintf(&b, "local done %d", a.w)
	case aFile:
		fmt.Fprintf(&b, "file %d", a.w)
	case aMalformed:
		fmt.Fprintf(&b, "malformed w%d/%d", a.w, a.s)
	}
	if a.lost {
		b.WriteString(" lost")
	}
	return b.String()
}

type walkModel struct{ cfg walkConfig }

func (m walkModel) model() walk.Model[*wstate, wact] {
	return walk.Model[*wstate, wact]{Enabled: m.enabled, Apply: m.apply, Encode: m.encode, Check: m.check}
}

// root: j1 submitted; both workers are about to poll and, unknown to
// the queue, register.
func (m walkModel) root() *wstate {
	s := &wstate{q: newLeaseQueue(walkTimeout), now: walkT0, faults: m.cfg.faults}
	for w := range s.workers {
		s.workers[w].slots = make([]wslot, m.cfg.slots[w])
	}
	s.submit()
	return s
}

// submit is RunPoints for the next job: the memo answers what it holds.
func (s *wstate) submit() {
	ji := len(s.jobs)
	want := walkJobs[ji]
	j := &job{results: make([]experiments.PointResult, len(want))}
	pts, keys := make([]experiments.Point, len(want)), make([]string, len(want))
	for i, p := range want {
		pts[i] = walkPts[p]
		pts[i].Label = fmt.Sprintf("j%d/%d", ji+1, i)
		if s.puts[p] > 0 {
			j.results[i] = walkResult(p)
		} else {
			keys[i] = walkPts[p].Key()
		}
	}
	s.jobs, s.filled, s.ended = append(s.jobs, j), append(s.filled, make([]bool, len(want))), append(s.ended, false)
	s.react(s.q.submit(j, pts, keys, 0))
}

func (s *wstate) live(ji int) bool { j := s.jobs[ji]; return j.err == nil && j.remaining > 0 }

// leaseOf is the shard leased to h, or nil.
func (s *wstate) leaseOf(h holder) *shard {
	for _, l := range s.q.leased {
		if l.holder == h {
			return l
		}
	}
	return nil
}

func (s *wstate) eligible() bool {
	return slices.ContainsFunc(s.q.pending, func(p *shard) bool { return !p.notBefore.After(s.now) })
}

func (m walkModel) enabled(s *wstate) []wact {
	done := len(s.jobs) == len(walkJobs) && len(s.filing) == 0
	for ji := range s.jobs {
		done = done && !s.live(ji)
	}
	if done {
		return nil // what is left is stragglers' no-ops
	}
	var acts []wact
	add := func(a wact, faults int) {
		if s.faults >= faults {
			acts = append(acts, a)
		}
	}
	if len(s.jobs) < len(walkJobs) {
		add(wact{kind: aSubmit}, 0)
	}
	for w, wk := range s.workers {
		if wk.dead {
			continue
		}
		id := walkWorkers[w]
		seen, known := s.q.workers[id]
		for sl, st := range wk.slots {
			a := wact{w: uint8(w), s: uint8(sl)}
			switch {
			case st.shard == "":
				// A poll that would change nothing is not a step.
				a.kind = aPoll
				lease := known && (s.leaseOf(holder{id, sl}) != nil || s.eligible())
				if !known || seen != s.now || lease {
					add(a, 0)
				}
				if lease {
					a.lost = true
					add(a, 1)
				}
			case st.retry:
				a.kind = aRetry
				add(a, 0)
				a.lost = true
				add(a, 1)
			default:
				a.kind = aDone
				add(a, 0)
				a.lost = true
				add(a, 1)
				add(wact{kind: aMalformed, w: a.w, s: a.s}, 1)
			}
		}
		add(wact{kind: aDie, w: uint8(w)}, 1)
	}
	for w, wk := range s.workers {
		if _, known := s.q.workers[walkWorkers[w]]; known && !wk.cut {
			add(wact{kind: aExpire, w: uint8(w)}, 1)
		}
	}
	if slices.ContainsFunc(s.q.pending, func(p *shard) bool { return p.notBefore.After(s.now) }) {
		add(wact{kind: aBackoff}, 0)
	}
	for ji := range s.jobs {
		if s.live(ji) {
			add(wact{kind: aCancel, w: uint8(ji)}, 0)
		}
	}
	if len(s.local) < m.cfg.local && len(s.q.pending) > 0 && s.q.live(s.now) == 0 {
		add(wact{kind: aLocal}, 0)
	}
	for i := range s.local {
		acts = append(acts, wact{kind: aLocalDone, w: uint8(i)})
	}
	for i := range s.filing {
		acts = append(acts, wact{kind: aFile, w: uint8(i)})
	}
	return acts
}

func (m walkModel) apply(s *wstate, a wact) (*wstate, string) {
	if !slices.Contains(m.enabled(s), a) {
		return s, fmt.Sprintf("%v is not enabled", a)
	}
	n := s.clone()
	id := walkWorkers[a.w%2]
	switch a.kind {
	case aSubmit:
		n.submit()
	case aPoll:
		h := holder{id, int(a.s)}
		m.hide(n, h, "")
		lease, known := n.q.lease(h, n.now)
		switch {
		case !known:
			n.q.register(id, n.now) // 410: the worker registers again
		case a.lost:
			n.faults--
		case lease != nil:
			n.workers[a.w].slots[a.s].shard = lease.ID
		}
	case aDone, aRetry:
		st := &n.workers[a.w].slots[a.s]
		req := CompleteRequest{Worker: id, Slot: int(a.s), Shard: st.shard}
		req.Result, req.Error = outcome(st.shard)
		m.hide(n, holder{id, int(a.s)}, st.shard)
		next, eff, err := n.q.complete(req, n.now)
		if err != nil {
			return s, err.Error()
		}
		n.react(eff)
		switch {
		case a.lost:
			n.faults--
			st.retry = true
		case next != nil:
			*st = wslot{shard: next.ID}
		default:
			*st = wslot{}
		}
	case aMalformed:
		n.faults--
		before := m.encode(n, nil)
		if _, _, err := n.q.complete(CompleteRequest{Worker: id, Slot: int(a.s), Shard: n.workers[a.w].slots[a.s].shard}, n.now); err == nil {
			return s, "a completion with neither result nor error was accepted"
		}
		if string(m.encode(n, nil)) != string(before) {
			return s, "a refused completion changed the queue"
		}
	case aDie, aExpire, aBackoff:
		switch a.kind {
		case aDie:
			n.workers[a.w] = wworker{dead: true, slots: make([]wslot, len(n.workers[a.w].slots))}
			fallthrough
		case aExpire:
			n.now = n.now.Add(walkTimeout + time.Millisecond)
			n.workers[a.w].cut = true
			n.faults--
		default:
			n.now = n.now.Add(walkBackoff)
		}
		for w, wk := range n.workers {
			if !wk.dead && !(a.kind == aExpire && w == int(a.w)) && !n.q.heartbeat(walkWorkers[w], n.now) {
				n.q.register(walkWorkers[w], n.now)
			}
		}
		n.react(m.reap(n))
	case aCancel:
		n.q.drop(n.jobs[a.w], context.Canceled)
		n.ended[a.w] = true // RunPoints returns by itself
	case aLocal:
		sh := n.q.takeLocal(n.now)
		if sh == nil {
			return s, "no shard for the local runners while no worker is live"
		}
		n.local = append(n.local, sh.id)
	case aLocalDone:
		sid := n.local[a.w]
		n.local = slices.Delete(n.local, int(a.w), int(a.w)+1)
		res, errStr := outcome(sid)
		n.react(n.q.settle(sid, res, errStr, n.now))
	case aFile:
		e := n.filing[a.w]
		n.filing = slices.Delete(n.filing, int(a.w), int(a.w)+1)
		n.puts[walkKeys[e.put.key]]++
		switch m.cfg.fault {
		case faultMisorder:
			for i := range e.put.slots {
				e.put.slots[i].index = (e.put.slots[i].index + 1) % len(e.put.slots[i].job.results)
			}
		case faultSkipFill:
			e.put.slots = e.put.slots[:len(e.put.slots)-1]
		}
		n.react(n.q.filed(e.put, e.result, n.now))
		if m.cfg.fault == faultRefile {
			again := &shard{id: e.put.id, key: e.put.key, point: e.put.point}
			n.q.pending = append(n.q.pending, again)
			n.q.inflight[again.key] = again
		}
	}
	return n, ""
}

// hide is faultNoRedeliver: before a request from h, the lease recorded
// for h (other than the shard it completes) moves out of h's reach,
// still held by the same worker — which heartbeats on.
func (m walkModel) hide(n *wstate, h holder, completing string) {
	if l := n.leaseOf(h); m.cfg.fault == faultNoRedeliver && l != nil && l.id != completing {
		l.holder.slot = -1
	}
}

// reap is the reaper's tick; faultKeepLeases leaves the shards of a
// forgotten worker leased to it.
func (m walkModel) reap(n *wstate) effects {
	if m.cfg.fault != faultKeepLeases {
		return n.q.reap(n.now)
	}
	kept := slices.Clone(n.q.leased)
	eff := n.q.reap(n.now)
	n.q.pending = slices.DeleteFunc(n.q.pending, func(p *shard) bool { return slices.Contains(kept, p) })
	n.q.leased = kept
	return eff
}

// outcome is what executing the shard an ID names gives.
func outcome(id string) (*experiments.PointResult, string) {
	if p := walkShardPts[id]; p != walkBad {
		r := walkResult(p)
		return &r, ""
	}
	return nil, "no such family"
}

// react does what the shell does with a transition's effects: queue the
// memo Put, report filled slots and release ended jobs' callers —
// checking each is done once, with the right bytes.
func (s *wstate) react(eff effects) {
	if eff.put != nil {
		s.filing = append(s.filing, effects{put: eff.put, result: eff.result})
	}
	for _, sl := range eff.filled {
		ji := slices.Index(s.jobs, sl.job)
		p := walkJobs[ji][sl.index]
		switch {
		case s.filled[ji][sl.index]:
			s.bad = fmt.Sprintf("j%d slot %d merged twice", ji+1, sl.index)
		case sl.job.results[sl.index].SimCycles != walkResult(p).SimCycles:
			s.bad = fmt.Sprintf("j%d slot %d merged with another point's result", ji+1, sl.index)
		}
		s.filled[ji][sl.index] = true
	}
	for _, j := range eff.ended {
		ji := slices.Index(s.jobs, j)
		if s.ended[ji] {
			s.bad = fmt.Sprintf("j%d released twice", ji+1)
		}
		s.ended[ji] = true
	}
}

func (s *wstate) clone() *wstate {
	n := *s
	n.jobs = make([]*job, len(s.jobs))
	for i, j := range s.jobs {
		c := *j
		c.results = slices.Clone(j.results)
		n.jobs[i] = &c
	}
	var from, to []*shard // a handful: slices beat maps
	cs := func(sh *shard) *shard {
		if i := slices.Index(from, sh); i >= 0 {
			return to[i]
		}
		c := *sh
		c.slots = make([]slot, len(sh.slots))
		for i, sl := range sh.slots {
			c.slots[i] = slot{n.jobs[slices.Index(s.jobs, sl.job)], sl.index}
		}
		from, to = append(from, sh), append(to, &c)
		return &c
	}
	q := *s.q
	q.workers = maps.Clone(s.q.workers)
	q.pending = make([]*shard, len(s.q.pending))
	for i, sh := range s.q.pending {
		q.pending[i] = cs(sh)
	}
	q.leased = make([]*shard, len(s.q.leased))
	for i, sh := range s.q.leased {
		q.leased[i] = cs(sh)
	}
	q.inflight = make(map[string]*shard, len(s.q.inflight))
	for k, sh := range s.q.inflight {
		q.inflight[k] = cs(sh)
	}
	n.q = &q
	n.filing = make([]effects, len(s.filing))
	for i, e := range s.filing {
		n.filing[i] = effects{put: cs(e.put), result: e.result}
	}
	n.filled = make([][]bool, len(s.filled))
	for i, f := range s.filled {
		n.filled[i] = slices.Clone(f)
	}
	n.ended = slices.Clone(s.ended)
	for w := range n.workers {
		n.workers[w].slots = slices.Clone(s.workers[w].slots)
	}
	n.local = slices.Clone(s.local)
	return &n
}

// Encode writes everything an action can tell apart. Times are relative
// to now — the queue only compares them with now and with each other —
// and clamped where further distance changes nothing.
func (m walkModel) encode(s *wstate, buf []byte) []byte {
	shard := func(sh *shard, leased bool) {
		buf = append(buf, sh.id...)
		buf = append(buf, '|', byte(sh.attempts))
		if leased {
			buf = append(buf, byte(sh.holder.slot+1))
			buf = append(buf, sh.holder.worker...)
		}
		for _, sl := range sh.slots {
			buf = append(buf, '|', byte(slices.Index(s.jobs, sl.job)), byte(sl.index))
		}
		buf = append(buf, ';')
	}
	for _, sh := range s.q.pending {
		buf = append(buf, byte(max(sh.notBefore.Sub(s.now), 0)/time.Millisecond/50))
		shard(sh, false)
	}
	buf = append(buf, '/')
	for _, sh := range s.q.leased {
		shard(sh, true)
	}
	buf = append(buf, '/')
	for _, e := range s.filing {
		shard(e.put, false)
	}
	buf = append(buf, '/')
	buf = append(buf, byte(len(s.q.inflight)))
	for _, k := range walkPtKeys {
		if sh := s.q.inflight[k]; sh != nil {
			buf = append(buf, sh.id...)
		}
		buf = append(buf, ';')
	}
	buf = append(buf, '/')
	for w, id := range walkWorkers {
		seen, known := s.q.workers[id]
		buf = append(buf, b2(known), byte(min(s.now.Sub(seen), walkTimeout+time.Millisecond)/time.Millisecond/50))
		wk := s.workers[w]
		buf = append(buf, b2(wk.dead), b2(wk.cut))
		for _, st := range wk.slots {
			buf = append(buf, b2(st.retry))
			buf = append(buf, st.shard...)
			buf = append(buf, ';')
		}
	}
	buf = append(buf, '/')
	for ji, j := range s.jobs {
		buf = append(buf, b2(j.err != nil), byte(j.remaining), b2(s.ended[ji]))
		for _, f := range s.filled[ji] {
			buf = append(buf, b2(f))
		}
	}
	for _, sid := range s.local {
		buf = append(buf, sid...)
		buf = append(buf, ';')
	}
	buf = append(buf, s.puts[:]...)
	buf = append(buf, byte(s.faults), byte(s.q.stats.Completed))
	return append(buf, s.bad...)
}

func b2(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// Check holds the queue to its four promises after every step: every
// shard merged exactly once in submission order, one memo Put per
// accepted shard, no attached slot orphaned, and no shard stranded while
// a worker is live: a job waits in a state where nothing but its
// cancellation can happen.
func (m walkModel) check(s *wstate, terminal bool) (walk.Kind, string, bool) {
	for p, n := range s.puts {
		if n > 1 {
			return walk.Invariant, fmt.Sprintf("point %c filed in the memo %d times", 'A'+p, n), false
		}
	}
	if s.bad != "" {
		return walk.Invariant, s.bad, false
	}
	if why := s.structure(); why != "" {
		return walk.Invariant, why, false
	}
	idle := len(s.q.inflight) == 0
	for ji := range s.jobs {
		if s.live(ji) {
			idle = false
			stuck := !slices.ContainsFunc(m.enabled(s), func(a wact) bool { return a.kind != aCancel })
			if stuck {
				return walk.Deadlock, fmt.Sprintf("j%d never finishes: %s", ji+1, s.describe()), false
			}
		}
	}
	return "", "", idle
}

// structure checks the queue's bookkeeping: inflight is exactly the
// outstanding shards by key, a worker's slot holds at most one lease,
// every slot of a live job is filled once or attached to exactly one
// outstanding shard for its point, an ended job is attached to nothing
// queued, a finished job holds its points' results in submission order,
// and Completed counts the memo Puts.
func (s *wstate) structure() string {
	out := map[string]*shard{}
	var queued []*shard
	for _, sh := range s.q.pending {
		out[sh.id], queued = sh, append(queued, sh)
	}
	for _, sh := range s.q.leased {
		out[sh.id], queued = sh, append(queued, sh)
	}
	for _, e := range s.filing {
		out[e.put.id] = e.put
	}
	if len(s.q.inflight) != len(out) {
		return fmt.Sprintf("%d keys in flight for %d outstanding shards", len(s.q.inflight), len(out))
	}
	for _, sh := range out {
		if s.q.inflight[sh.key] != sh {
			return fmt.Sprintf("shard %s is outstanding but not in flight by its key", sh.id)
		}
	}
	holders := map[holder]bool{}
	for _, sh := range s.q.leased {
		if sh.holder.worker != "" && holders[sh.holder] {
			return fmt.Sprintf("%v holds two leases", sh.holder)
		}
		holders[sh.holder] = true
	}
	for ji, j := range s.jobs {
		attached := make([]int, len(walkJobs[ji]))
		for _, sh := range out {
			for _, sl := range sh.slots {
				if sl.job != j {
					continue
				}
				if walkKeys[sh.key] != walkJobs[ji][sl.index] {
					return fmt.Sprintf("j%d slot %d attached to another point's shard %s", ji+1, sl.index, sh.id)
				}
				if s.live(ji) || slices.Contains(queued, sh) {
					attached[sl.index]++
				}
			}
		}
		unfilled := 0
		for i, f := range s.filled[ji] {
			switch {
			case !f:
				unfilled++
				if s.live(ji) && attached[i] != 1 {
					return fmt.Sprintf("j%d slot %d is unfilled and attached to %d shards", ji+1, i, attached[i])
				}
			case attached[i] > 0 && j.err == nil:
				return fmt.Sprintf("j%d slot %d is filled and still attached", ji+1, i)
			}
			if !s.live(ji) && attached[i] > 0 {
				return fmt.Sprintf("j%d has ended, yet its slot %d is attached to a queued shard", ji+1, i)
			}
		}
		switch {
		case j.err == nil && unfilled != j.remaining:
			return fmt.Sprintf("j%d counts %d slots to fill, %d are", ji+1, j.remaining, unfilled)
		case !s.live(ji) && !s.ended[ji]:
			return fmt.Sprintf("j%d has ended, but its caller was never released", ji+1)
		case j.err == nil && j.remaining == 0:
			for i, p := range walkJobs[ji] {
				if j.results[i].SimCycles != walkResult(p).SimCycles {
					return fmt.Sprintf("j%d finished with slot %d out of submission order", ji+1, i)
				}
			}
		}
	}
	var puts uint64
	for _, n := range s.puts {
		puts += uint64(n)
	}
	if s.q.stats.Completed != puts {
		return fmt.Sprintf("%d shards completed, %d memo Puts", s.q.stats.Completed, puts)
	}
	return ""
}

// describe names where each outstanding shard is, for a deadlock report.
func (s *wstate) describe() string {
	var parts []string
	for _, sh := range s.q.pending {
		parts = append(parts, sh.id+" pending")
	}
	for _, sh := range s.q.leased {
		parts = append(parts, fmt.Sprintf("%s leased to %q slot %d", sh.id, sh.holder.worker, sh.holder.slot))
	}
	for w, wk := range s.workers {
		_, known := s.q.workers[walkWorkers[w]]
		parts = append(parts, fmt.Sprintf("w%d dead=%v registered=%v slots=%v", w, wk.dead, known, wk.slots))
	}
	return strings.Join(parts, "; ")
}

// walkQueue walks cfg from its root.
func walkQueue(cfg walkConfig) (walk.Stats, *walk.Finding[wact], error) {
	m := walkModel{cfg}
	return walk.Search(m.model(), m.root(), 1_000_000)
}

// walkDefault is the pinned configuration: w0 runs two slots and w1 one,
// one local runner, and one misfortune per schedule.
var walkDefault = walkConfig{slots: [2]int{2, 1}, local: 1, faults: 1}

// TestLeaseQueueWalk walks the pinned configuration clean and pins its
// size: any change to the queue's transitions or to the model moves the
// counts, and must say why.
func TestLeaseQueueWalk(t *testing.T) {
	start := time.Now()
	ws, f, err := walkQueue(walkDefault)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("%s: %s\nschedule: %v", f.Kind, f.Why, f.Path)
	}
	want := walk.Stats{States: 74869, Transitions: 320253, Quiescent: 7660, Terminal: 6904, MaxDepth: 22}
	if ws != want {
		t.Errorf("walk %+v, want %+v", ws, want)
	}
	t.Logf("%d states, %d transitions in %s", ws.States, ws.Transitions, time.Since(start).Round(time.Millisecond))
}

// TestLeaseQueueWalkCatchesSeededFaults plants one defect per promise
// and requires the walk to find it with a schedule that replays to the
// same verdict.
func TestLeaseQueueWalkCatchesSeededFaults(t *testing.T) {
	for _, tc := range []struct {
		fault walkFault
		kind  walk.Kind
		why   string
	}{
		{faultMisorder, walk.Invariant, "merged with another point's result"},
		{faultSkipFill, walk.Invariant, "is unfilled and attached to 0 shards"},
		{faultRefile, walk.Invariant, "filed in the memo 2 times"},
		{faultKeepLeases, walk.Deadlock, "never finishes"},
		{faultNoRedeliver, walk.Deadlock, "never finishes"},
	} {
		cfg := walkDefault
		cfg.fault = tc.fault
		_, f, err := walkQueue(cfg)
		if err != nil || f == nil {
			t.Fatalf("fault %d: finding %v, err %v", tc.fault, f, err)
		}
		if f.Kind != tc.kind || !strings.Contains(f.Why, tc.why) {
			t.Errorf("fault %d: %s: %s; want %s: ...%s...", tc.fault, f.Kind, f.Why, tc.kind, tc.why)
		}
		m := walkModel{cfg}
		if rf := walk.Replay(m.model(), m.root(), f.Path); rf == nil || rf.Kind != f.Kind || rf.Why != f.Why {
			t.Errorf("fault %d: schedule %v replays to %+v", tc.fault, f.Path, rf)
		}
	}
}

// strandedByLostLease is the schedule the walk found against the queue
// before leases were keyed by slot, which answered a slot's request with
// a new lease whatever the slot held: the response carrying j2#1 is
// lost, w0's slot polls again and gets nothing, and j2#1 stays leased to
// a worker that heartbeats on — j2 hangs.
var strandedByLostLease = []string{
	"submit j2", "poll w0/0", "poll w0/0", "done w0/0", "done w0/0", "done w0/0",
	"poll w1/0", "backoff", "poll w0/0", "done w0/0", "backoff",
	"poll w0/0 lost", "poll w0/0", "cancel j1", "file 0", "file 0",
}

// TestLostLeaseIsHandedBack replays strandedByLostLease: it strands j2
// under the unkeyed queue, and under the keyed one the slot's next
// poll is handed the lease it lost.
func TestLostLeaseIsHandedBack(t *testing.T) {
	byName := make(map[string]wact)
	for kind := aSubmit; kind <= aMalformed; kind++ {
		for w := uint8(0); w < 2; w++ {
			for sl := uint8(0); sl < 2; sl++ {
				for _, lost := range []bool{false, true} {
					a := wact{kind: kind, w: w, s: sl, lost: lost}
					if _, ok := byName[a.String()]; !ok { // the first is the one with unused fields zero
						byName[a.String()] = a
					}
				}
			}
		}
	}
	var sched []wact
	for _, name := range strandedByLostLease {
		a, ok := byName[name]
		if !ok {
			t.Fatalf("no action %q", name)
		}
		sched = append(sched, a)
	}
	unkeyed := walkDefault
	unkeyed.fault = faultNoRedeliver
	for _, tc := range []struct {
		cfg   walkConfig
		stuck bool
	}{{unkeyed, true}, {walkDefault, false}} {
		m := walkModel{tc.cfg}
		f := walk.Replay(m.model(), m.root(), sched)
		if stuck := f != nil && f.Kind == walk.Deadlock && len(f.Path) == len(sched); stuck != tc.stuck || (f != nil && !stuck) {
			t.Errorf("fault %d: replay found %+v, want stranded: %v", tc.cfg.fault, f, tc.stuck)
		}
	}
}

// TestLeaseQueueIsPure keeps queue.go a state machine the walk can
// drive: no goroutine, channel, lock, context or HTTP, and no clock —
// time arrives as time.Time and time.Duration values.
func TestLeaseQueueIsPure(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "queue.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if path == "sync" || path == "context" || strings.HasPrefix(path, "sync/") || strings.HasPrefix(path, "net") {
			t.Errorf("queue.go imports %q", path)
		}
	}
	timeValues := []string{"Time", "Duration", "Nanosecond", "Microsecond", "Millisecond", "Second", "Minute", "Hour"}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("queue.go starts a goroutine at offset %d", n.Pos())
		case *ast.ChanType, *ast.SendStmt:
			t.Errorf("queue.go uses a channel at offset %d", n.Pos())
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && pkg.Name == "time" && !slices.Contains(timeValues, n.Sel.Name) {
				t.Errorf("queue.go calls time.%s", n.Sel.Name)
			}
		}
		return true
	})
}
