package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"coherencesim/internal/store"
	"coherencesim/internal/walk"
)

// The scheduler walked exhaustively: every interleaving of two tenants'
// submissions of three specs (two quick, one paper; each spec at most
// twice, so a repeat is a dedup, a cache hit or a re-admission), their
// cancellation, the one execution slot taking the next job, a run
// finishing ok, in error or past its deadline, a cancelled run's
// executor returning, one quota reload, and the drain's start and its
// grace expiry, with QueueDepth 1 and TenantQuota 1. The scheduler is
// built by newScheduler, which starts no goroutine; the model plays its
// worker. A state is the schedule that reaches it: to backtrack, the
// model builds a fresh scheduler and replays the schedule, as
// internal/mc's live model does. The model keeps its own account of
// every admitted job and holds the scheduler to it.

var (
	swSpecs   = [3]JobSpec{swCanonical(JobSpec{Experiment: "fig8"}), swCanonical(JobSpec{Experiment: "fig11"}), swCanonical(JobSpec{Experiment: "fig8", Scale: "paper"})}
	swIDs     = [3]string{Hash(swSpecs[0]), Hash(swSpecs[1]), Hash(swSpecs[2])}
	swTenants = [2]string{"t1", "t2"}
	swNames   = [3]string{"q1", "q2", "p"}
)

const (
	swPaper   = 2 // the paper spec
	swRepeats = 2 // submissions per spec
)

func swCanonical(s JobSpec) JobSpec {
	c, err := Canonicalize(s)
	if err != nil {
		panic(err)
	}
	return c
}

// swConfig is the walked scheduler's configuration; the reload raises
// the default quota to 2 and keeps t2 at 1.
var swConfig = SchedulerConfig{QueueDepth: 1, Jobs: 1, TenantQuota: 1}

// swFault seeds one defect into the scheduler as the model sees it, to
// show the walk catches it.
type swFault uint8

const (
	swNoFault       swFault = iota
	swCancelPending         // Cancel of a queued job leaves it on its list (the channel queue's behaviour)
	swPaperFirst            // take pops paper before quick
	swKeepTenant            // finalize skips the per-tenant release
	swWriteFailed           // the durable layer takes failed and cancelled documents too
	swForgetPending         // expiry forgets a pending job
)

type swKind uint8

const (
	swSubmit swKind = iota
	swCancel
	swTake
	swOK       // the running job's executor returns a result
	swErr      // ... returns an error
	swDeadline // ... runs past its deadline
	swReturn   // the cancelled running job's executor returns
	swReload
	swDrain
	swExpire
)

// swAct is one action: kind on spec (submit, cancel) by tenant (submit).
type swAct struct {
	kind         swKind
	spec, tenant uint8
}

func (a swAct) String() string {
	switch a.kind {
	case swSubmit:
		return fmt.Sprintf("submit %s by %s", swNames[a.spec], swTenants[a.tenant])
	case swCancel:
		return "cancel " + swNames[a.spec]
	}
	return [...]string{swTake: "take", swOK: "ok", swErr: "error", swDeadline: "deadline", swReturn: "return",
		swReload: "reload", swDrain: "drain", swExpire: "expire"}[a.kind]
}

// swNode is a state of the walk: the last action of its schedule and
// the state that action left.
type swNode struct {
	parent *swNode
	act    swAct
}

// swJob is the model's account of one admitted job.
type swJob struct {
	t        *task
	spec     uint8
	tenant   uint8
	running  bool
	finished bool
}

// swStore is the durable layer: the statuses written per job id.
type swStore map[string][]string

func (st swStore) Get(id string) ([]byte, string, bool) { return nil, "", false }
func (st swStore) Put(id, status string, body []byte) error {
	st[id] = append(st[id], status)
	return nil
}

// swModel drives one live scheduler through the walker's four methods.
type swModel struct {
	fault swFault
	root  *swNode
	at    *swNode // the state s is in
	path  []swAct

	s        *Scheduler
	st       swStore
	jobs     []*swJob // every admitted job, in admission order
	run      *swJob   // the job in the execution slot
	ctx      context.Context
	subs     [3]uint8  // submissions made per spec
	doc      [3]string // status of each spec's last terminal document
	tally    Counters  // the lifetime counters the model expects
	reloaded bool
	expired  bool
	bad      string          // an invariant a transition broke
	outcomes map[string]bool // every admission outcome any schedule met
}

func newSWModel(fault swFault) *swModel {
	m := &swModel{fault: fault, root: &swNode{}, outcomes: map[string]bool{}}
	m.reset()
	return m
}

func (m *swModel) model() walk.Model[*swNode, swAct] {
	return walk.Model[*swNode, swAct]{Enabled: m.enabled, Apply: m.apply, Encode: m.encode, Check: m.check}
}

// reset returns the scheduler and the model to the initial state.
func (m *swModel) reset() {
	if m.s != nil {
		m.s.stop()
	}
	m.s, m.st = newScheduler(swConfig, nil), swStore{}
	m.s.results = newResults(1<<20, m.st)
	if m.fault == swWriteFailed {
		m.s.results = store.NewChain(1<<20, func(jobDoc) int64 { return 1 }, nil, store.Durable[string, jobDoc]{
			Save: func(id string, d jobDoc) { m.st.Put(id, d.status, d.body) },
		})
	}
	m.jobs, m.run, m.ctx = nil, nil, nil
	m.subs, m.doc, m.tally = [3]uint8{}, [3]string{}, Counters{}
	m.reloaded, m.expired, m.bad = false, false, ""
	m.at = m.root
}

// goTo brings the scheduler to n, replaying n's schedule after a reset
// unless it is there already.
func (m *swModel) goTo(n *swNode) {
	if m.at == n {
		return
	}
	m.reset()
	m.path = m.path[:0]
	for x := n; x.parent != nil; x = x.parent {
		m.path = append(m.path, x.act)
	}
	for i := len(m.path) - 1; i >= 0; i-- {
		if why := m.step(m.path[i]); why != "" {
			panic("service: a replayed schedule diverged: " + why)
		}
	}
	m.at = n
}

// live is spec's admitted job still in flight, or nil.
func (m *swModel) live(spec uint8) *swJob {
	for _, j := range m.jobs {
		if j.spec == spec && !j.finished {
			return j
		}
	}
	return nil
}

func (m *swModel) enabled(n *swNode) []swAct {
	m.goTo(n)
	return m.actions()
}

func (m *swModel) actions() []swAct {
	var acts []swAct
	s := m.s
	for spec := range uint8(3) {
		if m.subs[spec] < swRepeats {
			for tenant := range uint8(2) {
				acts = append(acts, swAct{swSubmit, spec, tenant})
			}
		}
		if j := m.live(spec); j != nil && (!j.running || m.ctx.Err() == nil) {
			acts = append(acts, swAct{kind: swCancel, spec: spec})
		}
	}
	if m.run == nil && len(s.quick)+len(s.paper) > 0 && s.root.Err() == nil {
		acts = append(acts, swAct{kind: swTake})
	}
	if m.run != nil {
		if m.ctx.Err() == nil {
			acts = append(acts, swAct{kind: swOK}, swAct{kind: swErr}, swAct{kind: swDeadline})
		} else {
			acts = append(acts, swAct{kind: swReturn})
		}
	}
	if !m.reloaded {
		acts = append(acts, swAct{kind: swReload})
	}
	if !s.draining {
		acts = append(acts, swAct{kind: swDrain})
	} else if !m.expired {
		acts = append(acts, swAct{kind: swExpire})
	}
	return acts
}

// apply runs a from n. A panic in the scheduler is the walk.Internal
// verdict, and the scheduler is reset.
func (m *swModel) apply(n *swNode, a swAct) (next *swNode, why string) {
	defer func() {
		if r := recover(); r != nil {
			m.reset()
			next, why = nil, fmt.Sprint("panic: ", r)
		}
	}()
	m.goTo(n)
	if why := m.step(a); why != "" {
		m.reset()
		return nil, why
	}
	m.at = &swNode{parent: n, act: a}
	return m.at, ""
}

// step runs one action on the scheduler, or refuses it when it is not
// enabled.
func (m *swModel) step(a swAct) string {
	if !slices.Contains(m.actions(), a) {
		return fmt.Sprintf("%v is not enabled", a)
	}
	s := m.s
	end := "" // the status of every job this step finalizes
	switch a.kind {
	case swSubmit:
		m.submit(a.spec, a.tenant)
	case swCancel:
		end = StatusCanceled
		j := m.live(a.spec)
		q := s.queueFor(j.t.spec)
		i := slices.Index(*q, j.t)
		if _, ok := s.Cancel(j.t.id); !ok {
			m.bad = fmt.Sprintf("cancel of %s: not in flight", swNames[a.spec])
		}
		if m.fault == swCancelPending && i >= 0 {
			*q = slices.Insert(*q, i, j.t)
		}
	case swTake:
		if m.fault == swPaperFirst {
			s.quick, s.paper = s.paper, s.quick
		}
		s.mu.Lock()
		t, ctx := s.take()
		s.mu.Unlock()
		if m.fault == swPaperFirst {
			s.quick, s.paper = s.paper, s.quick
		}
		i := slices.IndexFunc(m.jobs, func(j *swJob) bool { return j.t == t })
		if i < 0 {
			return "take started a job that was never admitted"
		}
		j := m.jobs[i]
		switch {
		case j.running || j.finished:
			m.bad = fmt.Sprintf("take started %s, which was not pending", swNames[j.spec])
		case j.spec == swPaper && slices.ContainsFunc(m.jobs, func(q *swJob) bool { return q.spec != swPaper && !q.running && !q.finished }):
			m.bad = "a paper job started while a quick one was pending"
		}
		j.running, m.run, m.ctx = true, j, ctx
	case swOK, swErr, swDeadline, swReturn:
		j := m.run
		m.run, m.ctx = nil, nil
		switch a.kind {
		case swOK:
			s.finalize(j.t, &JobResult{Output: "ok"}, nil)
			end = StatusDone
		case swErr:
			s.finalize(j.t, nil, errors.New("no such family"))
			end = StatusFailed
		case swDeadline:
			s.finalize(j.t, nil, context.DeadlineExceeded)
			end = StatusFailed
		default:
			s.finalize(j.t, nil, context.Canceled)
			end = StatusCanceled
		}
	case swReload:
		s.SetQuotas(2, map[string]int{"t2": 1})
		m.reloaded = true
	case swDrain:
		s.beginDrain()
	case swExpire:
		var hidden *task
		if m.fault == swForgetPending && len(s.quick)+len(s.paper) > 0 {
			hidden = slices.Concat(s.quick, s.paper)[0]
			s.unqueue(hidden)
		}
		s.expire()
		end = StatusCanceled
		if hidden != nil {
			q := s.queueFor(hidden.spec)
			*q = append(*q, hidden)
		}
		m.expired = true
	}
	m.settle(a, end)
	return ""
}

// submit submits spec for tenant and checks the answer against the one
// the model predicts from its own account.
func (m *swModel) submit(spec, tenant uint8) {
	s := m.s
	m.subs[spec]++
	inFlight, pending := m.inFlight()
	quota := 1
	if m.reloaded {
		quota = map[string]int{"t1": 2, "t2": 1}[swTenants[tenant]]
	}
	live := m.live(spec)
	var want string
	switch c := &m.tally; {
	case s.draining:
		want = "draining"
	case live != nil:
		want, c.Deduped = "deduped", c.Deduped+1
	case m.doc[spec] == StatusDone:
		want, c.CacheHits = "cache hit", c.CacheHits+1
	case inFlight[tenant] >= quota:
		want, c.QuotaHits = "quota", c.QuotaHits+1
	case pending[swClass(spec)] >= swConfig.QueueDepth:
		want, c.Rejected = "queue full", c.Rejected+1
	default:
		want, c.Submitted = "admitted", c.Submitted+1
	}
	_, t, cached, adm, err := s.Submit(swSpecs[spec], swTenants[tenant])
	var got string
	switch {
	case errors.Is(err, ErrDraining):
		got = "draining"
	case errors.Is(err, ErrQuotaExceeded):
		got = "quota"
	case errors.Is(err, ErrQueueFull):
		got = "queue full"
	case err != nil:
		got = err.Error()
	case adm == Deduped && live != nil && t == live.t:
		got = "deduped"
	case adm == CacheHit && cached != nil:
		got = "cache hit"
	case adm == Admitted:
		got = "admitted"
		m.jobs = append(m.jobs, &swJob{t: t, spec: spec, tenant: tenant})
	}
	m.outcomes[got] = true
	what := fmt.Sprintf("submit %s by %s", swNames[spec], swTenants[tenant])
	switch {
	case got == "queue full" && want != got:
		m.bad = fmt.Sprintf("%s: ErrQueueFull with %d live pending %s jobs", what, pending[swClass(spec)], [...]string{"quick", "paper"}[swClass(spec)])
	case got == "admitted" && s.draining:
		m.bad = what + ": admitted after the drain began"
	case got == "admitted" && inFlight[tenant] >= quota:
		m.bad = fmt.Sprintf("%s: admitted over the quota of %d", what, quota)
	case got != want:
		m.bad = fmt.Sprintf("%s: %s, want %s", what, got, want)
	}
}

func swClass(spec uint8) int {
	if spec == swPaper {
		return 1
	}
	return 0
}

// settle records the jobs step a finalized, each of which must carry
// the status end; a second finalization would count twice, which check
// finds in the lifetime counters.
func (m *swModel) settle(a swAct, end string) {
	for _, j := range m.jobs {
		if j.finished || !terminal(j.t, 0) {
			continue
		}
		j.finished = true
		m.doc[j.spec] = j.t.Status().Status
		if m.doc[j.spec] != end {
			m.bad = fmt.Sprintf("%v finalized %s as %q", a, swNames[j.spec], m.doc[j.spec])
		}
		switch m.doc[j.spec] {
		case StatusDone:
			m.tally.Completed++
		case StatusFailed:
			m.tally.Failed++
		case StatusCanceled:
			m.tally.Canceled++
		}
		if m.fault == swKeepTenant {
			m.s.perTenant[j.t.tenant]++
		}
	}
}

// inFlight counts the model's in-flight jobs per tenant and its live
// pending jobs per class.
func (m *swModel) inFlight() (perTenant [2]int, pending [2]int) {
	for _, j := range m.jobs {
		if !j.finished {
			perTenant[j.tenant]++
			if !j.running {
				pending[swClass(j.spec)]++
			}
		}
	}
	return perTenant, pending
}

// encode writes what decides the future — the pending lists, the slot,
// each spec's submissions left and whether its last document is a
// completed one, the reload and drain flags — and what check reads of
// the scheduler's own bookkeeping: the in-flight set, the per-tenant
// counts, the running gauge. History is left out, the lifetime counters
// and the durable layer's writes: check holds them to the model's own
// tallies at every state, so only whether they agree is written.
func (m *swModel) encode(n *swNode, buf []byte) []byte {
	m.goTo(n)
	s := m.s
	for _, q := range [][]*task{s.quick, s.paper} {
		for _, t := range q {
			buf = append(buf, byte(slices.Index(swIDs[:], t.id)), byte(slices.Index(swTenants[:], t.tenant)))
		}
		buf = append(buf, '/')
	}
	if m.run != nil {
		buf = append(buf, m.run.spec, m.run.tenant, b2(m.ctx.Err() != nil))
	}
	for spec, id := range swIDs {
		buf = append(buf, m.subs[spec], b2(m.doc[spec] == StatusDone))
		if t := s.inflight[id]; t != nil {
			buf = append(buf, t.status...)
		}
		buf = append(buf, ';')
	}
	for _, ten := range swTenants {
		buf = append(buf, byte(s.perTenant[ten]))
	}
	c := s.c
	c.Running = 0
	durable := true
	for _, sts := range m.st {
		durable = durable && !slices.ContainsFunc(sts, func(st string) bool { return st != StatusDone })
	}
	buf = append(buf, byte(s.c.Running), b2(c == m.tally), b2(durable))
	buf = append(buf, b2(m.reloaded), b2(s.draining), b2(m.expired))
	return append(buf, m.bad...)
}

func b2(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// check holds the scheduler to its promises after every step: the
// lists, the slot and the in-flight set agree; the gauges count live
// jobs; the per-tenant counts are the in-flight jobs; every admitted job
// is finalized once, and only completed documents reach the durable
// layer. A job in flight when no worker can move it is a deadlock: the
// drain would never end.
func (m *swModel) check(n *swNode, terminal bool) (walk.Kind, string, bool) {
	m.goTo(n)
	if m.bad != "" {
		return walk.Invariant, m.bad, false
	}
	if why := m.structure(); why != "" {
		return walk.Invariant, why, false
	}
	s := m.s
	if len(s.inflight) > 0 && !slices.ContainsFunc(m.actions(), func(a swAct) bool { return a.kind >= swTake && a.kind <= swReturn }) {
		return walk.Deadlock, fmt.Sprintf("%d jobs stay in flight and no worker can move them (draining %v, expired %v)", len(s.inflight), s.draining, m.expired), false
	}
	return "", "", len(s.inflight) == 0
}

func (m *swModel) structure() string {
	s := m.s
	seen := map[*task]bool{}
	for class, q := range [][]*task{s.quick, s.paper} {
		for _, t := range q {
			switch {
			case seen[t]:
				return fmt.Sprintf("%s is pending twice", t.spec.Experiment)
			case swClass(uint8(slices.Index(swIDs[:], t.id))) != class:
				return "a job is pending in the other class"
			case s.inflight[t.id] != t:
				return fmt.Sprintf("%s/%s is pending but not in flight", t.spec.Experiment, t.spec.Scale)
			}
			seen[t] = true
		}
	}
	if m.run != nil {
		if seen[m.run.t] || s.inflight[m.run.t.id] != m.run.t {
			return "the running job is pending too, or not in flight"
		}
		seen[m.run.t] = true
	}
	if len(seen) != len(s.inflight) {
		return fmt.Sprintf("%d jobs pending or running, %d in flight", len(seen), len(s.inflight))
	}
	for id, t := range s.inflight {
		if t.id != id {
			return "a job is in flight under another id"
		}
	}
	perTenant, pending := m.inFlight()
	c := s.Counters()
	switch {
	case c.Queued != pending[0]+pending[1]:
		return fmt.Sprintf("queued gauge %d, %d live pending jobs", c.Queued, pending[0]+pending[1])
	case s.RetryAfter() != max(1, pending[0]+pending[1]):
		return fmt.Sprintf("Retry-After %d with %d live pending jobs", s.RetryAfter(), pending[0]+pending[1])
	case c.Running != len(seen)-c.Queued:
		return fmt.Sprintf("running gauge %d, %d jobs running", c.Running, len(seen)-c.Queued)
	}
	for i, ten := range swTenants {
		if s.perTenant[ten] != perTenant[i] {
			return fmt.Sprintf("tenant %s is counted with %d jobs in flight and holds %d", ten, s.perTenant[ten], perTenant[i])
		}
	}
	if len(s.perTenant) != min(perTenant[0], 1)+min(perTenant[1], 1) {
		return "a tenant with nothing in flight is still counted"
	}
	c.Queued, c.Running = 0, 0
	if c != m.tally {
		return fmt.Sprintf("counters %+v, the model counts %+v", c, m.tally)
	}
	for spec, id := range swIDs {
		for _, st := range m.st[id] {
			if st != StatusDone {
				return fmt.Sprintf("a %s document of %s reached the durable layer", st, swNames[spec])
			}
		}
	}
	return ""
}

// walkScheduler walks the scheduler with fault seeded.
func walkScheduler(fault swFault) (walk.Stats, *walk.Finding[swAct], *swModel, error) {
	m := newSWModel(fault)
	ws, f, err := walk.Search(m.model(), m.root, 1_000_000)
	return ws, f, m, err
}

// TestSchedulerWalk walks the scheduler clean, requires every admission
// outcome to be met, and pins the walk's size: any change to the
// scheduler's transitions or to the model moves the counts, and must say
// why.
func TestSchedulerWalk(t *testing.T) {
	start := time.Now()
	ws, f, m, err := walkScheduler(swNoFault)
	if err != nil {
		t.Fatal(err)
	}
	if f != nil {
		t.Fatalf("%s: %s\nschedule: %v", f.Kind, f.Why, f.Path)
	}
	want := walk.Stats{States: 7942, Transitions: 56667, Quiescent: 750, Terminal: 8, MaxDepth: 16}
	if ws != want {
		t.Errorf("walk %+v, want %+v", ws, want)
	}
	for _, o := range []string{"admitted", "deduped", "cache hit", "quota", "queue full", "draining"} {
		if !m.outcomes[o] {
			t.Errorf("no schedule met the admission outcome %q", o)
		}
	}
	t.Logf("%d states, %d transitions in %s", ws.States, ws.Transitions, time.Since(start).Round(time.Millisecond))
}

// TestSchedulerWalkCatchesSeededFaults plants one defect per promise and
// requires the walk to find it with a schedule that replays to the same
// verdict.
func TestSchedulerWalkCatchesSeededFaults(t *testing.T) {
	for _, tc := range []struct {
		fault swFault
		kind  walk.Kind
		why   string
	}{
		{swCancelPending, walk.Invariant, "is pending but not in flight"},
		{swPaperFirst, walk.Invariant, "a paper job started while a quick one was pending"},
		{swKeepTenant, walk.Invariant, "is counted with 1 jobs in flight and holds 0"},
		{swWriteFailed, walk.Invariant, "document of q1 reached the durable layer"},
		{swForgetPending, walk.Deadlock, "no worker can move them"},
	} {
		_, f, _, err := walkScheduler(tc.fault)
		if err != nil || f == nil {
			t.Fatalf("fault %d: finding %v, err %v", tc.fault, f, err)
		}
		if f.Kind != tc.kind || !strings.Contains(f.Why, tc.why) {
			t.Errorf("fault %d: %s: %s; want %s: ...%s...", tc.fault, f.Kind, f.Why, tc.kind, tc.why)
		}
		m := newSWModel(tc.fault)
		if rf := walk.Replay(m.model(), m.root, f.Path); rf == nil || rf.Kind != f.Kind || rf.Why != f.Why {
			t.Errorf("fault %d: schedule %v replays to %+v", tc.fault, f.Path, rf)
		}
	}
}
