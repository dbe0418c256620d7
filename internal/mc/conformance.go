package mc

import (
	"fmt"
	"reflect"
	"slices"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

// The conformance driver is the bridge that keeps the model honest: it
// replays operation schedules through BOTH the model and the live
// proto.System on the real simulation engine, drains each operation to
// quiescence, and cross-checks the full stable state (directory, cache
// lines, memory, and the values reads/atomics returned) after every
// operation. Schedules are sequential — one operation completes before
// the next issues — so both sides process exactly one transaction at a
// time and their pictures of each block (proto.BlockDump) must be equal;
// any divergence means the model has drifted from the code it vouches
// for.

// ScheduleOp is one operation of a sequential conformance schedule.
type ScheduleOp struct {
	P           int
	Kind        OpKind
	Block, Word int
}

func (o ScheduleOp) String() string {
	return fmt.Sprintf("p%d %v b%d.w%d", o.P, o.Kind, o.Block, o.Word)
}

// Schedule is a sequential operation schedule.
type Schedule []ScheduleOp

func (s Schedule) String() string {
	out := ""
	for i, o := range s {
		if i > 0 {
			out += "; "
		}
		out += o.String()
	}
	return out
}

// modelStep issues op on the model and then drains it through the
// walker's interface: it applies the first enabled delivery, in
// (src, dst)-ascending order, until none is left, so the operation
// completes before the next one issues. It returns the drained state and
// the model's error, or "".
func modelStep(m protoModel, st *state, op ScheduleOp) (*state, string) {
	a := action{issue: true, p: uint8(op.P), kind: op.Kind, block: uint8(op.Block), word: uint8(op.Word)}
	for {
		var why string
		if st, why = m.apply(st, a); why != "" {
			return st, why
		}
		acts := m.enabled(st)
		i := slices.IndexFunc(acts, func(a action) bool { return !a.issue })
		if i < 0 {
			return st, ""
		}
		a = acts[i]
	}
}

// liveRunner drives a real proto.System one sequential operation at a
// time, reusing the engine and system across schedules via Reset.
type liveRunner struct {
	cfg Config
	e   *sim.Engine
	s   *proto.System
	// issued mirrors the model's per-processor issue counters so write
	// values match writeValue().
	issued [MaxProcs]uint8
	obs    observer
}

func newLiveRunner(cfg Config) *liveRunner {
	r := &liveRunner{cfg: cfg}
	r.e = sim.NewEngine()
	r.s = proto.NewSystem(r.e, cfg.Procs, r.protoConfig(), classify.New(cfg.Procs))
	return r
}

func (r *liveRunner) protoConfig() proto.Config {
	pc := proto.DefaultConfig(r.cfg.Protocol, r.cfg.Procs)
	pc.CUThreshold = r.cfg.CUThreshold
	pc.DisableRetention = r.cfg.DisableRetention
	return pc
}

// reset returns the runner to the initial state for the next schedule.
func (r *liveRunner) reset() error {
	if !r.e.Reset() {
		return fmt.Errorf("mc: engine refused reset (live tasks)")
	}
	r.s.Reset(r.protoConfig())
	r.issued = [MaxProcs]uint8{}
	r.obs = observer{}
	return nil
}

// step runs one operation to full quiescence on the real engine.
func (r *liveRunner) step(op ScheduleOp) error {
	addr := cache.Addr(uint32(op.Block)*cache.BlockBytes + uint32(op.Word)*cache.WordBytes)
	p := op.P
	switch op.Kind {
	case OpRead:
		r.e.Schedule(0, func() {
			r.s.Read(p, addr, func(v uint32) { r.obs.readVals = append(r.obs.readVals, uint8(v)) })
		})
	case OpWrite:
		v := uint32(writeValue(r.cfg, uint8(p), r.issued[p]))
		r.e.Schedule(0, func() { r.s.Write(p, addr, v, func() {}) })
	case OpAtomic:
		r.e.Schedule(0, func() {
			r.s.Atomic(p, addr, proto.FetchAdd, 1, 0, func(old uint32) {
				r.obs.atomOlds = append(r.obs.atomOlds, uint8(old))
			})
		})
	case OpFlush:
		r.e.Schedule(0, func() { r.s.FlushBlock(p, addr, func() {}) })
	default:
		return fmt.Errorf("mc: unknown schedule op kind %v", op.Kind)
	}
	r.issued[p]++
	r.e.Run() // drains every message before the next operation issues
	return nil
}

// compareStable cross-checks the model state against the live system at
// quiescence: each block's picture, as DumpBlock takes it of the system
// and the model's dump builds it, must be the same. It returns a
// description of the first divergence, or "".
func compareStable(cfg Config, st *state, s *proto.System) string {
	for b := 0; b < cfg.Blocks; b++ {
		impl, model := s.DumpBlock(uint32(b)), st.dump(cfg, b)
		if impl.Dir == nil {
			impl.Dir = &proto.DirDump{} // the live home never saw the block
		}
		if *impl.Dir != *model.Dir {
			return fmt.Sprintf("block %d: directory impl=%+v model=%+v", b, *impl.Dir, *model.Dir)
		}
		if !slices.Equal(impl.Memory, model.Memory) {
			return fmt.Sprintf("block %d: memory impl=%v model=%v", b, impl.Memory, model.Memory)
		}
		for p := range model.Lines {
			if !reflect.DeepEqual(impl.Lines[p], model.Lines[p]) {
				return fmt.Sprintf("block %d p%d: line impl=%+v model=%+v", b, p, impl.Lines[p], model.Lines[p])
			}
		}
	}
	return ""
}

// RunConformance replays every schedule through both the model and the
// live implementation, comparing stable states after each operation.
// Returns the number of schedules checked; the error identifies the
// first diverging schedule.
func RunConformance(cfg Config, scheds []Schedule) (int, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	runner := newLiveRunner(cfg)
	for i, sched := range scheds {
		if i > 0 {
			if err := runner.reset(); err != nil {
				return i, err
			}
		}
		st, obs := newState(cfg), &observer{}
		m := protoModel{cfg: cfg, obs: obs}
		for j, op := range sched {
			var why string
			if st, why = modelStep(m, st, op); why != "" {
				return i, fmt.Errorf("schedule %d (%v) op %d: model error: %s", i, sched, j, why)
			}
			// Live side: same operation, engine drained.
			if err := runner.step(op); err != nil {
				return i, fmt.Errorf("schedule %d (%v) op %d: %v", i, sched, j, err)
			}
			if why := compareStable(cfg, st, runner.s); why != "" {
				return i, fmt.Errorf("schedule %d (%v) op %d (%v): %s", i, sched, j, op, why)
			}
		}
		if !slices.Equal(obs.readVals, runner.obs.readVals) || !slices.Equal(obs.atomOlds, runner.obs.atomOlds) {
			return i, fmt.Errorf("schedule %d (%v): reads returned impl=%v model=%v, atomics impl=%v model=%v",
				i, sched, runner.obs.readVals, obs.readVals, runner.obs.atomOlds, obs.atomOlds)
		}
		if errs := runner.s.CheckCoherence(); len(errs) > 0 {
			return i, fmt.Errorf("schedule %d (%v): impl coherence check: %v", i, sched, errs[0])
		}
	}
	return len(scheds), nil
}

// GenerateSchedules enumerates sequential schedules over the config's
// operation alphabet (the issues the model enables in its initial
// state): every length-1 and length-2 schedule, then length-3 schedules
// strided deterministically until at least target schedules exist.
// Exhaustive short prefixes catch pairwise interactions; the strided
// tail adds three-op chains (e.g. populate, race, verify) without
// exploding the count.
func GenerateSchedules(cfg Config, target int) []Schedule {
	var alphabet []ScheduleOp
	for _, a := range (protoModel{cfg: cfg}).enabled(newState(cfg)) {
		alphabet = append(alphabet, ScheduleOp{P: int(a.p), Kind: a.kind, Block: int(a.block), Word: int(a.word)})
	}
	n := len(alphabet)
	var out []Schedule
	for i := 0; i < n; i++ {
		out = append(out, Schedule{alphabet[i]})
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out = append(out, Schedule{alphabet[i], alphabet[j]})
		}
	}
	total3 := n * n * n
	stride := 1
	if missing := target - len(out); missing > 0 {
		stride = total3 / missing
		if stride < 1 {
			stride = 1
		}
	}
	for idx := 0; idx < total3 && len(out) < target; idx += stride {
		i, rest := idx/(n*n), idx%(n*n)
		out = append(out, Schedule{alphabet[i], alphabet[rest/n], alphabet[rest%n]})
	}
	return out
}
