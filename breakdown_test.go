package coherencesim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"coherencesim/internal/trace"
)

// Breakdown determinism tests: the stall-attribution breakdown is keyed
// purely to simulated time, so its rendered table, JSON document, and
// flow-linked timeline must be byte-identical at any runner worker
// count and across pooled machine reuse (Machine.Reset), exactly like
// the metrics and figure tables.

// renderBreakdown regenerates Figure 8 with the collector attached and
// returns the rendered table plus the JSON document.
func renderBreakdown(o ExperimentOptions) (string, string) {
	o.Breakdown = trace.NewBreakdownCollector()
	Figure8(o)
	rep := o.Breakdown.Report()
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		panic(err)
	}
	return rep.Table(), js.String()
}

func TestBreakdownParallelIsByteIdentical(t *testing.T) {
	tbl, js := renderBreakdown(determinismOptions())
	if tbl2, js2 := renderBreakdown(determinismOptions()); tbl2 != tbl || js2 != js {
		t.Fatalf("serial rerun differs — tracing perturbed the simulation\n%s", firstDiff(js, js2))
	}
	for _, workers := range []int{2, 3, 8} {
		o := determinismOptions()
		o.Runner = NewRunnerPool(workers)
		gotTbl, gotJS := renderBreakdown(o)
		if gotTbl != tbl {
			t.Errorf("workers=%d: breakdown table differs from serial\n%s", workers, firstDiff(tbl, gotTbl))
		}
		if gotJS != js {
			t.Errorf("workers=%d: breakdown JSON differs from serial\n%s", workers, firstDiff(js, gotJS))
		}
	}
}

// tracedFetchAddRun runs the golden fetch-add workload on m with a
// fresh tracer and returns the breakdown JSON and the flow-linked
// chrome timeline bytes.
func tracedFetchAddRun(t *testing.T, m *Machine) (string, string) {
	t.Helper()
	ctr := m.Alloc("ctr", 4, 0)
	res := m.RunProgram(fetchAddLoop(ctr, 20))
	if res.Breakdown == nil {
		t.Fatal("traced run produced no breakdown")
	}
	coll := trace.NewBreakdownCollector()
	coll.Add("reuse-check", res.Breakdown)
	var js bytes.Buffer
	if err := coll.Report().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	return js.String(), ""
}

func TestBreakdownMachineReuseIsByteIdentical(t *testing.T) {
	run := func(m *Machine, tr *trace.Tracer) (string, string) {
		js, _ := tracedFetchAddRun(t, m)
		var chrome bytes.Buffer
		if err := WriteTimeline(&chrome, tr, nil, "CU"); err != nil {
			t.Fatal(err)
		}
		return js, chrome.String()
	}

	cfg := DefaultConfig(CU, 8)
	cfg.Txn = trace.NewTracer(cfg.Procs, 0).StoreRecords()
	m := NewMachine(cfg)
	freshJS, freshChrome := run(m, cfg.Txn)

	// Same machine, reset with a fresh tracer: the pooled sweep-point path.
	cfg2 := DefaultConfig(CU, 8)
	cfg2.Txn = trace.NewTracer(cfg2.Procs, 0).StoreRecords()
	if !m.Reset(cfg2) {
		t.Fatal("machine Reset refused")
	}
	reusedJS, reusedChrome := run(m, cfg2.Txn)

	// And a brand-new machine for the fresh-vs-pooled comparison.
	cfg3 := DefaultConfig(CU, 8)
	cfg3.Txn = trace.NewTracer(cfg3.Procs, 0).StoreRecords()
	againJS, againChrome := run(NewMachine(cfg3), cfg3.Txn)

	if reusedJS != freshJS {
		t.Errorf("reset machine breakdown differs from fresh\n%s", firstDiff(freshJS, reusedJS))
	}
	if reusedChrome != freshChrome {
		t.Errorf("reset machine timeline differs from fresh\n%s", firstDiff(freshChrome, reusedChrome))
	}
	if againJS != freshJS || againChrome != freshChrome {
		t.Error("second fresh machine differs from first")
	}
}

// TestBreakdownIndependentOfStorage: a tracer that stores spans and
// stalls and the one a breakdown point gets, which only counts them,
// export byte-equal breakdowns — dropped counts included — on
// quick-scale 32-processor runs long enough to overflow both caps. Only
// the storing tracer has a timeline to write.
func TestBreakdownIndependentOfStorage(t *testing.T) {
	q := QuickScale()
	var dropped uint64
	for _, pr := range []Protocol{WI, PU, CU} {
		lock, bar, red := DefaultLockParams(pr, 32), DefaultBarrierParams(pr, 32), DefaultReductionParams(pr, 32)
		lock.Iterations, bar.Iterations, red.Iterations = q.LockIterations, q.BarrierEpisodes, q.ReductionEpisodes
		for _, c := range []struct {
			name string
			p    WorkloadParams
			run  func(WorkloadParams) Result
		}{
			{"lock/MCS", lock, func(p WorkloadParams) Result { return LockLoop(p, MCS).Result }},
			{"barrier/tree", bar, func(p WorkloadParams) Result { return BarrierLoop(p, Tree).Result }},
			{"reduction/sequential", red, func(p WorkloadParams) Result { return ReductionLoop(p, Sequential).Result }},
		} {
			label := c.name + "/" + pr.Short() + "/P=32"
			render := func(s *trace.BreakdownSnapshot) string {
				coll := trace.NewBreakdownCollector()
				coll.Add(label, s)
				var js bytes.Buffer
				if err := coll.Report().WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
				return js.String()
			}
			var counting, storing *trace.Tracer
			p := c.p
			p.Breakdown = true
			p.Tune = func(cfg *Config) { counting = cfg.Txn }
			res := c.run(p)
			want := render(res.Breakdown)
			p.Tune = func(cfg *Config) {
				storing = NewTimelineTracer(cfg.Procs)
				cfg.Txn = storing
			}
			if got := render(c.run(p).Breakdown); got != want {
				t.Errorf("%s: storing tracer's breakdown differs\n%s", label, firstDiff(want, got))
			}
			dropped += res.Breakdown.Dropped.Spans
			var tl bytes.Buffer
			if err := WriteTimeline(&tl, counting, nil, pr.String()); err == nil || tl.Len() != 0 {
				t.Errorf("%s: timeline of a counting tracer: err %v, %d bytes; want an error and nothing", label, err, tl.Len())
			}
			if err := WriteTimeline(&tl, storing, nil, pr.String()); err != nil || len(storing.Spans()) == 0 {
				t.Errorf("%s: timeline of the storing tracer: err %v, %d spans", label, err, len(storing.Spans()))
			}
		}
	}
	if dropped == 0 {
		t.Error("no run overflowed the span cap; the test no longer covers counting past it")
	}
}

// TestTimelineHoldsEveryStall: a timeline keeps every stall, past the
// 4 x DefaultSpanLimit stalls a breakdown's dropped count runs against.
// On every protocol, for a lock (read, write, fence, atomic and spin
// stalls) and a reduction over magic synchronization (sync waits), the
// stall slices of the written document sum, per processor and wait
// reason, to that processor's ProcStats totals; each lies inside the
// run, on a known processor.
func TestTimelineHoldsEveryStall(t *testing.T) {
	const procs = 16
	for _, pr := range []Protocol{WI, PU, CU} {
		lock, red := DefaultLockParams(pr, procs), DefaultReductionParams(pr, procs)
		lock.Iterations, red.Iterations = 3200, 480
		for _, c := range []struct {
			name string
			p    WorkloadParams
			run  func(WorkloadParams) Result
		}{
			{"lock/MCS", lock, func(p WorkloadParams) Result { return LockLoop(p, MCS).Result }},
			{"reduction/parallel", red, func(p WorkloadParams) Result { return ReductionLoop(p, Parallel).Result }},
		} {
			var tr *TxnTracer
			p := c.p
			p.Tune = func(cfg *Config) {
				tr = NewTimelineTracer(cfg.Procs)
				cfg.Txn = tr
			}
			res := c.run(p)
			var buf bytes.Buffer
			if err := WriteTimeline(&buf, tr, nil, pr.String()); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []struct {
					Ts, Dur uint64
					Tid     int
					Cat     string
					Args    struct{ Reason string }
				}
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			got := make([]map[string]uint64, procs)
			for i := range got {
				got[i] = map[string]uint64{}
			}
			stalls := 0
			for _, e := range doc.TraceEvents {
				if e.Cat != "stall" {
					continue
				}
				stalls++
				if e.Dur == 0 || e.Ts+e.Dur > uint64(res.Cycles) || e.Tid < 0 || e.Tid >= procs {
					t.Fatalf("%v %s: stall %+v is empty, past the run's %d cycles or on no processor", pr, c.name, e, res.Cycles)
				}
				got[e.Tid][e.Args.Reason] += e.Dur
			}
			if stalls <= 4*trace.DefaultSpanLimit {
				t.Errorf("%v %s: %d stalls; the run no longer passes the stall cap", pr, c.name, stalls)
			}
			for i, ps := range res.PerProc {
				want := map[string]uint64{
					"read-stall": uint64(ps.ReadStall), "write-stall": uint64(ps.WriteStall), "fence-stall": uint64(ps.FenceStall),
					"atomic-stall": uint64(ps.AtomicStall), "spin-wait": uint64(ps.SpinWait), "sync-wait": uint64(ps.SyncWait),
				}
				for reason, d := range want {
					if d == 0 {
						delete(want, reason)
					}
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%v %s: proc %d stall cycles by reason %v, ProcStats %v", pr, c.name, i, got[i], want)
				}
			}
		}
	}
}

// Golden breakdown tables: the quick-scale ticket-lock figure pinned
// per protocol. An intentional timing- or attribution-model change must
// regenerate the files (UPDATE_GOLDEN=1 go test -run TestGoldenBreakdownTable);
// unintentional drift fails loudly.
func TestGoldenBreakdownTable(t *testing.T) {
	for _, pr := range goldenProtocols {
		p := DefaultLockParams(pr, 4)
		p.Iterations = 400
		p.Breakdown = true
		res := LockLoop(p, Ticket)
		coll := trace.NewBreakdownCollector()
		coll.Add("lock/Ticket/P=4", res.Result.Breakdown)
		got := coll.Report().Table()

		path := filepath.Join("testdata", "breakdown_lock_"+pr.Short()+".golden")
		if os.Getenv("UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v: %v (regenerate with UPDATE_GOLDEN=1)", pr, err)
		}
		if got != string(want) {
			t.Errorf("%v: breakdown table drifted from %s\n%s\ngot:\n%s", pr, path, firstDiff(string(want), got), got)
		}
	}
}
