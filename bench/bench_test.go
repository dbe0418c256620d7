package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// A percentile is reported only while at least minBeyond samples lie
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n     int
		wantP float64 // 0 = none
	}{
		{1, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		p, v, ok := tailPercentile(seq(tc.n))
		if ok != (tc.wantP != 0) || p != tc.wantP {
			t.Errorf("n=%d: percentile %v (ok %v), want %v", tc.n, p, ok, tc.wantP)
			continue
		}
		if ok {
			// Samples are 1..n, so the value is its own rank.
			if beyond := tc.n - int(v); beyond < minBeyond {
				t.Errorf("n=%d: p%v = %v leaves only %d samples beyond", tc.n, p, v, beyond)
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The seed decides order only: the same seed gives the same inputs, and
// any seed gives the same multiset of work.
func TestSeedChangesOrderNotWork(t *testing.T) {
	if !reflect.DeepEqual(roundOrder(7), roundOrder(7)) {
		t.Error("roundOrder differs between two calls with one seed")
	}
	if reflect.DeepEqual(roundOrder(7), roundOrder(8)) {
		t.Error("roundOrder is the same for seeds 7 and 8")
	}
	iterations := func(seed int64) (lock, barrier, reduction int) {
		for _, v := range roundOrder(seed) {
			o := roundOptions(v)
			lock += o.LockIterations
			barrier += o.BarrierEpisodes
			reduction += o.ReductionEpisodes
		}
		return
	}
	l7, b7, r7 := iterations(7)
	l8, b8, r8 := iterations(8)
	if l7 != l8 || b7 != b8 || r7 != r8 {
		t.Errorf("cycle totals differ by seed: %d/%d/%d vs %d/%d/%d", l7, b7, r7, l8, b8, r8)
	}
	if o := roundOptions(warmupRound); o.LockIterations == roundOptions(0).LockIterations {
		t.Error("the warm-up round shares its lock iterations with round 0")
	}

	a, b, c := newMixPlan(7, 10, 100, 10), newMixPlan(7, 10, 100, 10), newMixPlan(8, 10, 100, 10)
	if !reflect.DeepEqual(a, b) {
		t.Error("newMixPlan differs between two calls with one seed")
	}
	if reflect.DeepEqual(a.PhaseA, c.PhaseA) {
		t.Error("newMixPlan phase A is the same for seeds 7 and 8")
	}
	for _, plan := range []mixPlan{a, c} {
		cold, replays := make([]int, len(plan.Specs)), make([]int, len(plan.Specs))
		finished := make([]bool, len(plan.Specs))
		for _, op := range plan.PhaseA {
			switch op.Kind {
			case opCold:
				cold[op.Spec]++
				finished[op.Spec] = true
			case opReplay:
				if !finished[op.Spec] {
					t.Fatalf("spec %d is replayed before its cold job", op.Spec)
				}
				replays[op.Spec]++
			}
		}
		for s := range plan.Specs {
			if cold[s] != 1 || replays[s] != 100 {
				t.Fatalf("spec %d: %d cold jobs and %d replays in phase A, want 1 and 100", s, cold[s], replays[s])
			}
		}
		if len(plan.Specs) != 30 || len(plan.Store) != 30 || len(plan.Memory) != 300 {
			t.Fatalf("plan has %d specs, %d store replays, %d memory replays", len(plan.Specs), len(plan.Store), len(plan.Memory))
		}
	}
	seen := map[mixSpec]bool{}
	for _, s := range a.Specs {
		if seen[s] {
			t.Errorf("spec %+v appears twice", s)
		}
		seen[s] = true
	}
	if got := figureOrder([]string{"a", "b", "c"}, 1, 0); len(got) != 3 {
		t.Errorf("figureOrder dropped names: %v", got)
	}
}

// Self time is the span minus the union of its children, clipped to it.
func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Start: ms(30), End: ms(60)},  // overlaps span 2
		{ID: 4, Parent: 1, Start: ms(80), End: ms(120)}, // runs past its parent
		{ID: 5, Parent: 3, Start: ms(30), End: ms(60)},  // covers span 3 entirely
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(30), 2: ms(30), 3: 0, 4: ms(40), 5: ms(30)} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}

	rec := newRecorder()
	root := rec.begin("workload", "w", 0, 0)
	fig := rec.begin("figure", "f", root, 0)
	pt := rec.begin("point", "p", fig, rec.groupOf(fig))
	rec.end(pt)
	rec.end(fig)
	rec.end(root)
	got := rec.snapshot()
	if got[2].Parent != fig || got[2].Group != got[1].Group || got[1].Group == got[0].Group {
		t.Errorf("point span should share the figure's group, not the workload's: %+v", got)
	}
	var none *recorder
	none.end(none.begin("figure", "f", 0, 0)) // the untraced run records nothing
	var sb strings.Builder
	if err := writeChrome(&sb, got); err != nil || !strings.Contains(sb.String(), `"traceEvents"`) {
		t.Errorf("writeChrome: %v, output %q", err, sb.String())
	}
}

// The wrapper counts requests and body bytes in both directions.
func TestMuxWrapCountsRequestsAndBytes(t *testing.T) {
	const reply = "0123456789"
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		io.WriteString(w, reply)
	})
	rec := newRecorder()
	wrap := newMuxWrap(stub, rec, nil)
	ts := httptest.NewServer(wrap)
	defer ts.Close()
	id := strings.Repeat("ab", 32)
	for _, req := range []struct{ path, body string }{
		{"/v1/fleet/poll", "abc"}, {"/v1/fleet/poll", "abcde"}, {"/v1/jobs/" + id + "/events", ""},
	} {
		resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	poll := wrap.route("/v1/fleet/poll")
	if poll.Requests != 2 || poll.ReqBytes != 8 || poll.RespBytes != 2*int64(len(reply)) || len(poll.Latency) != 2 {
		t.Errorf("poll route: %+v", poll)
	}
	if ev := wrap.route("/v1/jobs/*/events"); ev.Requests != 1 {
		t.Errorf("job ids are not folded into one route: %+v", wrap.routes)
	}
	if reqs, wire := wrap.totals(); reqs != 3 || wire != 8+3*int64(len(reply)) {
		t.Errorf("totals: %d requests, %d bytes", reqs, wire)
	}
	if n := len(rec.snapshot()); n != 3 {
		t.Errorf("%d request spans, want 3", n)
	}
}

// BENCHMARK.json, at the repository root, must say what the code does.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, ok := newWorkload(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	var e2e, layer []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%v\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
}

// Every unit the workloads can produce has its exact values committed,
// and the model-checker total is the repository baseline's.
func TestExpectedValuesAreComplete(t *testing.T) {
	keys := []string{"figures_long", "extended_figures", "service/10"}
	for v := 0; v < streamRounds; v++ {
		keys = append(keys, fmt.Sprintf("round/%d", v))
	}
	for _, k := range keys {
		if u, ok := expected.Units[k]; !ok || len(u.Digest) != 64 || u.SimCycles == 0 {
			t.Errorf("expected.json: entry %q missing or incomplete: %+v", k, u)
		}
	}
	raw, err := os.ReadFile("../mc_baseline.json")
	if err != nil {
		t.Skip("no mc_baseline.json beside the benchmark:", err)
	}
	var base struct{ Entries []struct{ States int } }
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range base.Entries {
		total += e.States
	}
	if total != expected.McStates {
		t.Errorf("mc_baseline.json totals %d states, expected.json says %d", total, expected.McStates)
	}
}

// A timing is normalised by the reference samples taken within
// speedWindow of its interval.
func TestSlowdownUsesSamplesAroundTheInterval(t *testing.T) {
	base := time.Now()
	at := func(s int) time.Time { return base.Add(time.Duration(s) * time.Second) }
	var sp speedometer
	for i, s := range []int{0, 2, 5, 8, 12} {
		sp.samples = append(sp.samples, speedSample{at: at(s), d: time.Duration(i+1) * refNominal})
	}
	// Interval 3..6 with a 2 s window reaches the samples at 2, 5 and 8.
	if got := sp.slowdown(at(3), at(6)); got != 3 {
		t.Errorf("slowdown = %v, want 3 (mean of samples 2, 3, 4)", got)
	}
	// Nothing within the window: the nearest sample stands in.
	if got := sp.slowdown(at(20), at(21)); got != 5 {
		t.Errorf("slowdown far after the last sample = %v, want 5", got)
	}
	if got := (&speedometer{}).slowdown(at(0), at(1)); got != 1 {
		t.Errorf("slowdown without samples = %v, want 1", got)
	}
	var none *speedometer
	if none.sampleIfDue(0) != 0 {
		t.Error("a nil speedometer sampled")
	}
}
