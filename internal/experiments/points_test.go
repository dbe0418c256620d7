package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// wireDispatcher executes each point through a full JSON round trip of
// both the Point and the PointResult — exactly what the fleet's HTTP
// hop does — so parity failures from lossy serialization show up here,
// not in a cluster.
func wireDispatcher(t *testing.T) PointDispatcher {
	return func(pts []Point) []PointResult {
		out := make([]PointResult, len(pts))
		for i, pt := range pts {
			wire, err := json.Marshal(pt)
			if err != nil {
				t.Fatal(err)
			}
			var decoded Point
			if err := json.Unmarshal(wire, &decoded); err != nil {
				t.Fatal(err)
			}
			res, err := RunPointForked(context.Background(), decoded, nil)
			if err != nil {
				t.Fatalf("RunPointForked(%+v): %v", decoded, err)
			}
			back, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(back, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
}

func pointsTiny() Options {
	return Options{
		Procs:             []int{1, 2, 4},
		TrafficProcs:      4,
		LockIterations:    128,
		BarrierEpisodes:   16,
		ReductionEpisodes: 16,
		Runner:            runner.New(4),
	}
}

// TestDispatcherParity pins the fabric's core guarantee at the figure
// level: a sweep whose points travel over the (simulated) wire renders
// byte-identically to the in-process sweep.
func TestDispatcherParity(t *testing.T) {
	sweep := func(run func(Options) *LatencySweep) func(Options) string {
		return func(o Options) string { return run(o).Table().String() }
	}
	figures := []struct {
		name  string
		table func(Options) string
	}{
		{"Figure8", sweep(Figure8)},
		{"Figure11", sweep(Figure11)},
		{"Figure14", sweep(Figure14)},
		{"ExtendedLockSweep", sweep(ExtendedLockSweep)},
		{"Apps", func(o Options) string {
			return fmt.Sprint(CompareWorkQueue(o).Table(), CompareJacobi(o).Table(), CompareNBody(o).Table())
		}},
	}
	for _, fig := range figures {
		t.Run(fig.name, func(t *testing.T) {
			local := fig.table(pointsTiny())
			od := pointsTiny()
			od.Dispatch = wireDispatcher(t)
			dispatched := fig.table(od)
			if dispatched != local {
				t.Errorf("dispatched table differs from local:\nlocal:\n%s\ndispatched:\n%s", local, dispatched)
			}
		})
	}
}

// TestDispatcherParityWithCollectors: metrics and breakdown reports are
// fed from the submission-ordered assembly loop, so they too must be
// byte-identical when points run remotely.
func TestDispatcherParityWithCollectors(t *testing.T) {
	render := func(o Options) (table, metricsJSON, breakdown string) {
		o.Metrics = metrics.NewCollector(500)
		o.Breakdown = trace.NewBreakdownCollector()
		table = Figure8(o).Table().String()
		var buf bytes.Buffer
		if err := o.Metrics.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return table, buf.String(), o.Breakdown.Report().Table()
	}
	lt, lm, lb := render(pointsTiny())
	od := pointsTiny()
	od.Dispatch = wireDispatcher(t)
	dt, dm, db := render(od)
	if dt != lt {
		t.Error("table differs under dispatcher with collectors attached")
	}
	if dm != lm {
		t.Errorf("metrics report differs under dispatcher:\nlocal:\n%s\ndispatched:\n%s", lm, dm)
	}
	if db != lb {
		t.Errorf("breakdown report differs under dispatcher:\nlocal:\n%s\ndispatched:\n%s", lb, db)
	}
}

// TestDispatcherParityWarmFork: warm-forked points run both phases
// privately on the remote side (RunPointForked without a memo), which
// must match the shared in-process memo byte-for-byte.
func TestDispatcherParityWarmFork(t *testing.T) {
	ol := pointsTiny()
	ol.Forks = NewPointMemo(PointStore(nil))
	local := Figure11(ol).Table().String()
	od := pointsTiny()
	od.Forks = NewPointMemo(PointStore(nil))
	od.Dispatch = wireDispatcher(t)
	dispatched := Figure11(od).Table().String()
	if dispatched != local {
		t.Errorf("warm-forked dispatched table differs from local:\nlocal:\n%s\ndispatched:\n%s", local, dispatched)
	}
}

// TestPointKeyStable: the content address ignores the diagnostic label
// and separates every simulation-shaping field.
func TestPointKeyStable(t *testing.T) {
	base := Point{Family: FamilyLock, Kind: int(workload.MCS), Protocol: proto.CU, Procs: 8, Iterations: 640}
	labeled := base
	labeled.Label = "fig8/MCS-c/P=8"
	if base.Key() != labeled.Key() {
		t.Error("Label changed the content address")
	}
	if len(base.Key()) != 64 || strings.ToLower(base.Key()) != base.Key() {
		t.Errorf("key %q is not lowercase hex sha256", base.Key())
	}
	seen := map[string]Point{}
	vary := []Point{
		base,
		{Family: FamilyBarrier, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations},
		{Family: FamilyLock, Kind: int(workload.Ticket), Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations},
		{Family: FamilyLock, Kind: base.Kind, Protocol: proto.WI, Procs: base.Procs, Iterations: base.Iterations},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: 16, Iterations: base.Iterations},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: 1280},
		{Family: FamilyLock, Kind: base.Kind, Variant: 1, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, Breakdown: true},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, WarmFork: true},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, MetricsInterval: 500},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, CUThreshold: 2},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, SpinPoll: 2},
		{Family: FamilyLock, Kind: base.Kind, Protocol: base.Protocol, Procs: base.Procs, Iterations: base.Iterations, NodeLoad: true},
		{Family: FamilyRetention, Protocol: proto.PU, Procs: base.Procs, Iterations: base.Iterations},
		{Family: FamilyRetention, Protocol: proto.PU, Procs: base.Procs, Iterations: base.Iterations, NoRetention: true},
	}
	for _, pt := range vary {
		k := pt.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %+v and %+v", prev, pt)
		}
		seen[k] = pt
	}
}

// TestParentPointsPinned pins the key and the result JSON of one point
// per family and variant, and of one carrying every older optional
// field, as they were before Point gained its run-shaping fields, the
// retention family and the node-load request: a field omitted at its
// default leaves every earlier key, and every result stored under it,
// valid in the point:v2: namespace.
func TestParentPointsPinned(t *testing.T) {
	for _, c := range []struct {
		pt          Point
		key, result string
	}{
		{Point{Family: FamilyLock, Kind: int(workload.MCS), Protocol: proto.CU, Procs: 4, Iterations: 64},
			"2f6e06956d517b8164a088951c5fd2b6cfb9d802e3862736d6a66adc58c910b1", "72819e9d532867ffdb2641c02beaa6554e40837dabcf02ac45204f62cb6eeaa5"},
		{Point{Family: FamilyLock, Kind: int(workload.Ticket), Variant: int(workload.RandomPause), Protocol: proto.PU, Procs: 4, Iterations: 64},
			"35b73c8da1221b60b8c69f8402a57af7a8e9db7addfbb75af9334ebf7bd684c3", "5f38ba348e9a84fdb703648398badd4a1aab3d4046c8c95fa901a39561bf91ac"},
		{Point{Family: FamilyLock, Kind: int(workload.TTAS), Variant: int(workload.WorkRatio), Protocol: proto.WI, Procs: 4, Iterations: 64},
			"412d3e1664ada74a6f7a29f4e2d38e20d9d4bf58a7a6500caa26e99eeba14752", "97ee5114b766b7ad27f5f3b73f61a1bc3a934e3fe7be70241efbee36ff4a3d38"},
		{Point{Family: FamilyBarrier, Kind: int(workload.Dissemination), Protocol: proto.CU, Procs: 4, Iterations: 16},
			"1a7c1842d75b2e5df16b5454c798e66cfd7e396619a6d0d80bb9090f05ea50ae", "d302cbae8c07f8ff847bb5e35154067f1ff52b89716d89422b2f08431721411e"},
		{Point{Family: FamilyReduction, Kind: int(workload.Sequential), Protocol: proto.PU, Procs: 4, Iterations: 16},
			"60bd59da2128d33eb16bb2face607855b3de6a11784cb9af2852f5ec8b783ab3", "75b7232afbd43593d4fbc622b4e209dc7ff35f5f841fd1b8df9d7df449db4211"},
		{Point{Family: FamilyReduction, Kind: int(workload.Parallel), Variant: 1, Protocol: proto.WI, Procs: 4, Iterations: 16},
			"c3f6f06c747b0a4d2e95e7ec9f5b70129fadb37773d2224f2329868fa8ed64a6", "34cedf23f05a4f738e456d0aee631fe1b8a316361abee82e471b57ff69f70816"},
		{Point{Family: FamilyApp, Kind: appWorkQueue, Variant: int(workload.UpdateConsciousMCS), Protocol: proto.CU, Procs: 4, Iterations: 32},
			"44def161b4cca97e338819f510c56b5d9df5fc9839bd51251067c67cb06d977e", "b0212bc1514c1c62218bc7924479f2c8f99683dd8f91493bce27197fb2c18101"},
		{Point{Family: FamilyApp, Kind: appJacobi, Variant: int(workload.Tree), Protocol: proto.PU, Procs: 4, Iterations: 4},
			"edfb4674d5a9428ef509e84b584655811fa0e85a8ad4957d59f13f14bac88fb4", "f9b1dcf08c81252949efbff1ee7f81ae9eb53dbc196698ea91ef379ac5feb248"},
		{Point{Family: FamilyApp, Kind: appNBody, Variant: int(workload.Parallel), Protocol: proto.WI, Procs: 4, Iterations: 4},
			"40de2f1d31716a4489f792c540ae60295fd38763e26a9650c98e35238cffec39", "1d4a7cb027599640d6fa43559991e27dec9e54dd2f0224481b153f4bc311cd64"},
		{Point{Family: FamilyBarrier, Kind: int(workload.Central), Protocol: proto.PU, Procs: 4, Iterations: 16, WarmFork: true, MetricsInterval: 100, Breakdown: true},
			"6044c167c5c180040d469e489662fa82d9bad4a42ca221004fae1f0139ff403e", "dde975d16a88298cc7a31620aca3835d273f5cf729730795c47f295dcd1abbae"},
	} {
		if k := c.pt.Key(); k != c.key {
			t.Errorf("%+v: key %s, pinned %s", c.pt, k, c.key)
		}
		res, err := c.pt.Simulate(nil)
		if err != nil {
			t.Fatalf("%+v: %v", c.pt, err)
		}
		doc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if sum := fmt.Sprintf("%x", sha256.Sum256(doc)); sum != c.result {
			t.Errorf("%+v: result JSON sha256 %s, pinned %s", c.pt, sum, c.result)
		}
	}
}

// malformedPoints are points no sweep builds. Each of the first nine
// was an unknown family, panicked, ran under a second key, or averaged
// to a NaN latency before Point validated its fields; the app points
// name a kernel or construct that does not exist, or a warm fork or
// machine setting no kernel has; the rest set a machine field their
// protocol never reads, poll past maxSpinPoll, or give the retention
// family a kind or a warm fork it does not have.
var malformedPoints = []Point{
	{Family: "bogus", Procs: 2, Iterations: 10},
	{Family: FamilyLock, Kind: 9, Procs: 2, Iterations: 10},
	{Family: FamilyBarrier, Kind: 9, Procs: 2, Iterations: 10},
	{Family: FamilyReduction, Kind: 9, Procs: 2, Iterations: 10},
	{Family: FamilyLock, Procs: 0, Iterations: 10},
	{Family: FamilyLock, Variant: 7, Procs: 2, Iterations: 10},
	{Family: FamilyLock, Protocol: 7, Procs: 2, Iterations: 10},
	{Family: FamilyLock, Procs: 4, Iterations: 3},
	{Family: FamilyBarrier, Procs: 2, Iterations: 0},
	{Family: FamilyApp, Kind: 9, Procs: 2, Iterations: 10},
	{Family: FamilyApp, Kind: appNBody, Variant: 2, Procs: 2, Iterations: 10},
	{Family: FamilyApp, Kind: appJacobi, Procs: 2, Iterations: 10, WarmFork: true},
	{Family: FamilyApp, Kind: appWorkQueue, Protocol: proto.CU, Procs: 2, Iterations: 10, CUThreshold: 2},
	{Family: FamilyLock, Protocol: proto.PU, Procs: 2, Iterations: 10, CUThreshold: 2},
	{Family: FamilyLock, Protocol: proto.CU, Procs: 2, Iterations: 10, NoRetention: true},
	{Family: FamilyLock, Procs: 2, Iterations: 10, SpinPoll: maxSpinPoll + 1},
	{Family: FamilyRetention, Kind: 1, Protocol: proto.PU, Procs: 2, Iterations: 10},
	{Family: FamilyRetention, Protocol: proto.PU, Procs: 2, Iterations: 10, WarmFork: true},
}

// TestRunPointUnknownFamily: a point this binary cannot execute — an
// unknown family, or a kind, variant, size, protocol or iteration count
// out of range — is a typed error, not a panic: the fleet turns it into
// a failed shard.
func TestRunPointUnknownFamily(t *testing.T) {
	for _, pt := range malformedPoints {
		if _, err := RunPointForked(context.Background(), pt, nil); err == nil {
			t.Errorf("%+v did not error", pt)
		}
	}
}

// TestRunPointsLocalFailsLoudly: the local path builds its own points,
// so one it cannot execute is a bug in the sweep — it must panic naming
// the point, not render a zero cell where the fleet path reports an
// error.
func TestRunPointsLocalFailsLoudly(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "Extended lock sweep/bogus-i/P=2") || !strings.Contains(msg, "out of range") {
			t.Errorf("panic = %q, want the point label and the runPoint error", msg)
		}
	}()
	o := Options{}
	o.runPoints([]Point{{
		Family: FamilyLock, Kind: 9, Protocol: proto.WI, Procs: 2,
		Iterations: 10, Label: "Extended lock sweep/bogus-i/P=2",
	}})
}

// FuzzPoint decodes arbitrary bytes into a Point, as a fleet worker
// does a shard's. A point that validates and is small enough to run
// here must simulate without panicking to a finite latency and a
// result that marshals; any other point must be refused with an error.
func FuzzPoint(f *testing.F) {
	seeds := append([]Point{
		{Family: FamilyLock, Kind: int(workload.TAS), Variant: int(workload.RandomPause), Protocol: proto.PU, Procs: 4, Iterations: 16, WarmFork: true},
		{Family: FamilyBarrier, Kind: int(workload.Tree), Protocol: proto.CU, Procs: 3, Iterations: 5, MetricsInterval: 100, Breakdown: true},
		{Family: FamilyReduction, Kind: int(workload.Parallel), Variant: 1, Protocol: proto.WI, Procs: 2, Iterations: 4},
		{Family: FamilyApp, Kind: appJacobi, Variant: int(workload.Dissemination), Protocol: proto.CU, Procs: 4, Iterations: 3},
		{Family: FamilyLock, Kind: int(workload.MCS), Protocol: proto.CU, Procs: 4, Iterations: 16, CUThreshold: 1},
		{Family: FamilyLock, Kind: int(workload.Ticket), Protocol: proto.WI, Procs: 4, Iterations: 16, SpinPoll: 2},
		{Family: FamilyLock, Kind: int(workload.Ticket), Protocol: proto.PU, Procs: 4, Iterations: 16, NodeLoad: true},
		{Family: FamilyRetention, Protocol: proto.PU, Procs: 3, Iterations: 4, NoRetention: true, NodeLoad: true},
	}, malformedPoints...)
	for _, pt := range seeds {
		b, err := json.Marshal(pt)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var pt Point
		if json.Unmarshal(b, &pt) != nil {
			return
		}
		if pt.validate() != nil {
			if _, err := RunPointForked(context.Background(), pt, nil); err == nil {
				t.Fatalf("%+v: invalid point ran", pt)
			}
			return
		}
		if pt.Iterations > 512/pt.Procs {
			return // valid, but too long to run here
		}
		res, err := RunPointForked(context.Background(), pt, nil)
		if err != nil {
			t.Fatalf("%+v: %v", pt, err)
		}
		if math.IsNaN(res.Latency) || math.IsInf(res.Latency, 0) {
			t.Fatalf("%+v: latency %v", pt, res.Latency)
		}
		if pt.NodeLoad != (len(res.Nodes) == pt.Procs) {
			t.Fatalf("%+v: %d node loads", pt, len(res.Nodes))
		}
		if _, err := json.Marshal(res); err != nil {
			t.Fatalf("%+v: result does not marshal: %v", pt, err)
		}
	})
}
