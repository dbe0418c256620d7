package experiments

import (
	"reflect"
	"testing"
)

// Drift tests: Quick() is the CLI's -quick smoke path and must keep
// covering everything Defaults() covers — every construct/protocol
// combination, the same traffic machine size, and the full machine-size
// range — only with fewer iterations. A field added to Options without
// updating Quick (leaving it zero) would silently hollow out the smoke
// path; the reflection sweep below catches that.

func TestQuickCoversDefaults(t *testing.T) {
	d, q := Defaults(), Quick()

	dv, qv := reflect.ValueOf(d), reflect.ValueOf(q)
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		switch name {
		case "Procs", "Runner", "Metrics", "Breakdown", "Memo", "Forks", "Dispatch":
			// Procs is checked structurally below; Runner, Metrics,
			// Breakdown, Memo, Forks, and Dispatch are execution/observation
			// policy, not experiment scale.
			continue
		}
		if dv.Field(i).Kind() != reflect.Int {
			t.Fatalf("Options.%s: unhandled kind %v — teach this test about it",
				name, dv.Field(i).Kind())
		}
		dn, qn := dv.Field(i).Int(), qv.Field(i).Int()
		if dn > 0 && qn <= 0 {
			t.Errorf("Options.%s: Defaults=%d but Quick=%d — quick path skips it", name, dn, qn)
		}
		if qn > dn {
			t.Errorf("Options.%s: Quick=%d exceeds Defaults=%d", name, qn, dn)
		}
	}

	if d.TrafficProcs != q.TrafficProcs {
		t.Errorf("TrafficProcs: Quick=%d, Defaults=%d — traffic figures run at a different machine size",
			q.TrafficProcs, d.TrafficProcs)
	}
	inDefaults := make(map[int]bool, len(d.Procs))
	for _, p := range d.Procs {
		inDefaults[p] = true
	}
	for _, p := range q.Procs {
		if !inDefaults[p] {
			t.Errorf("Quick sweeps P=%d, which Defaults never measures", p)
		}
	}
	if len(q.Procs) == 0 || len(d.Procs) == 0 {
		t.Fatal("empty Procs")
	}
	if q.Procs[0] != d.Procs[0] || q.Procs[len(q.Procs)-1] != d.Procs[len(d.Procs)-1] {
		t.Errorf("Quick procs %v do not span Defaults' endpoints %v", q.Procs, d.Procs)
	}
}

// TestQuickSweepsSameCombos regenerates the three latency sweeps at both
// option sets (iteration counts floored to keep the test fast) and
// requires identical combination lists: the quick path must exercise
// every (construct, protocol) pair the paper-scale path does.
func TestQuickSweepsSameCombos(t *testing.T) {
	floor := func(o Options) Options {
		o.LockIterations = 64
		o.BarrierEpisodes = 6
		o.ReductionEpisodes = 6
		o.Runner = nil
		return o
	}
	d, q := floor(Defaults()), floor(Quick())
	sweeps := map[string]func(Options) *LatencySweep{
		"fig8":  Figure8,
		"fig11": Figure11,
		"fig14": Figure14,
	}
	for name, fig := range sweeps {
		dc, qc := fig(d).Combos, fig(q).Combos
		if !reflect.DeepEqual(dc, qc) {
			t.Errorf("%s: Quick combos %v != Defaults combos %v", name, qc, dc)
		}
	}
}
