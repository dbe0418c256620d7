package experiments

import (
	"strings"
	"testing"

	"coherencesim/internal/classify"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
)

// tiny returns a very small configuration so the full figure set runs in
// test time while keeping contention structure (32 processors for
// traffic figures). The fixed-size pool makes every sweep in this file
// exercise the pooled fan-out path regardless of the host's core count;
// the shape assertions below double as determinism checks because they
// depend on exact latencies and counts.
func tiny() Options {
	return Options{
		Procs:             []int{1, 2, 4, 32},
		TrafficProcs:      32,
		LockIterations:    640,
		BarrierEpisodes:   60,
		ReductionEpisodes: 60,
		Runner:            runner.New(4),
	}
}

// best returns the combination with the lowest latency at machine size p.
func best(s *LatencySweep, p int) string {
	min := s.Combos[0]
	for _, c := range s.Combos[1:] {
		if s.Latency[c][p] < s.Latency[min][p] {
			min = c
		}
	}
	return min
}

func TestFigure8ShapeMatchesPaper(t *testing.T) {
	s := Figure8(tiny())
	if len(s.Combos) != 9 {
		t.Fatalf("combos = %d, want 9", len(s.Combos))
	}
	// Paper: ticket under an update-based protocol is best at small
	// machine sizes. In our reproduction the tk/MCS crossover falls
	// between P=2 and P=4 (the paper's falls between 4 and 16), so the
	// ticket win is asserted at P=2 and the update-protocol win at P=4.
	if best := best(s, 2); !strings.HasPrefix(best, "tk-") || strings.HasSuffix(best, "-i") {
		t.Errorf("best at P=2 is %s; paper expects an update-based ticket lock", best)
	}
	if best := best(s, 4); strings.HasSuffix(best, "-i") {
		t.Errorf("best at P=4 is %s; expected an update-based combination", best)
	}
	// Paper: MCS under CU is best at 32 processors.
	if best := best(s, 32); best != "MCS-c" {
		t.Errorf("best at P=32 is %s; paper expects MCS-c", best)
	}
	// Paper: MCS under PU is the pathological combination at 32
	// processors - much worse than MCS under CU.
	if s.Latency["MCS-u"][32] < 2*s.Latency["MCS-c"][32] {
		t.Errorf("MCS-u (%.0f) not clearly worse than MCS-c (%.0f) at P=32",
			s.Latency["MCS-u"][32], s.Latency["MCS-c"][32])
	}
	// Ticket under WI degrades hard with machine size.
	if s.Latency["tk-i"][32] < 2*s.Latency["tk-u"][32] {
		t.Errorf("tk-i (%.0f) should be far worse than tk-u (%.0f) at P=32",
			s.Latency["tk-i"][32], s.Latency["tk-u"][32])
	}
}

func TestFigure9And10LockTraffic(t *testing.T) {
	o := tiny()
	m := Figure9(o)
	u := Figure10(o)
	if len(m.Combos) != 9 || len(u.Combos) != 6 {
		t.Fatalf("combo counts %d, %d", len(m.Combos), len(u.Combos))
	}
	// WI ticket lock: large miss counts (the ping-pong the paper
	// describes); update-based ticket: almost no misses.
	if m.Counts["tk-i"].TotalMisses() < 20*m.Counts["tk-u"].TotalMisses() {
		t.Errorf("tk-i misses (%d) should dwarf tk-u misses (%d)",
			m.Counts["tk-i"].TotalMisses(), m.Counts["tk-u"].TotalMisses())
	}
	// Paper: the vast majority of lock updates are useless.
	for _, c := range []string{"tk-u", "MCS-u"} {
		uc := u.Counts[c]
		if uc.Useful()*2 > uc.Total() {
			t.Errorf("%s: useful updates %d of %d; paper expects mostly useless",
				c, uc.Useful(), uc.Total())
		}
	}
	// Paper: the update-conscious MCS lock reduces update messages but
	// increases miss activity under PU.
	if u.Counts["uc-u"].Total() >= u.Counts["MCS-u"].Total() {
		t.Errorf("uc-u updates (%d) not below MCS-u (%d)",
			u.Counts["uc-u"].Total(), u.Counts["MCS-u"].Total())
	}
	if m.Counts["uc-u"].TotalMisses() <= m.Counts["MCS-u"].TotalMisses() {
		t.Errorf("uc-u misses (%d) not above MCS-u (%d)",
			m.Counts["uc-u"].TotalMisses(), m.Counts["MCS-u"].TotalMisses())
	}
	// WI generates no updates at all.
	for _, c := range []string{"tk-i", "MCS-i", "uc-i"} {
		if m.Counts[c].Total() == 0 {
			t.Errorf("%s: no communication recorded", c)
		}
	}
}

func TestFigure11ShapeMatchesPaper(t *testing.T) {
	s := Figure11(tiny())
	if len(s.Combos) != 9 {
		t.Fatalf("combos = %d", len(s.Combos))
	}
	// Paper: dissemination under an update-based protocol is the choice
	// for all machine sizes.
	for _, p := range []int{4, 32} {
		best := best(s, p)
		if best != "db-u" && best != "db-c" {
			t.Errorf("best at P=%d is %s; paper expects db-u/db-c", p, best)
		}
	}
	// Paper: db and tb under PU/CU beat their WI counterparts at all sizes.
	for _, b := range []string{"db", "tb"} {
		for _, p := range []int{4, 32} {
			if s.Latency[b+"-u"][p] >= s.Latency[b+"-i"][p] {
				t.Errorf("%s-u (%.0f) not better than %s-i (%.0f) at P=%d",
					b, s.Latency[b+"-u"][p], b, s.Latency[b+"-i"][p], p)
			}
		}
	}
	// Paper: for centralized barriers WI wins only at large sizes.
	if s.Latency["cb-i"][32] >= s.Latency["cb-u"][32] {
		t.Errorf("cb-i (%.0f) should beat cb-u (%.0f) at P=32",
			s.Latency["cb-i"][32], s.Latency["cb-u"][32])
	}
	if s.Latency["cb-i"][4] <= s.Latency["cb-u"][4] {
		t.Errorf("cb-u (%.0f) should beat cb-i (%.0f) at P=4",
			s.Latency["cb-u"][4], s.Latency["cb-i"][4])
	}
}

func TestFigure12And13BarrierTraffic(t *testing.T) {
	o := tiny()
	m := Figure12(o)
	u := Figure13(o)
	// Paper: scalable barriers have nearly no useless updates.
	for _, c := range []string{"db-u", "db-c", "tb-u", "tb-c"} {
		uc := u.Counts[c]
		if uc.Total() == 0 {
			t.Errorf("%s: no updates recorded", c)
			continue
		}
		if float64(uc.Useful()) < 0.95*float64(uc.Total()) {
			t.Errorf("%s: useful %d of %d; paper expects almost all useful",
				c, uc.Useful(), uc.Total())
		}
	}
	// Paper: the centralized barrier's update traffic is substantial and
	// mostly useless (the arrival-counter changes).
	cb := u.Counts["cb-u"]
	if cb.Useful()*2 > cb.Total() {
		t.Errorf("cb-u: useful %d of %d; paper expects mostly useless", cb.Useful(), cb.Total())
	}
	// Update-based scalable barriers have negligible misses; WI has many.
	if m.Counts["db-u"].TotalMisses()*10 > m.Counts["db-i"].TotalMisses() {
		t.Errorf("db-u misses (%d) should be tiny next to db-i (%d)",
			m.Counts["db-u"].TotalMisses(), m.Counts["db-i"].TotalMisses())
	}
}

func TestFigure14ShapeMatchesPaper(t *testing.T) {
	s := Figure14(tiny())
	if len(s.Combos) != 6 {
		t.Fatalf("combos = %d", len(s.Combos))
	}
	// Paper: under WI, parallel beats sequential (tight synchronization).
	if s.Latency["pr-i"][32] >= s.Latency["sr-i"][32] {
		t.Errorf("pr-i (%.0f) not better than sr-i (%.0f) at P=32",
			s.Latency["pr-i"][32], s.Latency["sr-i"][32])
	}
	// Paper: under update-based protocols sequential wins at scale.
	if s.Latency["sr-u"][32] >= s.Latency["pr-u"][32] {
		t.Errorf("sr-u (%.0f) not better than pr-u (%.0f) at P=32",
			s.Latency["sr-u"][32], s.Latency["pr-u"][32])
	}
	// Paper: update-based sequential beats WI parallel.
	if s.Latency["sr-u"][32] >= s.Latency["pr-i"][32] {
		t.Errorf("sr-u (%.0f) not better than pr-i (%.0f) at P=32",
			s.Latency["sr-u"][32], s.Latency["pr-i"][32])
	}
}

func TestFigure15And16ReductionTraffic(t *testing.T) {
	o := tiny()
	m := Figure15(o)
	u := Figure16(o)
	// Paper: reductions show a large share of useful updates.
	for _, c := range []string{"sr-u", "pr-u"} {
		uc := u.Counts[c]
		if uc.Total() == 0 {
			t.Errorf("%s: no updates", c)
			continue
		}
		if float64(uc.Useful()) < 0.3*float64(uc.Total()) {
			t.Errorf("%s: useful %d of %d; paper expects a large useful share",
				c, uc.Useful(), uc.Total())
		}
	}
	// WI reductions miss heavily; update-based barely.
	if m.Counts["sr-u"].TotalMisses()*10 > m.Counts["sr-i"].TotalMisses() {
		t.Errorf("sr-u misses (%d) should be tiny next to sr-i (%d)",
			m.Counts["sr-u"].TotalMisses(), m.Counts["sr-i"].TotalMisses())
	}
}

func TestVariantSweepsRun(t *testing.T) {
	o := tiny()
	o.Procs = []int{4}
	for _, s := range []*LatencySweep{
		LockVariantRandomPause(o),
		LockVariantWorkRatio(o),
		ReductionVariantImbalanced(o),
	} {
		for _, c := range s.Combos {
			if s.Latency[c][4] <= 0 {
				t.Errorf("%s %s: non-positive latency", s.Figure, c)
			}
		}
	}
}

func TestReductionImbalancedFavorsParallel(t *testing.T) {
	// Paper (Section 4.3): with load imbalance, parallel reductions
	// become more efficient than sequential ones, and pr under PU/CU
	// beats pr under WI.
	o := tiny()
	o.Procs = []int{32}
	s := ReductionVariantImbalanced(o)
	if s.Latency["pr-u"][32] >= s.Latency["pr-i"][32] {
		t.Errorf("imbalanced: pr-u (%.0f) not better than pr-i (%.0f)",
			s.Latency["pr-u"][32], s.Latency["pr-i"][32])
	}
}

func TestTablesRender(t *testing.T) {
	o := tiny()
	o.Procs = []int{4}
	o.TrafficProcs = 4
	s := Figure8(o)
	out := s.Table().String()
	if !strings.Contains(out, "tk-i") || !strings.Contains(out, "P=4") {
		t.Errorf("latency table missing content:\n%s", out)
	}
	mb := Figure9(o)
	if !strings.Contains(mb.Table().String(), "excl-req") {
		t.Error("miss table missing category header")
	}
	ub := Figure10(o)
	if !strings.Contains(ub.Table().String(), "prolif") {
		t.Error("update table missing category header")
	}
}

func TestAblations(t *testing.T) {
	o := tiny()
	o.TrafficProcs = 8
	o.LockIterations = 320

	cu := AblateCUThreshold(o, []uint8{1, 4, 16})
	if len(cu.Latency) != 3 {
		t.Fatalf("threshold sweep incomplete: %+v", cu.Latency)
	}
	// A threshold of 1 drops on every update: more drop misses than
	// threshold 16.
	if cu.DropMisses[1] <= cu.DropMisses[16] {
		t.Errorf("drop misses thr=1 (%d) not above thr=16 (%d)",
			cu.DropMisses[1], cu.DropMisses[16])
	}
	if !strings.Contains(cu.Table().String(), "thr=4") {
		t.Error("threshold table missing row")
	}

	ret := AblatePURetention(o)
	// Retention saves write-throughs on the repeatedly rewritten,
	// unshared queue nodes.
	if ret.WriteThroughOn >= ret.WriteThroughOff {
		t.Errorf("retention on write-throughs (%d) not below off (%d)",
			ret.WriteThroughOn, ret.WriteThroughOff)
	}
	if !strings.Contains(ret.Table().String(), "retention on") {
		t.Error("retention table missing row")
	}

	for _, pr := range []proto.Protocol{proto.WI, proto.PU} {
		spin := AblateSpinModel(o, pr)
		// Both spin models must generate identical coherence traffic.
		if spin.MissesWatch != spin.MissesPoll {
			t.Errorf("%v: miss counts differ: %d vs %d", pr, spin.MissesWatch, spin.MissesPoll)
		}
		if spin.UpdatesWatch != spin.UpdatesPoll {
			t.Errorf("%v: update counts differ: %d vs %d", pr, spin.UpdatesWatch, spin.UpdatesPoll)
		}
		if !strings.Contains(spin.Table().String(), "compressed") {
			t.Error("spin table missing row")
		}
	}
}

var _ = classify.MissCold

func TestExtendedLockSweep(t *testing.T) {
	o := tiny()
	o.Procs = []int{2, 32}
	s := ExtendedLockSweep(o)
	if len(s.Combos) != 15 {
		t.Fatalf("combos = %d, want 15", len(s.Combos))
	}
	// Queue-based locks beat the naive spin locks at heavy contention
	// under WI (the Mellor-Crummey & Scott motivation).
	if s.Latency["MCS-i"][32] >= s.Latency["tas-i"][32] {
		t.Errorf("MCS-i (%.0f) not better than tas-i (%.0f) at P=32",
			s.Latency["MCS-i"][32], s.Latency["tas-i"][32])
	}
	for _, c := range s.Combos {
		if s.Latency[c][2] <= 0 {
			t.Errorf("%s: non-positive latency", c)
		}
	}
}

func TestContentionAnalysis(t *testing.T) {
	o := tiny()
	for _, pr := range []proto.Protocol{proto.WI, proto.PU} {
		r := AnalyzeLockContention(o, pr)
		// The ticket lock's counters live at node 0: it must be the
		// hotspot, and far above the mean.
		if r.HotNode != 0 {
			t.Errorf("%v: hotspot at node %d, want 0", pr, r.HotNode)
		}
		if float64(r.HotFlits) < 2*r.MeanFlits {
			t.Errorf("%v: hotspot (%d flits) not clearly above mean (%.0f)",
				pr, r.HotFlits, r.MeanFlits)
		}
		if len(r.TopNodes) == 0 || r.TopNodes[0] != 0 {
			t.Errorf("%v: top nodes %v", pr, r.TopNodes)
		}
		if out := r.Table().String(); !strings.Contains(out, "NI flits") {
			t.Errorf("%v: table missing rows:\n%s", pr, out)
		}
	}
}

func TestAppComparisons(t *testing.T) {
	o := tiny()
	o.TrafficProcs = 8

	wq := CompareWorkQueue(o)
	if len(wq.Combos) != 9 {
		t.Fatalf("workqueue combos %d", len(wq.Combos))
	}
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		if wq.Winner[pr] == "" {
			t.Errorf("workqueue: no winner for %v", pr)
		}
	}
	if !strings.Contains(wq.Table().String(), "winner per protocol") {
		t.Error("workqueue table missing winners")
	}

	jb := CompareJacobi(o)
	if len(jb.Combos) != 9 {
		t.Fatalf("jacobi combos %d", len(jb.Combos))
	}
	// The figure-11 conclusion at app level: under PU the winner is a
	// scalable barrier, not the centralized one.
	if jb.Winner[proto.PU] == "cb" {
		t.Errorf("jacobi PU winner is the centralized barrier")
	}

	nb := CompareNBody(o)
	if len(nb.Combos) != 6 {
		t.Fatalf("nbody combos %d", len(nb.Combos))
	}
}

func TestCSVExports(t *testing.T) {
	o := tiny()
	o.Procs = []int{4}
	o.TrafficProcs = 4
	s := Figure8(o)
	csv := s.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 10 { // header + 9 combos
		t.Fatalf("latency CSV rows %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "combo,P=4") {
		t.Errorf("latency CSV header %q", lines[0])
	}
	mcsv := Figure9(o).CSV()
	if !strings.Contains(mcsv, "cold,true,false") {
		t.Errorf("miss CSV header wrong:\n%s", mcsv)
	}
	ucsv := Figure10(o).CSV()
	if !strings.Contains(ucsv, "useful,false,proliferation") {
		t.Errorf("update CSV header wrong:\n%s", ucsv)
	}
	// Every data line has the same field count as its header.
	for _, block := range []string{csv, mcsv, ucsv} {
		ls := strings.Split(strings.TrimSpace(block), "\n")
		want := strings.Count(ls[0], ",")
		for _, l := range ls[1:] {
			if strings.Count(l, ",") != want {
				t.Errorf("ragged CSV line %q", l)
			}
		}
	}
}
