package main

import (
	"math/rand"

	"coherencesim/internal/experiments"
)

// Everything a workload runs is generated here from the seed. The seed
// only ever changes *order* (which round comes when, which figure is
// rendered first, which finished job is replayed next): the multiset of
// work is the same for every seed, so timings from different seeds are
// comparable and the exact counts in expected.json hold for all of them.

// streamRounds is the length of one stream cycle.
const streamRounds = 12

// roundOrder returns the seed's permutation of the round values
// 0..streamRounds-1.
func roundOrder(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(streamRounds)
}

// roundOptions returns the quick-scale options of round value v. Every
// value has its own iteration counts, so no two rounds of a cycle share
// a point (or a warm checkpoint), while a full cycle's total is fixed.
func roundOptions(v int) experiments.Options {
	o := experiments.Quick()
	o.LockIterations = 1600 + 32*v
	o.BarrierEpisodes = 250 + v
	o.ReductionEpisodes = 250 + v
	return o
}

// warmupRound is a round value outside 0..streamRounds-1, used for the
// discarded warm-up so it leaves no checkpoint a timed round could
// reuse.
const warmupRound = -1

// figureOrder returns names shuffled for unit number unit of this seed.
func figureOrder(names []string, seed int64, unit int) []string {
	out := append([]string(nil), names...)
	r := rand.New(rand.NewSource(seed*1000003 + int64(unit)))
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// mixSpec is one service job: a quick-scale figure with the family's
// sampling interval, optionally with the stall breakdown.
type mixSpec struct {
	Experiment      string
	MetricsInterval uint64
	Breakdown       bool
}

// figureFamilies are the three figure groups whose members share their
// simulation points (latency sweep, miss traffic, update traffic).
var figureFamilies = [][]string{
	{"fig8", "fig9", "fig10"},
	{"fig11", "fig12", "fig13"},
	{"fig14", "fig15", "fig16"},
}

// mixSpecs returns the job specs of a mix with the given number of
// families, in canonical order. Family f takes figure group
// (f + f/3) mod 3 and its own metrics interval, so all specs are
// distinct; every third family also asks for the breakdown, landing on
// a different group each time.
func mixSpecs(families int) []mixSpec {
	var out []mixSpec
	for f := 0; f < families; f++ {
		for _, name := range figureFamilies[(f+f/3)%3] {
			out = append(out, mixSpec{
				Experiment:      name,
				MetricsInterval: 20000 + 2500*uint64(f),
				Breakdown:       f%3 == 2,
			})
		}
	}
	return out
}

type opKind int

const (
	opCold   opKind = iota // first POST of a spec: queue, simulate, store
	opReplay               // re-POST of a finished spec
)

// mixOp is one client operation; Spec indexes mixSpecs.
type mixOp struct {
	Kind opKind
	Spec int
}

// mixPlan is the seeded operation list of one service_mix pass.
type mixPlan struct {
	Specs  []mixSpec
	PhaseA []mixOp // cold jobs interleaved with memory replays
	Store  []int   // phase B: one re-POST per spec right after the restart
	Memory []int   // phase B: further re-POSTs, served from memory again
}

// newMixPlan builds the plan. Phase A submits the specs cold in a seeded
// order; after each job finishes it replays replaysA finished specs
// (seeded choice among those with replays left), and after the last job
// it drains what remains, so every spec is replayed exactly replaysA
// times whatever the seed. Phase B re-POSTs every spec once in a seeded
// order, then replaysB more times each, shuffled.
func newMixPlan(seed int64, families, replaysA, replaysB int) mixPlan {
	r := rand.New(rand.NewSource(seed))
	specs := mixSpecs(families)
	plan := mixPlan{Specs: specs}
	left := make([]int, len(specs))
	var finished []int // specs with replays left
	pick := func() int {
		i := r.Intn(len(finished))
		s := finished[i]
		if left[s]--; left[s] == 0 {
			finished[i] = finished[len(finished)-1]
			finished = finished[:len(finished)-1]
		}
		return s
	}
	for _, s := range r.Perm(len(specs)) {
		plan.PhaseA = append(plan.PhaseA, mixOp{opCold, s})
		if left[s] = replaysA; replaysA > 0 {
			finished = append(finished, s)
		}
		for k := 0; k < replaysA && len(finished) > 0; k++ {
			plan.PhaseA = append(plan.PhaseA, mixOp{opReplay, pick()})
		}
	}
	for len(finished) > 0 {
		plan.PhaseA = append(plan.PhaseA, mixOp{opReplay, pick()})
	}
	plan.Store = r.Perm(len(specs))
	for k := 0; k < replaysB; k++ {
		plan.Memory = append(plan.Memory, r.Perm(len(specs))...)
	}
	return plan
}
