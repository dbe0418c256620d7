package coherencesim

import (
	"testing"
)

// benchOptions is a miniature experiment scale so each benchmark
// iteration regenerates a whole figure in tens of milliseconds while
// preserving the contention structure (32-processor traffic points).
// Sweeps run through a GOMAXPROCS-sized pool, matching the command's
// -parallel default; BenchmarkFigure8Serial keeps the serial reference.
func benchOptions() ExperimentOptions {
	return ExperimentOptions{
		Procs:             []int{4, 32},
		TrafficProcs:      32,
		LockIterations:    640,
		BarrierEpisodes:   60,
		ReductionEpisodes: 60,
		Runner:            NewRunnerPool(0),
	}
}

// BenchmarkFigure8 regenerates the lock latency sweep (paper figure 8).
func BenchmarkFigure8(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure8(o)
	}
}

// BenchmarkFigure8Serial is the pool-free baseline for BenchmarkFigure8;
// the ratio between the two is the experiment layer's parallel speedup
// on this host.
func BenchmarkFigure8Serial(b *testing.B) {
	o := benchOptions()
	o.Runner = nil
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure8(o)
	}
}

// BenchmarkFigure9 regenerates the lock miss-traffic breakdown (figure 9).
func BenchmarkFigure9(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure9(o)
	}
}

// BenchmarkFigure10 regenerates the lock update-traffic breakdown
// (figure 10).
func BenchmarkFigure10(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure10(o)
	}
}

// BenchmarkFigure11 regenerates the barrier latency sweep (figure 11).
func BenchmarkFigure11(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure11(o)
	}
}

// BenchmarkFigure12 regenerates the barrier miss-traffic breakdown
// (figure 12).
func BenchmarkFigure12(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure12(o)
	}
}

// BenchmarkFigure13 regenerates the barrier update-traffic breakdown
// (figure 13).
func BenchmarkFigure13(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure13(o)
	}
}

// BenchmarkFigure14 regenerates the reduction latency sweep (figure 14).
func BenchmarkFigure14(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure14(o)
	}
}

// BenchmarkFigure15 regenerates the reduction miss-traffic breakdown
// (figure 15).
func BenchmarkFigure15(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure15(o)
	}
}

// BenchmarkFigure16 regenerates the reduction update-traffic breakdown
// (figure 16).
func BenchmarkFigure16(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Figure16(o)
	}
}

// BenchmarkLockVariants regenerates the Section 4.1 variant experiments.
func BenchmarkLockVariants(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LockVariantRandomPause(o)
		LockVariantWorkRatio(o)
	}
}

// BenchmarkReductionVariant regenerates the Section 4.3 load-imbalance
// experiment.
func BenchmarkReductionVariant(b *testing.B) {
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ReductionVariantImbalanced(o)
	}
}

// BenchmarkAblations regenerates the DESIGN.md ablation studies.
func BenchmarkAblations(b *testing.B) {
	o := benchOptions()
	o.TrafficProcs = 8
	o.LockIterations = 320
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AblateCUThreshold(o, []uint8{1, 4, 16})
		AblatePURetention(o)
		AblateSpinModel(o, PU)
	}
}

// BenchmarkMachineEventThroughput measures raw simulator speed: events
// processed per wall-clock second on a contended fetch-and-add workload.
func BenchmarkMachineEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewMachine(DefaultConfig(CU, 32))
		ctr := m.Alloc("ctr", 4, 0)
		res := m.RunProgram(fetchAddLoop(ctr, 50))
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkReadHitIssue measures the per-instruction cost of the
// processor front end alone: a single processor reading a word it owns,
// so every access hits and no protocol traffic is generated. This is the
// floor the pending-cycle accumulator and typed event core set for any
// simulated instruction.
func BenchmarkReadHitIssue(b *testing.B) {
	b.ReportAllocs()
	m := NewMachine(DefaultConfig(WI, 1))
	x := m.Alloc("x", 4, 0)
	prog := Steps{
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(x, 7) },
		func(p *Proc, f *Frame) OpStatus { return p.FFence() },
		func(p *Proc, f *Frame) OpStatus { // re-enters itself b.N times
			if f.I0 == b.N {
				return OpDone
			}
			f.I0++
			f.PC = 2
			return p.FRead(x)
		},
	}
	b.ResetTimer()
	m.RunProgram(prog)
}

// BenchmarkSingleLockRun measures one MCS/CU lock workload at the
// paper's traffic size — the configuration the paper highlights as the
// best large-machine combination.
func BenchmarkSingleLockRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := DefaultLockParams(CU, 32)
		p.Iterations = 1600
		LockLoop(p, MCS)
	}
}
