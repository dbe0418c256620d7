package coherencesim

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"coherencesim/internal/experiments"
	"coherencesim/internal/runner"
)

// Golden regression tests: exact simulated cycle counts for small
// deterministic runs. These pin the modeled machine's behaviour — an
// intentional timing-model change must update the constants, and any
// unintentional drift (protocol, network, or engine) fails loudly.
//
// The per-protocol runs fan out through the runner pool; the exact-count
// assertions therefore also pin the pool's determinism (a pooled run
// that perturbed a simulation would shift its cycle count).
//
// To regenerate after an intentional change:
//
//	go test -run TestGolden -v   (failures print got-vs-want)

var goldenProtocols = []Protocol{WI, PU, CU}

// goldenMap runs one simulation per protocol through a 3-worker pool and
// returns the cycle counts in protocol order.
func goldenMap(name string, run func(pr Protocol) uint64) []uint64 {
	jobs := make([]runner.Job[uint64], len(goldenProtocols))
	for i, pr := range goldenProtocols {
		pr := pr
		jobs[i] = runner.Job[uint64]{
			Label: fmt.Sprintf("golden/%s/%v", name, pr),
			Run:   func() uint64 { return run(pr) },
		}
	}
	return runner.Map(runner.New(3), jobs)
}

func goldenLock(pr Protocol) uint64 {
	p := DefaultLockParams(pr, 4)
	p.Iterations = 400
	return LockLoop(p, Ticket).Cycles
}

func goldenBarrier(pr Protocol) uint64 {
	p := DefaultBarrierParams(pr, 8)
	p.Iterations = 100
	return BarrierLoop(p, Dissemination).Cycles
}

func goldenFetchAdd(pr Protocol) uint64 {
	m := NewMachine(DefaultConfig(pr, 8))
	return m.RunProgram(fetchAddLoop(m.Alloc("ctr", 4, 0), 20)).Cycles
}

func TestGoldenLockLoop(t *testing.T) {
	want := map[Protocol]uint64{
		WI: 109287,
		PU: 50616,
		CU: 50616,
	}
	for i, cycles := range goldenMap("lock", goldenLock) {
		if pr := goldenProtocols[i]; cycles != want[pr] {
			t.Errorf("ticket/%v: %d cycles, want %d", pr, cycles, want[pr])
		}
	}
}

func TestGoldenBarrierLoop(t *testing.T) {
	want := map[Protocol]uint64{
		WI: 38945,
		PU: 17096,
		CU: 17096,
	}
	for i, cycles := range goldenMap("barrier", goldenBarrier) {
		if pr := goldenProtocols[i]; cycles != want[pr] {
			t.Errorf("dissemination/%v: %d cycles, want %d", pr, cycles, want[pr])
		}
	}
}

func TestGoldenFetchAddChain(t *testing.T) {
	want := map[Protocol]uint64{
		WI: 4706,
		PU: 9542,
		CU: 8330,
	}
	for i, cycles := range goldenMap("fetchadd", goldenFetchAdd) {
		if pr := goldenProtocols[i]; cycles != want[pr] {
			t.Errorf("fetchadd/%v: %d cycles, want %d", pr, cycles, want[pr])
		}
	}
}

// TestGoldenWarmForkFigure9 pins the two-phase run's bytes: figure 9 at
// quick scale with every point run as warm-up, then the rest, on one
// machine. The file was generated when sweeps still forked from warm-up
// checkpoints; the point memo must reproduce those bytes at any worker
// count.
func TestGoldenWarmForkFigure9(t *testing.T) {
	path := filepath.Join("testdata", "warmfork_fig9_quick.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		o := experiments.Quick()
		o.Forks = experiments.NewPointMemo(experiments.PointStore(nil))
		o.Runner = runner.New(workers)
		if got := fmt.Sprintln(experiments.Figure9(o).Table()); got != string(want) {
			t.Errorf("%d workers: warm-forked figure 9 drifted from %s\n%s\ngot:\n%s", workers, path, firstDiff(string(want), got), got)
		}
	}
}

// TestGoldenPrint regenerates the golden constants (always passes; run
// with -v to read the values).
func TestGoldenPrint(t *testing.T) {
	if !testing.Verbose() {
		t.Skip("run with -v to print golden values")
	}
	for _, pr := range goldenProtocols {
		fmt.Printf("lock/%v: %d\n", pr, goldenLock(pr))
		fmt.Printf("barrier/%v: %d\n", pr, goldenBarrier(pr))
		fmt.Printf("fetchadd/%v: %d\n", pr, goldenFetchAdd(pr))
	}
}

// The two examples written with the Steps builder print simulated
// cycles, misses and update counts; `go run` of each must reproduce its
// committed output byte for byte.
func TestExamplesReproduceGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles and runs the examples in -short mode")
	}
	for golden, args := range map[string][]string{
		"example_quickstart.golden":       {"run", "./examples/quickstart"},
		"example_stencil_p8.golden":       {"run", "./examples/stencil", "-procs", "8"},
		"example_appbench.golden":         {"run", "./examples/appbench"},
		"example_globalmax.golden":        {"run", "./examples/globalmax"},
		"example_lockadvisor_a640.golden": {"run", "./examples/lockadvisor", "-acquires", "640"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got, err := exec.Command("go", args...).Output()
		if err != nil {
			t.Fatalf("go %v: %v", args, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("go %v differs from testdata/%s:\n%s", args, golden, got)
		}
	}
}
