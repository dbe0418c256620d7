package machine

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// eqvProg mixes every primitive: reads, writes, compute, atomics, a
// fence, and a flag hand-off the other processors spin on.
type eqvProg struct {
	data Addr
	ctr  Addr
	flag Addr
	n    int
}

// Step registers: I0 loop index.
func (g *eqvProg) Step(p *Proc, f *Frame) OpStatus {
	for {
		switch f.PC {
		case 0:
			if f.I0 >= g.n {
				f.PC = 4
				continue
			}
			f.PC = 1
			return p.FRead(g.data + Addr(4*(p.ID()%4)))
		case 1:
			f.PC = 2
			return p.FWrite(g.data+Addr(4*((p.ID()+1)%8)), p.Ret()+1)
		case 2:
			f.PC = 3
			if !p.FCompute(5) {
				return OpBlocked
			}
			fallthrough
		case 3:
			f.I0++
			f.PC = 0
			return p.FFetchAdd(g.ctr, 1)
		case 4:
			f.PC = 5
			return p.FFence()
		case 5:
			if p.ID() == 0 {
				f.PC = 6
				return p.FWrite(g.flag, 1)
			}
			f.PC = 6
			return p.FSpinUntilEqual(g.flag, 1)
		case 6:
			return OpDone
		default:
			panic("eqvProg bad pc")
		}
	}
}

func buildEqv(t *testing.T, protocol proto.Protocol, procs int) (*Machine, *eqvProg) {
	t.Helper()
	return buildEqvOn(DefaultConfig(protocol, procs))
}

// buildEqvOn is buildEqv on an explicit configuration.
func buildEqvOn(cfg Config) (*Machine, *eqvProg) {
	m := New(cfg)
	return m, allocEqv(m)
}

// allocEqv allocates an eqvProg's shared data on m.
func allocEqv(m *Machine) *eqvProg {
	return &eqvProg{
		data: m.Alloc("data", 64, 0),
		ctr:  m.Alloc("ctr", 4, 0),
		flag: m.Alloc("flag", 4, 0),
		n:    20,
	}
}

// frozenResults loads testdata/frozen_results.txt: one "case digest" line
// per reference run. The digests were produced once, at the last commit
// that still had the imperative closure model, by running that model —
// so the step functions are held to an implementation that no longer
// exists in the tree.
func frozenResults(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("testdata/frozen_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(doc)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed frozen row %q", line)
		}
		rows[name] = digest
	}
	return rows
}

// checkFrozen compares the digest of the full Result — cycles, events,
// per-processor stats, misses, traffic, metrics and breakdown snapshots —
// with the frozen row.
func checkFrozen(t *testing.T, rows map[string]string, name string, r Result) {
	t.Helper()
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := rows[name]
	if !ok {
		t.Fatalf("no frozen row %q", name)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != want {
		t.Errorf("%s: Result digest %s, frozen reference %s", name, got, want)
	}
}

// TestProgramMatchesClosure checks that the primitives reproduce the
// frozen closure-model reference exactly — simulated cycles, event
// counts, per-processor stats, misses, traffic, everything in Result —
// across all three protocols.
func TestProgramMatchesClosure(t *testing.T) {
	rows := frozenResults(t)
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		t.Run(protocol.String(), func(t *testing.T) {
			m, g := buildEqv(t, protocol, 8)
			checkFrozen(t, rows, "eqv/"+protocol.String(), m.RunProgram(g))
		})
	}
}

// TestProgramMatchesClosurePolling covers the uncompressed spin model
// (SpinPollCycles ablation) where spinStep takes the StallFor arm.
func TestProgramMatchesClosurePolling(t *testing.T) {
	cfg := DefaultConfig(proto.WI, 8)
	cfg.SpinPollCycles = 30
	m := New(cfg)
	g := &eqvProg{
		data: m.Alloc("data", 64, 0),
		ctr:  m.Alloc("ctr", 4, 0),
		flag: m.Alloc("flag", 4, 0),
		n:    20,
	}
	checkFrozen(t, frozenResults(t), "eqv-polling/WI", m.RunProgram(g))
}

// TestMagicStepsMatchFrozen holds the zero-traffic lock and barrier to
// their frozen references, with the metrics registry and the
// transaction tracer attached.
func TestMagicStepsMatchFrozen(t *testing.T) {
	rows := frozenResults(t)
	for _, pr := range allProtocols() {
		for _, procs := range []int{1, 2, 8, 32} {
			build := func() *Machine {
				cfg := DefaultConfig(pr, procs)
				cfg.Metrics = metrics.New(1000)
				cfg.Txn = trace.NewTracer(procs, 0)
				return New(cfg)
			}
			m := build()
			l := m.NewMagicLock()
			shared := m.Alloc("shared", 4, 0)
			checkFrozen(t, rows, fmt.Sprintf("magiclock/%v/p%d", pr, procs), m.RunProgram(seq(repeat(6,
				func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
				func(p *Proc, f *Frame) OpStatus { return p.FRead(shared) },
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(shared, p.Ret()+1) },
				func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) },
				compute(10),
			))))
			m = build()
			b := m.NewMagicBarrier()
			slots := m.Alloc("slots", 64*procs, -1)
			checkFrozen(t, rows, fmt.Sprintf("magicbarrier/%v/p%d", pr, procs), m.RunProgram(seq(repeat(6,
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(slots+Addr(64*p.ID()), uint32(f.I0)) },
				computeBy(func(p *Proc) sim.Time { return sim.Time(1 + 7*p.ID()) }),
				func(p *Proc, f *Frame) OpStatus { return b.FWait(p) },
			))))
		}
	}
}

// TestRunProgramPanicsOnStrandedProcessor: a stage that reports
// OpBlocked without having parked leaves its processor live with
// nothing queued to resume it. RunProgram must refuse to return the
// truncated Result, and the machine must then be unusable for reuse:
// Reset refuses it and Acquire drops it for a fresh one.
func TestRunProgramPanicsOnStrandedProcessor(t *testing.T) {
	cfg := DefaultConfig(proto.WI, 2)
	m := Acquire(cfg)
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "2 processor(s) unfinished") {
				t.Errorf("RunProgram returned or panicked with %q, want the unfinished-processor count", msg)
			}
		}()
		m.RunProgram(Steps{func(p *Proc, f *Frame) OpStatus { return OpBlocked }})
	}()
	if m.Reset(cfg) {
		t.Error("Reset accepted a machine with stranded processors")
	}
	m.Release()
	if got := Acquire(cfg); got == m {
		t.Error("Acquire handed out the machine with stranded processors")
	}
}

// TestNoClosureRunInInternal guards the single execution model: the
// simulation core runs entirely on the caller's goroutine, so no
// non-test file of these packages may start a goroutine or mention a
// channel type. It also keeps the core's state in order-defined slices:
// no file may mention a map type, except machine/pool.go, whose
// idle-machine pool is not simulation state. The name dates from the
// scan for closure-style Machine.Run calls that this check replaced;
// those no longer compile.
func TestNoClosureRunInInternal(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"sim", "machine", "constructs", "workload", "apps", "proto", "cache", "mem", "mesh", "classify"} {
		paths, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files++
			ast.Inspect(file, func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt:
					t.Errorf("%s: go statement in the simulation core", fset.Position(n.Pos()))
				case *ast.ChanType:
					t.Errorf("%s: channel type in the simulation core", fset.Position(n.Pos()))
				case *ast.MapType:
					if path != filepath.Join("..", "machine", "pool.go") {
						t.Errorf("%s: map type in the simulation core", fset.Position(n.Pos()))
					}
				}
				return true
			})
		}
	}
	if files < 30 {
		t.Fatalf("scanned only %d files; the walk no longer covers the simulation core", files)
	}
}
