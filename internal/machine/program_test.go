package machine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coherencesim/internal/proto"
)

// eqvProg mirrors eqvBody step for step; the pair must produce
// byte-identical Results under both execution models.
type eqvProg struct {
	data Addr
	ctr  Addr
	flag Addr
	n    int
}

func eqvBody(g *eqvProg) func(p *Proc) {
	return func(p *Proc) {
		for i := 0; i < g.n; i++ {
			v := p.Read(g.data + Addr(4*(p.ID()%4)))
			p.Write(g.data+Addr(4*((p.ID()+1)%8)), v+1)
			p.Compute(5)
			p.FetchAdd(g.ctr, 1)
		}
		p.Fence()
		if p.ID() == 0 {
			p.Write(g.flag, 1)
		} else {
			p.SpinUntil(g.flag, func(v uint32) bool { return v == 1 })
		}
	}
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
	m := New(DefaultConfig(protocol, procs))
	g := &eqvProg{
		data: m.Alloc("data", 64, 0),
		ctr:  m.Alloc("ctr", 4, 0),
		flag: m.Alloc("flag", 4, 0),
		n:    20,
	}
	return m, g
}

// TestProgramMatchesClosure checks that the state-machine interpreter
// reproduces the legacy coroutine path exactly: simulated cycles,
// event counts, per-processor stats, misses, traffic — everything in
// Result — across all three protocols.
func TestProgramMatchesClosure(t *testing.T) {
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		t.Run(protocol.String(), func(t *testing.T) {
			m1, g1 := buildEqv(t, protocol, 8)
			legacy := m1.Run(eqvBody(g1))
			m2, g2 := buildEqv(t, protocol, 8)
			sm := m2.RunProgram(g2)
			if !reflect.DeepEqual(legacy, sm) {
				t.Errorf("results differ\nlegacy: %+v\nsm:     %+v", legacy, sm)
			}
			if m2.e.Handoffs() != 0 {
				t.Errorf("state-machine run performed %d goroutine hand-offs, want 0", m2.e.Handoffs())
			}
			if m1.e.Handoffs() == 0 {
				t.Errorf("legacy run reported no hand-offs; counter broken")
			}
		})
	}
}

// TestProgramMatchesClosurePolling covers the uncompressed spin model
// (SpinPollCycles ablation) where spinStep takes the StallFor arm.
func TestProgramMatchesClosurePolling(t *testing.T) {
	build := func() (*Machine, *eqvProg) {
		cfg := DefaultConfig(proto.WI, 8)
		cfg.SpinPollCycles = 30
		m := New(cfg)
		g := &eqvProg{
			data: m.Alloc("data", 64, 0),
			ctr:  m.Alloc("ctr", 4, 0),
			flag: m.Alloc("flag", 4, 0),
			n:    20,
		}
		return m, g
	}
	m1, g1 := build()
	legacy := m1.Run(eqvBody(g1))
	m2, g2 := build()
	sm := m2.RunProgram(g2)
	if !reflect.DeepEqual(legacy, sm) {
		t.Errorf("results differ\nlegacy: %+v\nsm:     %+v", legacy, sm)
	}
}

// TestNoClosureRunInInternal scans every non-test source file under
// internal/ for a .Run(...) call that takes a func(*Proc) literal: all
// experiments and workloads there are compiled to Programs, and the
// closure model survives only for the public facade, examples and
// tests. A straggler would silently pay goroutine hand-offs again.
func TestNoClosureRunInInternal(t *testing.T) {
	takesProc := func(lit *ast.FuncLit) bool {
		params := lit.Type.Params.List
		if len(params) != 1 {
			return false
		}
		star, ok := params[0].Type.(*ast.StarExpr)
		if !ok {
			return false
		}
		switch x := star.X.(type) {
		case *ast.Ident: // inside package machine
			return x.Name == "Proc"
		case *ast.SelectorExpr:
			return x.Sel.Name == "Proc"
		}
		return false
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Run" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok && takesProc(lit) {
					t.Errorf("%s: Machine.Run(closure) in internal/; compile the body to a Program and use RunProgram",
						fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("scanned only %d files; the walk no longer covers internal/", files)
	}
}
