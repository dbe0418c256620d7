package coherencesim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNoUnreferencedInternalAPI keeps dead API from accumulating: every
// exported package-level function, method, type, constant and variable
// declared under internal/ must be referenced by at least one non-test
// file of the module (cmd/, the facade, examples/, other internal
// packages) or of bench/. It parses and type-checks those files with the
// standard library alone (source importer, nothing downloaded).
//
// A reference from inside the identifier's own declaration, or from a
// method of the type itself, does not count. Methods a type needs to
// satisfy one of the module's own interfaces (or fmt.Stringer, error,
// json.Marshaler, http.Handler, sort.Interface, rand.Source64, anything
// in io) are exempt; struct fields are out of scope.
//
// An identifier only tests use is deleted with those tests, or — when a
// test in another package cannot do without it — listed in
// unreferencedAllowed with the test that needs it.

// unreferencedAllowed is the allowlist, at most 15 entries. Each is
// "pkg.Name" or "pkg.Type.Method" with the test that needs it; an entry
// that is referenced after all, or no longer declared, fails the guard.
var unreferencedAllowed = map[string]string{
	// The model checker judges the pictures it already holds
	// (proto.CheckBlock); the integration tests check whole machines,
	// whose directory entries only proto can enumerate.
	"proto.System.CheckCoherence": "integration_test.go: TestParallelHistogram, TestIterativeSolver, TestProducerConsumerPipeline, TestAllConstructsOneProgram",
}

const (
	guardModule     = "coherencesim"
	guardMaxAllowed = 15
)

// guardLoader type-checks the module's packages on demand, resolving an
// import path under the module prefix to its directory (which also
// covers bench/, a module of its own at coherencesim/bench) and
// everything else through the standard library's source importer.
type guardLoader struct {
	root string
	fset *token.FileSet
	std  types.Importer
	info *types.Info
	pkgs map[string]*guardPkg
}

type guardPkg struct {
	path  string
	files []*ast.File
	types *types.Package
}

func (l *guardLoader) Import(path string) (*types.Package, error) {
	if path != guardModule && !strings.HasPrefix(path, guardModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p.types, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, guardModule)))
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	p := &guardPkg{path: path}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	conf := types.Config{Importer: l, GoVersion: "go1.22"}
	p.types, err = conf.Check(path, l.fset, p.files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p.types, nil
}

// originOf maps a method or field of an instantiated generic type back
// to its declaration, so a call through an instantiation counts as a
// reference to the method as written.
func originOf(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// guardDecl is one package-level identifier a declaration introduces; recv
// is the receiver's type when it is a method.
type guardDecl struct {
	id   *ast.Ident
	recv *types.TypeName
}

// declaredBy lists what a top-level declaration introduces.
func declaredBy(info *types.Info, decl ast.Decl) []guardDecl {
	var out []guardDecl
	switch d := decl.(type) {
	case *ast.FuncDecl:
		gd := guardDecl{id: d.Name}
		if fn, _ := info.Defs[d.Name].(*types.Func); fn != nil && d.Recv != nil {
			recv := fn.Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			if named, ok := recv.(*types.Named); ok {
				gd.recv = named.Obj()
			}
		}
		out = append(out, gd)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, guardDecl{id: s.Name})
			case *ast.ValueSpec:
				for _, n := range s.Names {
					out = append(out, guardDecl{id: n})
				}
			}
		}
	}
	return out
}

// guardIdent is one exported identifier declared under internal/: a
// package-level function, type, constant or variable, a method, or a
// field of a package-level struct type.
type guardIdent struct {
	name  string // "pkg.Name", or "pkg.Type.Name" for a method or field
	pos   token.Position
	field bool            // struct fields are out of TestNoUnreferencedInternalAPI's scope
	iface bool            // a method its type needs to satisfy an interface
	users map[string]bool // import paths of the packages whose non-test files reference it
}

// guard is the module's type-checked source, loaded once per test binary
// for every guard that reads it.
var guard struct {
	once   sync.Once
	root   string
	idents []guardIdent
	err    error
}

// guardIdents returns the repository root and every exported identifier
// under internal/ in declaration order, with who references it.
func guardIdents(t *testing.T) (string, []guardIdent) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	guard.once.Do(func() {
		guard.root, guard.err = filepath.Abs(".")
		if guard.err == nil {
			guard.idents, guard.err = loadGuardIdents(guard.root)
		}
	})
	if guard.err != nil {
		t.Fatal(guard.err)
	}
	return guard.root, guard.idents
}

// loadGuardIdents type-checks every package under root, bench/ included,
// and lists the exported identifiers of those under internal/.
func loadGuardIdents(root string) ([]guardIdent, error) {
	// The source importer reads build.Default; without cgo it picks the
	// pure-Go files of net and os/user instead of running the cgo tool.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()

	fset := token.NewFileSet()
	l := &guardLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs: make(map[*ast.Ident]types.Object),
			Uses: make(map[*ast.Ident]types.Object),
		},
		pkgs: make(map[string]*guardPkg),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if goFiles, _ := filepath.Glob(filepath.Join(path, "*.go")); len(goFiles) == 0 {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		ip := guardModule
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		_, err = l.Import(ip)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, want := range []string{"/bench", "/cmd/coherencesim", "/cmd/coherenced", "/examples/quickstart", ""} {
		if l.pkgs[guardModule+want] == nil {
			return nil, fmt.Errorf("package %s%s was not loaded; the walk no longer covers every root", guardModule, want)
		}
	}

	// Every use of an object outside its own declaration (and, for a
	// type, outside its own methods) marks it referenced by the using
	// package.
	users := make(map[types.Object]map[string]bool)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				owners := make(map[types.Object]bool)
				for _, gd := range declaredBy(l.info, decl) {
					owners[l.info.Defs[gd.id]] = true
					if gd.recv != nil {
						owners[gd.recv] = true
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := l.info.Uses[id]; obj != nil {
							if obj = originOf(obj); !owners[obj] {
								if users[obj] == nil {
									users[obj] = make(map[string]bool)
								}
								users[obj][p.path] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	// Interfaces a method may exist to satisfy.
	var ifaces []*types.Interface
	addIfaces := func(pkg *types.Package, only ...string) {
		names := only
		if len(names) == 0 {
			names = pkg.Scope().Names()
		}
		for _, name := range names {
			tn, _ := pkg.Scope().Lookup(name).(*types.TypeName)
			if tn == nil {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range l.pkgs {
		addIfaces(p.types)
	}
	for path, only := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding/json": {"Marshaler"},
		"net/http":      {"Handler"},
		"sort":          {"Interface"},
		"math/rand":     {"Source64"},
		"io":            nil,
	} {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		addIfaces(pkg, only...)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	satisfiesInterface := func(tn *types.TypeName, method string) bool {
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
					return true
				}
			}
		}
		return false
	}

	var idents []guardIdent
	for _, p := range l.pkgs {
		if !strings.HasPrefix(p.path, guardModule+"/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, gd := range declaredBy(l.info, decl) {
					obj := l.info.Defs[gd.id]
					if obj == nil || !gd.id.IsExported() {
						continue
					}
					name := p.types.Name() + "." + gd.id.Name
					if gd.recv != nil {
						name = p.types.Name() + "." + gd.recv.Name() + "." + gd.id.Name
					}
					idents = append(idents, guardIdent{
						name:  name,
						pos:   fset.Position(gd.id.Pos()),
						iface: gd.recv != nil && satisfiesInterface(gd.recv, gd.id.Name),
						users: users[obj],
					})
					if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
						if st, ok := tn.Type().Underlying().(*types.Struct); ok {
							for i := 0; i < st.NumFields(); i++ {
								if fld := st.Field(i); fld.Exported() {
									idents = append(idents, guardIdent{
										name:  name + "." + fld.Name(),
										pos:   fset.Position(fld.Pos()),
										field: true,
										users: users[fld],
									})
								}
							}
						}
					}
				}
			}
		}
	}
	sort.Slice(idents, func(i, j int) bool {
		a, b := idents[i].pos, idents[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return idents, nil
}

func TestNoUnreferencedInternalAPI(t *testing.T) {
	root, idents := guardIdents(t)
	declared := make(map[string]bool)
	findings := 0
	for _, id := range idents {
		if id.field {
			continue
		}
		declared[id.name] = true
		_, allowed := unreferencedAllowed[id.name]
		switch referenced := len(id.users) > 0 || id.iface; {
		case referenced && allowed:
			t.Errorf("allowlist entry %s is referenced by non-test code (or satisfies an interface); remove it", id.name)
		case !referenced && !allowed:
			rel, _ := filepath.Rel(root, id.pos.Filename)
			t.Errorf("%s:%d %s has no non-test reference", filepath.ToSlash(rel), id.pos.Line, id.name)
			findings++
		}
	}
	if len(unreferencedAllowed) > guardMaxAllowed {
		t.Errorf("allowlist has %d entries, the cap is %d", len(unreferencedAllowed), guardMaxAllowed)
	}
	for name := range unreferencedAllowed {
		if !declared[name] {
			t.Errorf("allowlist entry %s is not declared under internal/ any more; remove it", name)
		}
	}
	if findings > 0 {
		t.Errorf("%d exported identifiers under internal/ are unreferenced: delete each with the tests that existed only for it", findings)
	}
}

// benchOnly is the frozen surface: every exported identifier under
// internal/ (methods and struct fields included) that no package but
// bench/ references. bench/ is a frozen harness that only a
// benchmark-definition change may edit, so it keeps alive whatever it
// imports; listing that here makes growing the set a decision.
// TestBenchOnlySurface fails when an identifier becomes bench-only
// without an entry here, or when an entry gains another caller or is no
// longer declared.
var benchOnly = map[string]string{
	// The two-phase fork facility. The benchmark-definition change that
	// retires it deletes exactly these, with the ledger rows that read
	// them.
	"machine.Machine.Snapshot":          "machine.snapshot_us: records a machine after its first phase",
	"machine.Machine.RestoreFrom":       "machine.restore_us and machine.fork_run_ns_per_event: replays a snapshot",
	"workload.WarmLockLoop":             "workload.warm_split_overhead_frac: the two-phase lock recipe",
	"workload.WarmLock.Run":             "workload.warm_split_overhead_frac: runs the recipe",
	"experiments.WarmForkCache":         "the memo's old name, in the probes' and warmfork_stream's signatures",
	"experiments.NewWarmForkCache":      "the memo's old constructor, for experiments.point_warm_*_us and warmfork_stream",
	"experiments.PointMemo.Checkpoints": "experiments.warm_checkpoints and warm_reuse_ratio",
	"fleet.Stats.Stolen":                "fleet.stolen, a constant 0 since nothing is leased ahead",

	// Measurement hooks bench/ legitimately uses.
	"cache.Cache.NumLines":        "cache.install_evict_ns: picks two blocks that conflict on one frame",
	"mc.DefaultConfig":            "mc.states and mc.states_per_s: the default protocol matrix",
	"runner.Pool.Progress":        "sim_cycles_per_s: the pool's simulated-cycle counter around a round",
	"service.Service.Handler":     "service_mix: mounts the daemon's API on a test listener",
	"service.Service.Scheduler":   "service_mix: stops the daemon before its restart",
	"service.Service.Coordinator": "service_mix: stops the daemon before its restart",
	"service.Scheduler.Close":     "service_mix: stops the daemon's job runners before its restart",
}

// benchPkg is the import path of the frozen harness.
const benchPkg = guardModule + "/bench"

// benchOnlyDiff compares the bench-only identifiers among idents with
// listed. It returns one problem per line and, when there are any, the
// map literal that would make listed exact.
func benchOnlyDiff(idents []guardIdent, listed map[string]string) (problems []string, replacement string) {
	found := make(map[string]bool)
	for _, id := range idents {
		if id.iface || len(id.users) != 1 || !id.users[benchPkg] {
			continue
		}
		found[id.name] = true
		if _, ok := listed[id.name]; !ok {
			problems = append(problems, fmt.Sprintf("%s is referenced only from bench/ and is not listed in benchOnly", id.name))
		}
	}
	declared := make(map[string]bool)
	for _, id := range idents {
		declared[id.name] = true
	}
	names := make([]string, 0, len(listed))
	for name := range listed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch {
		case !declared[name]:
			problems = append(problems, fmt.Sprintf("benchOnly entry %s is not declared under internal/ any more; remove it", name))
		case !found[name]:
			problems = append(problems, fmt.Sprintf("benchOnly entry %s is referenced outside bench/ (or by nothing); remove it", name))
		}
	}
	if len(problems) == 0 {
		return nil, ""
	}
	var b strings.Builder
	b.WriteString("var benchOnly = map[string]string{\n")
	for _, id := range idents {
		if found[id.name] {
			why, ok := listed[id.name]
			if !ok {
				why = "TODO: what bench/ needs it for"
			}
			fmt.Fprintf(&b, "\t%q: %q,\n", id.name, why)
		}
	}
	b.WriteString("}\n")
	return problems, b.String()
}

func TestBenchOnlySurface(t *testing.T) {
	_, idents := guardIdents(t)
	problems, replacement := benchOnlyDiff(idents, benchOnly)
	for _, p := range problems {
		t.Error(p)
	}
	if len(problems) > 0 {
		t.Errorf("the bench-only surface changed; the exact list is\n%s", replacement)
	}
}

// TestBenchOnlySurfaceCatchesDrift plants the three kinds of drift in the
// loaded module: a new bench-only identifier, a listed one that gains
// another caller, and a listed one that is no longer declared.
func TestBenchOnlySurfaceCatchesDrift(t *testing.T) {
	_, idents := guardIdents(t)
	planted := append(slices.Clone(idents), guardIdent{name: "workload.Planted", users: map[string]bool{benchPkg: true}})
	for i, id := range planted {
		if id.name == "mc.DefaultConfig" {
			planted[i].users = map[string]bool{benchPkg: true, guardModule + "/cmd/coherencemc": true}
		}
	}
	listed := maps.Clone(benchOnly)
	listed["workload.Gone"] = "deleted since"
	problems, replacement := benchOnlyDiff(planted, listed)
	for _, want := range []string{"workload.Planted is referenced only from bench/", "mc.DefaultConfig is referenced outside bench/", "workload.Gone is not declared"} {
		if !slices.ContainsFunc(problems, func(p string) bool { return strings.Contains(p, want) }) {
			t.Errorf("no problem reports %q; got %q", want, problems)
		}
	}
	if len(problems) != 3 {
		t.Errorf("%d problems, want 3: %q", len(problems), problems)
	}
	if !strings.Contains(replacement, `"workload.Planted": "TODO`) || strings.Contains(replacement, "mc.DefaultConfig") || strings.Contains(replacement, "workload.Gone") {
		t.Errorf("replacement map is not the exact list:\n%s", replacement)
	}
}
