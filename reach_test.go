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
	"path/filepath"
	"sort"
	"strings"
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
	"mc.RunConformance":       "the model-vs-live-system oracle: mc.TestConformanceBulk, TestConformanceCUThreshold and TestConformanceHandWritten replay schedules through both",
	"mc.GenerateSchedules":    "feeds the oracle above in mc.TestConformanceBulk and TestConformanceCUThreshold",
	"metrics.Timeline.Slices": "machine.TestSpinPollTimelineSlices and workload.TestTimelineRecordsStalls read the recorded intervals from another package",
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
// to its declaration, so a call through runner.Reuse[K, V] counts as a
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

func TestNoUnreferencedInternalAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module from source")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
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
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		t.Fatal(err)
	}
	for _, want := range []string{"/bench", "/cmd/coherencesim", "/cmd/coherenced", "/examples/quickstart", ""} {
		if l.pkgs[guardModule+want] == nil {
			t.Fatalf("package %s%s was not loaded; the walk no longer covers every root", guardModule, want)
		}
	}

	// Every use of an object outside its own declaration (and, for a
	// type, outside its own methods) marks it referenced.
	used := make(map[types.Object]bool)
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
								used[obj] = true
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
			t.Fatal(err)
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

	type finding struct {
		pos  token.Position
		name string
	}
	var findings []finding
	declared := make(map[string]bool)
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
					declared[name] = true
					_, allowed := unreferencedAllowed[name]
					switch referenced := used[obj] || (gd.recv != nil && satisfiesInterface(gd.recv, gd.id.Name)); {
					case referenced && allowed:
						t.Errorf("allowlist entry %s is referenced by non-test code (or satisfies an interface); remove it", name)
					case !referenced && !allowed:
						findings = append(findings, finding{fset.Position(gd.id.Pos()), name})
					}
				}
			}
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
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].pos, findings[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, f := range findings {
		rel, _ := filepath.Rel(root, f.pos.Filename)
		t.Errorf("%s:%d %s has no non-test reference", filepath.ToSlash(rel), f.pos.Line, f.name)
	}
	if len(findings) > 0 {
		t.Errorf("%d exported identifiers under internal/ are unreferenced: delete each with the tests that existed only for it", len(findings))
	}
}
