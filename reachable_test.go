package vienna

// The reachability gate: every non-test function and method of the module
// has a production caller, or is listed in testdata/reachable_allow.txt.
//
// The walk type-checks the module's non-test files from source (standard
// library only) and follows every use of a function or method object —
// calls, method values, function values — from these roots:
//
//   - main and init of every package (main is only a root in cmd/*,
//     examples/* and bench);
//   - every exported func and var of the facade (vienna.go) — a method of
//     a type it aliases is live only if a root calls it;
//   - every function a package-level declaration uses;
//   - every method whose receiver type, T or *T, implements an interface
//     type of the module that declares the method's name, and every
//     method a standard-library interface calls by name (stdlibMethods).
//
// Reachability is computed under the default build tags and under race,
// and a function is dead only if neither reaches it, so the Go fallbacks
// the assembly kernels replace on amd64 count as live.  bench/ is a root
// but not checked: it is the benchmark, not the system.
//
// The test fails when a dead function is not in the allow-list and when a
// listed function is no longer dead, so the list can only shrink.  `make
// dead` runs it with -v to print the listing.

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const reachModule = "repro"

// stdlibMethods are the methods standard-library interfaces call by name
// (fmt, errors, encoding/json, io, sort): no interface of the module
// declares them, yet the standard library reaches them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "Format": true,
	"MarshalJSON": true, "Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true,
}

// reachFunc is one declared function or method.
type reachFunc struct {
	file        string // relative to the module root
	line, lines int
}

// reachGraph is the call graph of one build configuration.
type reachGraph struct {
	decls map[string]reachFunc
	edges map[string][]string
	roots []string
}

func TestReachable(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	live := map[string]bool{}
	decls := map[string]reachFunc{}
	for _, tags := range [][]string{nil, {"race"}} {
		g, err := buildReachGraph(fset, std, tags)
		if err != nil {
			t.Fatalf("tags %v: %v", tags, err)
		}
		for k, f := range g.decls {
			decls[k] = f
		}
		for k := range g.reach() {
			live[k] = true
		}
	}
	var dead []string
	for k := range decls {
		if !live[k] {
			dead = append(dead, k)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := decls[dead[i]], decls[dead[j]]
		return a.file < b.file || a.file == b.file && a.line < b.line
	})

	// The allow-list: one function per line, '#' starts a comment.
	list, err := os.ReadFile("testdata/reachable_allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(list), "\n") {
		if k, _, _ := strings.Cut(line, "#"); strings.TrimSpace(k) != "" {
			allow[strings.TrimSpace(k)] = true
		}
	}
	total := 0
	for _, k := range dead {
		f := decls[k]
		total += f.lines
		t.Logf("%s:%d: %s (%d lines)", f.file, f.line, k, f.lines)
		if !allow[k] {
			t.Errorf("%s:%d: %s is reached only by tests: give it a production caller or delete it", f.file, f.line, k)
		}
	}
	t.Logf("%d functions, %d lines reached only by tests", len(dead), total)
	for k := range allow {
		if _, ok := decls[k]; !ok || live[k] {
			t.Errorf("testdata/reachable_allow.txt: %s is reached or gone: remove it from the list", k)
		}
	}
}

// TestDocIdentifiers: every backticked A.B or A.B.C in README.md and
// DESIGN.md names a func, method, type, field, var or const the module
// declares, when A is one of its packages or a type it declares; other
// dotted names (the standard library's, local variables, the benchmark's
// metrics, file names) are out of scope.  A trailing argument list, as in
// `core.Array.Dist()`, is ignored, and `darray.stepDirect` may name a
// method of a darray type.  A backticked bare CamelCase name, such as
// `stepDirect` or `TestTCPFrameGolden`, must be declared by some file of
// the module, its tests included: a func or its parameter, a method, type,
// var, const, or struct or interface member.
func TestDocIdentifiers(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	var mods []*reachLoader
	for _, tags := range [][]string{nil, {"race"}} {
		l, err := loadModule(fset, std, tags)
		if err != nil {
			t.Fatalf("tags %v: %v", tags, err)
		}
		mods = append(mods, l)
	}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		t.Fatal(err)
	}
	metric := map[string]bool{}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		metric[m.Name] = true
	}
	declared, err := moduleNames(fset)
	if err != nil {
		t.Fatal(err)
	}
	span := regexp.MustCompile("`([^`]+)`")
	name := regexp.MustCompile(`^([A-Za-z_]\w*(?:\.[A-Za-z_]\w*){1,2})(?:\(.*\)|\{.*\})?$`)
	camel := regexp.MustCompile(`^([A-Za-z][A-Za-z0-9]*[a-z0-9][A-Z][A-Za-z0-9]*)(?:\(.*\)|\{.*\})?$`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Fenced code blocks hold code, not references.
		var prose []string
		fenced := false
		for _, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			} else if !fenced {
				prose = append(prose, line)
			}
		}
		for _, m := range span.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
			if c := camel.FindStringSubmatch(m[1]); c != nil && !declared[c[1]] {
				t.Errorf("%s: `%s` names nothing the module declares", doc, c[1])
			}
			n := name.FindStringSubmatch(m[1])
			if n == nil || metric[n[1]] || strings.HasSuffix(n[1], ".go") { // a file: go is a keyword
				continue
			}
			parts := strings.Split(n[1], ".")
			known, found := false, false
			for _, l := range mods {
				k, f := l.resolve(parts)
				known, found = known || k, found || f
			}
			if known && !found {
				t.Errorf("%s: `%s` names nothing the module declares", doc, n[1])
			}
		}
	}
}

// moduleNames returns every name the module's Go files declare, tests
// and bench/ included: funcs and their parameters, methods, types, vars,
// consts, and the members of struct and interface types.
func moduleNames(fset *token.FileSet) (map[string]bool, error) {
	names := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if base := d.Name(); path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var fields *ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				names[n.Name.Name] = true
				fields = n.Type.Params
			case *ast.TypeSpec:
				names[n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					names[id.Name] = true
				}
			case *ast.StructType:
				fields = n.Fields
			case *ast.InterfaceType:
				fields = n.Methods
			}
			if fields != nil {
				for _, f := range fields.List {
					for _, id := range f.Names {
						names[id.Name] = true
					}
				}
			}
			return true
		})
		return nil
	})
	return names, err
}

// resolve looks parts (A.B or A.B.C) up in the module: known reports
// whether A is one of its packages or declared types, found whether the
// rest names a member.
func (l *reachLoader) resolve(parts []string) (known, found bool) {
	for _, p := range l.order {
		if p.name != parts[0] && !(p.name == "main" && filepath.Base(p.path) == parts[0]) {
			continue
		}
		known = true
		scope := p.types.Scope()
		obj := scope.Lookup(parts[1])
		if obj != nil && (len(parts) == 2 || hasMember(obj, parts[2])) {
			return true, true
		}
		if len(parts) == 3 {
			continue
		}
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok && hasMember(tn, parts[1]) {
				return true, true
			}
		}
	}
	if known {
		return true, false
	}
	for _, p := range l.order {
		tn, ok := p.types.Scope().Lookup(parts[0]).(*types.TypeName)
		if !ok {
			continue
		}
		known = true
		obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), parts[1])
		if obj != nil && (len(parts) == 2 || hasMember(obj, parts[2])) {
			return true, true
		}
	}
	return known, false
}

// hasMember reports whether obj, a type or a field or var, has a field or
// method called name.
func hasMember(obj types.Object, name string) bool {
	switch obj.(type) {
	case *types.TypeName, *types.Var:
		m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), name)
		return m != nil
	}
	return false
}

// reach returns every function reachable from the roots.
func (g *reachGraph) reach() map[string]bool {
	seen := map[string]bool{}
	work := append([]string(nil), g.roots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		work = append(work, g.edges[k]...)
	}
	return seen
}

// reachLoader type-checks the module's packages under one build context,
// delegating standard-library imports to std.
type reachLoader struct {
	ctxt  build.Context
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*reachPkg
	order []*reachPkg
}

type reachPkg struct {
	path  string
	name  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

func (l *reachLoader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *reachLoader) load(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	dir := "." + strings.TrimPrefix(path, reachModule)
	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &reachPkg{path: path, name: bp.Name, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// loadModule type-checks every package of the module under the default
// build tags plus tags.
func loadModule(fset *token.FileSet, std types.Importer, tags []string) (*reachLoader, error) {
	l := &reachLoader{ctxt: build.Default, fset: fset, std: std, pkgs: map[string]*reachPkg{}}
	l.ctxt.BuildTags = tags
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); path != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		ipath := reachModule
		if path != "." {
			ipath += "/" + filepath.ToSlash(path)
		}
		_, err = l.load(ipath)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}

// buildReachGraph loads every package of the module under the default
// build tags plus tags and returns its call graph.
func buildReachGraph(fset *token.FileSet, std types.Importer, tags []string) (*reachGraph, error) {
	l, err := loadModule(fset, std, tags)
	if err != nil {
		return nil, err
	}
	g := &reachGraph{decls: map[string]reachFunc{}, edges: map[string][]string{}}
	ifaces := map[string][]*types.Interface{} // method name -> the module's interfaces declaring it
	var methods []*types.Func
	for _, p := range l.order {
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					name := it.Method(i).Name()
					ifaces[name] = append(ifaces[name], it)
				}
			}
		}
		checked := p.path != reachModule+"/bench"
		for _, f := range p.files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					// A use at package level makes its target a root.
					g.roots = append(g.roots, funcUses(p.info, decl)...)
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				k := funcKey(fn)
				g.edges[k] = append(g.edges[k], funcUses(p.info, fd)...)
				name := fd.Name.Name
				switch {
				case fd.Recv == nil && (name == "init" || name == "main" && p.name == "main"):
					g.roots = append(g.roots, k)
				case p.path == reachModule && fd.Recv == nil && fd.Name.IsExported():
					g.roots = append(g.roots, k)
				case fd.Recv != nil:
					methods = append(methods, fn)
				}
				if checked {
					start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
					g.decls[k] = reachFunc{filepath.ToSlash(start.Filename), start.Line, end.Line - start.Line + 1}
				}
			}
		}
	}
	for _, fn := range methods {
		if stdlibMethods[fn.Name()] || implementsAny(fn, ifaces[fn.Name()]) {
			g.roots = append(g.roots, funcKey(fn))
		}
	}
	return g, nil
}

// implementsAny reports whether the receiver type of method fn, T or *T,
// implements one of ifaces.
func implementsAny(fn *types.Func, ifaces []*types.Interface) bool {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// funcUses lists the module's functions and methods node uses.
func funcUses(info *types.Info, node ast.Node) []string {
	var out []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok && fn.Pkg() != nil && inModule(fn.Pkg().Path()) {
				out = append(out, funcKey(fn))
			}
		}
		return true
	})
	return out
}

func inModule(path string) bool {
	return path == reachModule || strings.HasPrefix(path, reachModule+"/")
}

// funcKey names a function as the allow-list does: its full name without
// the module prefix, e.g. internal/kernels.Resid or
// (*internal/msg.Window).Offer.
func funcKey(fn *types.Func) string {
	return strings.ReplaceAll(fn.Origin().FullName(), reachModule+"/", "")
}
