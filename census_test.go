package heteroswitch

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

// censusAllow is the whole list of non-test declarations that no binary
// reaches and that stay anyway. Every row carries one of two reasons; a row
// whose declaration is gone fails the test, so the list can only shrink. A
// name ending in "/" covers a package.
var censusAllow = []struct{ name, reason string }{
	// (a) reference or invariant probes that tests of surviving code use
	{"tensor.Tensor.AllClose", "probe: tolerance comparison every differential test ends in"},
	{"tensor.Tensor.Fill", "probe: constant inputs for closed-form oracles"},
	{"tensor.Tensor.HasNaN", "probe: the finite-output invariant"},
	{"tensor.FromSlice", "probe: literal tensors in tests"},
	{"serve.Histogram.Equal", "probe: report byte-identity across runs"},
	{"serve.Histogram.Count", "probe: served + shed = offered"},
	{"nn.ReplicaPool.Free", "probe: pool is full again at quiescence"},
	{"nn.VersionStore.FreeCount", "probe: retired versions are recycled"},
	{"fl.AsyncServer.InFlight", "probe: async depth invariant"},
	{"tensor.Arena.Live", "probe: the arena's live count, the buffer-leak check of the tensor and nn arena tests"},
	{"fl.Default", "probe: the paper's hyper-parameters as one literal for tests"},
	{"guardmem/", "probe: guard-page slices for the assembly bounds tests"},
	{"israce/", "probe: lets allocation tests skip under -race"},
	{"vectest/", "probe: flips vec.Live for the vector/Go-loop parity tests of tensor and nn"},
	// (b) dies with ROADMAP direction 3 (packed/int8 backends)
	{"tensor.Int8Tol", "direction 3: the int8 tier's test tolerance"},
	{"tensor.PackedWeights.HasFloat", "direction 3: cached-form probe"},
	{"tensor.PackedWeights.HasInt8", "direction 3: cached-form probe"},
	{"tensor.PackedWeights.Reset", "direction 3: invalidates a replica's cached forms in the per-version packing test"},
}

// censusRoots are the methods a binary reaches without the source saying so:
// the ones the standard library calls through its own interfaces
// (fmt.Stringer, error, sort.Interface). Entry points — main, init and blank
// package-level values — are roots as well.
var censusRoots = map[string]bool{"String": true, "Error": true, "Len": true, "Less": true, "Swap": true}

// censusTags are the build configurations the census type-checks: the
// default build and the portable one. A declaration is dead only if it is
// dead in every configuration whose files include it.
var censusTags = [][]string{nil, {"purego"}}

const censusModule = "heteroswitch"

type censusDecl struct {
	name  string // pkg.Name or pkg.Recv.Name
	file  string
	lines int
	root  bool           // main, init or a blank value
	objs  []types.Object // what it declares
	recv  types.Object   // the receiver's type name, for a method
	refs  []types.Object // every object its source uses
}

// key identifies a declaration across build configurations.
func (d *censusDecl) key() string { return d.file + ":" + d.name }

// TestEveryDeclarationIsReachable is the reachability census: a non-test
// top-level declaration stays only if a main reaches it or censusAllow says
// why not. References are resolved by go/types, so a method is reached only
// through its own receiver type: called on it, or called through an
// interface method of the same name and signature while its type is
// reached — the linker's own rule, which the census can only
// over-approximate, so everything it reports is dead in every binary.
func TestEveryDeclarationIsReachable(t *testing.T) {
	allowed := map[string]bool{}
	for _, a := range censusAllow {
		allowed[a.name] = true
	}
	if len(censusAllow) > 25 {
		t.Errorf("allow-list has %d rows; the cap is 25", len(censusAllow))
	}
	// row returns the allow-list row covering d: its own, or its package's.
	row := func(d *censusDecl) string {
		if pkg := d.name[:strings.IndexByte(d.name, '.')] + "/"; allowed[pkg] {
			return pkg
		}
		return d.name
	}

	all := map[string]*censusDecl{}
	live := map[string]bool{}
	exists := map[string]bool{}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	for _, tags := range censusTags {
		decls := censusCheck(t, fset, std, tags)
		reached := map[types.Object]bool{}
		var viaIface []*types.Func // interface methods a live declaration calls
		mark := func(o types.Object) {
			if reached[o] {
				return
			}
			reached[o] = true
			if f, ok := o.(*types.Func); ok && censusIfaceMethod(f) {
				viaIface = append(viaIface, f)
			}
		}
		isReached := func(d *censusDecl) bool {
			if d.recv == nil {
				for _, o := range d.objs {
					if reached[o] {
						return true
					}
				}
				return false
			}
			m := d.objs[0].(*types.Func)
			if !reached[d.recv] {
				return false
			}
			if reached[m] || censusRoots[m.Name()] {
				return true
			}
			for _, im := range viaIface {
				if im.Name() == m.Name() && types.Identical(im.Type(), m.Type()) {
					return true
				}
			}
			return false
		}
		// Propagate to a fixed point. Allow-listed declarations are roots:
		// what they use stays with them.
		done := make([]bool, len(decls))
		for changed := true; changed; {
			changed = false
			for i, d := range decls {
				if done[i] {
					continue
				}
				if r := row(d); allowed[r] {
					exists[r] = true
				} else if !d.root && !isReached(d) {
					continue
				}
				done[i], changed = true, true
				live[d.key()] = true
				for _, r := range d.refs {
					mark(r)
				}
			}
		}
		for _, d := range decls {
			all[d.key()] = d
		}
	}

	var dead []string
	total := 0
	for k, d := range all {
		if !live[k] {
			dead = append(dead, fmt.Sprintf("%s: %s (%d lines)", d.file, d.name, d.lines))
			total += d.lines
		}
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Error(s)
	}
	if len(dead) > 0 {
		t.Errorf("%d declarations, %d lines, that no main reaches: delete them or add a censusAllow row with its reason", len(dead), total)
	}
	for _, a := range censusAllow {
		if !exists[a.name] {
			t.Errorf("allow-list row %q (%s) names nothing that exists: delete the row", a.name, a.reason)
		}
	}
}

// censusIfaceMethod reports whether f is declared by an interface.
func censusIfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// censusOrigin maps an instantiated generic function, method or field back
// to its declaration.
func censusOrigin(o types.Object) types.Object {
	switch o := o.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return o
}

// censusCheck type-checks every non-test Go file of the module that the
// build configuration with the given tags selects, and returns each
// top-level declaration with the objects its source uses. The standard
// library is type-checked from source by std.
func censusCheck(t *testing.T, fset *token.FileSet, std types.Importer, tags []string) []*censusDecl {
	ctx := build.Default
	ctx.BuildTags = tags
	files := map[string][]*ast.File{} // import path → its files
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && strings.HasPrefix(e.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctx.MatchFile(filepath.Join(".", dir), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		ip := censusModule
		if d := filepath.Clean(dir); d != "." {
			ip += "/" + filepath.ToSlash(d)
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	infos := map[string]*types.Info{}
	pkgs := map[string]*types.Package{}
	var imp censusImporter
	imp = func(path string) (*types.Package, error) {
		if path != censusModule && !strings.HasPrefix(path, censusModule+"/") {
			return std.Import(path)
		}
		if p, ok := pkgs[path]; ok {
			return p, nil
		}
		if files[path] == nil {
			return nil, fmt.Errorf("census: no files for %s", path)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		pkgs[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var decls []*censusDecl
	for _, path := range paths {
		p, err := imp(path)
		if err != nil {
			t.Fatalf("census (tags %v): %v", tags, err)
		}
		for _, f := range files[path] {
			decls = append(decls, censusDecls(fset, infos[path], p.Name() == "main", f)...)
		}
	}
	return decls
}

// censusImporter resolves the module's own packages by type-checking them
// and every other path from the standard library.
type censusImporter func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f censusImporter) Import(path string) (*types.Package, error) { return f(path) }

// censusDecls returns the top-level declarations of one checked file.
func censusDecls(fset *token.FileSet, info *types.Info, isMain bool, f *ast.File) []*censusDecl {
	path := fset.Position(f.Pos()).Filename
	pkg := filepath.Base(filepath.Dir(path))
	var decls []*censusDecl
	add := func(n ast.Node, doc *ast.CommentGroup, id *ast.Ident) *censusDecl {
		from := n.Pos()
		if doc != nil {
			from = doc.Pos()
		}
		d := &censusDecl{
			name: pkg + "." + id.Name, file: path,
			lines: fset.Position(n.End()).Line - fset.Position(from).Line + 1,
			root:  id.Name == "_",
		}
		if o := info.Defs[id]; o != nil {
			d.objs = append(d.objs, o)
		}
		ast.Inspect(n, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				if o := info.Uses[id]; o != nil {
					d.refs = append(d.refs, censusOrigin(o))
				}
			}
			return true
		})
		decls = append(decls, d)
		return d
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d := add(decl, decl.Doc, decl.Name)
			if decl.Recv == nil {
				d.root = decl.Name.Name == "init" || (isMain && decl.Name.Name == "main")
				continue
			}
			recv := d.objs[0].Type().(*types.Signature).Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			tn := recv.(*types.Named).Origin().Obj()
			d.recv, d.name = tn, pkg+"."+tn.Name()+"."+decl.Name.Name
		case *ast.GenDecl:
			for _, s := range decl.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s, censusDoc(s.Doc, decl), s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						add(s, censusDoc(s.Doc, decl), n)
					}
				}
			}
		}
	}
	return decls
}

// censusDoc is a spec's own comment, or the enclosing declaration's when the
// declaration holds just that spec.
func censusDoc(own *ast.CommentGroup, d *ast.GenDecl) *ast.CommentGroup {
	if own == nil && len(d.Specs) == 1 {
		return d.Doc
	}
	return own
}
