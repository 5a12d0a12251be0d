package heteroswitch

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllow is the whole list of non-test declarations that no binary
// reaches and that stay anyway. Every row carries one of three reasons; a row
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
	{"fl.Default", "probe: the paper's hyper-parameters as one literal for tests"},
	{"guardmem/", "probe: guard-page slices for the assembly bounds tests"},
	{"israce/", "probe: lets allocation tests skip under -race"},
	{"vectest/", "probe: flips vec.Live for the vector/Go-loop parity tests of tensor and nn"},
	// (b) the file-facing decoder and its fuzz target
	{"fl.Server.SaveCheckpoint", "decoder: checkpoint writer, round-trips FuzzLoadCheckpoint"},
	{"fl.Server.LoadCheckpoint", "decoder: checkpoint reader, FuzzLoadCheckpoint's target"},
	{"nn.ReadWeights", "decoder: the weight stream LoadCheckpoint reads"},
	// (c) dies with ROADMAP direction 3 (packed/int8 backends)
	{"tensor.Int8Tol", "direction 3: the int8 tier's test tolerance"},
	{"tensor.PackedWeights.HasFloat", "direction 3: cached-form probe"},
	{"tensor.PackedWeights.HasInt8", "direction 3: cached-form probe"},
}

// censusRoots are the names a binary reaches without the source saying so:
// the entry points and the methods the standard library calls through its own
// interfaces (fmt.Stringer, error, sort.Interface, io.WriterTo).
var censusRoots = []string{"main", "init", "_", "String", "Error", "Len", "Less", "Swap", "WriteTo"}

type censusDecl struct {
	name  string // pkg.Name or pkg.Recv.Name
	ident string // the bare identifier other code refers to it by
	recv  string // receiver type for methods
	file  string
	lines int
	refs  map[string]bool
}

// TestEveryDeclarationIsReachable is the reachability census: a non-test
// top-level declaration stays only if a main reaches it or censusAllow says
// why not. Reachability is by identifier name, which can only over-approximate
// what the linker keeps, so everything it reports is dead in every binary.
func TestEveryDeclarationIsReachable(t *testing.T) {
	decls := censusParse(t)

	allowed := map[string]bool{}
	for _, a := range censusAllow {
		allowed[a.name] = true
	}
	if len(censusAllow) > 25 {
		t.Errorf("allow-list has %d rows; the cap is 25", len(censusAllow))
	}
	// row returns the allow-list row covering d: its own, or its package's.
	row := func(d censusDecl) string {
		if pkg := d.name[:strings.IndexByte(d.name, '.')] + "/"; allowed[pkg] {
			return pkg
		}
		return d.name
	}

	// Propagate by identifier name to a fixed point. A method needs its
	// receiver type reached too. Allow-listed declarations are roots: what
	// they use stays with them.
	reached := map[string]bool{}
	for _, r := range censusRoots {
		reached[r] = true
	}
	live := make([]bool, len(decls))
	exists := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if live[i] {
				continue
			}
			if r := row(d); allowed[r] {
				exists[r] = true
			} else if !reached[d.ident] || (d.recv != "" && !reached[d.recv]) {
				continue
			}
			live[i], changed = true, true
			for r := range d.refs {
				reached[r] = true
			}
		}
	}

	var dead []string
	total := 0
	for i, d := range decls {
		if !live[i] {
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

// censusParse returns every top-level declaration of every non-test Go file
// in the module, each with the set of identifiers its source mentions.
func censusParse(t *testing.T) []censusDecl {
	var decls []censusDecl
	fset := token.NewFileSet()
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
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		pkg := filepath.Base(filepath.Dir(path))
		add := func(n ast.Node, doc *ast.CommentGroup, ident, recv string) {
			from := n.Pos()
			if doc != nil {
				from = doc.Pos()
			}
			name := pkg + "." + ident
			if recv != "" {
				name = pkg + "." + recv + "." + ident
			}
			refs := map[string]bool{}
			ast.Inspect(n, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					refs[id.Name] = true
				}
				return true
			})
			decls = append(decls, censusDecl{
				name: name, ident: ident, recv: recv, file: path,
				lines: fset.Position(n.End()).Line - fset.Position(from).Line + 1,
				refs:  refs,
			})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = censusRecvName(d.Recv.List[0].Type)
				}
				add(d, d.Doc, d.Name.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s, censusDoc(s.Doc, d), s.Name.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(s, censusDoc(s.Doc, d), n.Name, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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

func censusRecvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
