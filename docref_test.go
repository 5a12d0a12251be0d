package heteroswitch

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docSkip is the one directory whose comments the reference check does not
// read: the benchmark harness, whose files change only with the benchmark.
// Its declarations still count as citation targets.
const docSkip = "cmd/perfbook"

// docFiles are the non-Go documents the reference check reads line by line.
var docFiles = []string{".claude/skills/verify/SKILL.md"}

var (
	// docQualified matches pkg.Name and pkg.Name.Sel for an exported Name,
	// with a trailing * for a prefix; the check keeps only the matches whose
	// pkg is an internal package.
	docQualified = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(\*)?`)
	// docTestName matches a cited test, benchmark or fuzz target.
	docTestName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*(\*)?`)
	// docDir matches a package directory named in the root doc.
	docDir = regexp.MustCompile(`\b(?:internal|cmd|examples)/[a-z0-9_]+`)
)

// docPkg is what one package declares, test files included.
type docPkg struct {
	names   map[string]bool            // top-level declarations
	members map[string]map[string]bool // type → its fields and methods
	embeds  map[string][]string        // type → its embedded types, "T" or "pkg.T"
}

// docIndex is every declaration of the module, from the parser alone.
type docIndex struct {
	pkgs  map[string]*docPkg // internal package name → its declarations
	funcs map[string]bool    // every top-level function name in the module
}

// docLine is one line of comment text and where it is.
type docLine struct {
	pos  string
	text string
}

// TestDocReferencesResolve holds every citation in the module's comments and
// in the verify skill to the code: each internal pkg.Name[.Sel] resolves to a
// declaration, field or method (a trailing * to a prefix of one), and each
// cited Test*, Benchmark* and Fuzz* name is a function of the module.
// Declarations in _test.go files count. Parse-only, so it costs well under a
// second.
func TestDocReferencesResolve(t *testing.T) {
	idx, lines := docScan(t)
	for _, l := range lines {
		for _, m := range docQualified.FindAllStringSubmatch(l.text, -1) {
			pkg, name, sel, star := m[1], m[2], m[3], m[4] == "*"
			if idx.pkgs[pkg] != nil && !idx.resolves(pkg, name, sel, star) {
				t.Errorf("%s: %s names nothing the module declares", l.pos, m[0])
			}
		}
		for _, m := range docTestName.FindAllStringSubmatch(l.text, -1) {
			name := strings.TrimSuffix(m[0], "*")
			if !docHas(idx.funcs, name, m[1] == "*") {
				t.Errorf("%s: %s is no function of the module", l.pos, m[0])
			}
		}
	}
}

// TestDocMapNamesEveryPackage holds the root doc to the tree: every package
// directory it names exists, and every one that exists is named.
func TestDocMapNamesEveryPackage(t *testing.T) {
	src, err := os.ReadFile("doc.go")
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, d := range docDir.FindAllString(string(src), -1) {
		named[d] = true
		if fi, err := os.Stat(d); err != nil || !fi.IsDir() {
			t.Errorf("doc.go names %s, which is not a directory", d)
		}
	}
	for _, root := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if d := root + "/" + e.Name(); e.IsDir() && !named[d] {
				t.Errorf("doc.go does not name %s", d)
			}
		}
	}
}

// resolves reports whether pkg declares name or, with sel, whether name has
// the member sel. A star makes the last element a prefix.
func (x *docIndex) resolves(pkg, name, sel string, star bool) bool {
	p := x.pkgs[pkg]
	if sel == "" {
		return docHas(p.names, name, star)
	}
	return p.names[name] && x.hasMember(pkg, name, sel, star, map[string]bool{})
}

// hasMember reports whether type typ of pkg has a field or method sel, its
// own or promoted through an embedded type.
func (x *docIndex) hasMember(pkg, typ, sel string, star bool, seen map[string]bool) bool {
	key := pkg + "." + typ
	p := x.pkgs[pkg]
	if p == nil || seen[key] {
		return false
	}
	seen[key] = true
	if docHas(p.members[typ], sel, star) {
		return true
	}
	for _, e := range p.embeds[typ] {
		epkg, etyp := pkg, e
		if i := strings.IndexByte(e, '.'); i >= 0 {
			epkg, etyp = e[:i], e[i+1:]
		}
		if x.hasMember(epkg, etyp, sel, star, seen) {
			return true
		}
	}
	return false
}

// docHas reports whether set holds name, or with star any name it prefixes.
func docHas(set map[string]bool, name string, star bool) bool {
	if !star {
		return set[name]
	}
	for n := range set {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// docScan parses every Go file of the module and returns the declaration
// index with every comment line outside docSkip, followed by the lines of
// docFiles.
func docScan(t *testing.T) (*docIndex, []docLine) {
	idx := &docIndex{pkgs: map[string]*docPkg{}, funcs: map[string]bool{}}
	var lines []docLine
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
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			idx.add(filepath.Base(dir), f)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				idx.funcs[fn.Name.Name] = true
			}
		}
		if dir == docSkip {
			return nil
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				line := fset.Position(c.Pos()).Line
				for i, s := range strings.Split(c.Text, "\n") {
					lines = append(lines, docLine{fmt.Sprintf("%s:%d", path, line+i), s})
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range docFiles {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			lines = append(lines, docLine{fmt.Sprintf("%s:%d", path, n), sc.Text()})
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return idx, lines
}

// add records one file's declarations under its package.
func (x *docIndex) add(pkg string, f *ast.File) {
	p := x.pkgs[pkg]
	if p == nil {
		p = &docPkg{names: map[string]bool{}, members: map[string]map[string]bool{}, embeds: map[string][]string{}}
		x.pkgs[pkg] = p
	}
	member := func(typ, name string) {
		if p.members[typ] == nil {
			p.members[typ] = map[string]bool{}
		}
		p.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.names[d.Name.Name] = true
			} else if typ := docTypeName(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					p.names[typ] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fld := range fields.List {
						for _, n := range fld.Names {
							member(typ, n.Name)
						}
						if len(fld.Names) == 0 {
							if e := docTypeName(fld.Type); e != "" {
								p.embeds[typ] = append(p.embeds[typ], e)
								member(typ, e[strings.IndexByte(e, '.')+1:])
							}
						}
					}
				}
			}
		}
	}
}

// docTypeName returns the named type an expression denotes, through
// pointers and type arguments: "T" for one of the package's own and "pkg.T"
// for another's, or "" for any other expression.
func docTypeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return docTypeName(e.X)
	case *ast.IndexExpr:
		return docTypeName(e.X)
	case *ast.IndexListExpr:
		return docTypeName(e.X)
	case *ast.SelectorExpr:
		if pkg, ok := e.X.(*ast.Ident); ok {
			return pkg.Name + "." + e.Sel.Name
		}
	}
	return ""
}
