package heteroswitch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// flagBinaries are the three FL command lines that share one run
// configuration, experiments.Options.
var flagBinaries = []string{"cmd/flsim", "cmd/heterobench", "cmd/flserve"}

// flagDeclCap is the number of flag declarations across the three binaries
// and the two bind functions. It was 54 when each binary spelled the shared
// flags itself; the cap only ever goes down.
const flagDeclCap = 39

// TestSharedFlagsAreDeclaredOnce holds the CLI layer to one declaration and
// one apply site: a flag name is declared in exactly one place — by
// (*experiments.Options).BindFlags / BindMachineFlags or by one binary (the
// per-binary -model aside). Without it the mistake shows up only as a "flag
// redefined" panic at start-up, which no test runs.
func TestSharedFlagsAreDeclaredOnce(t *testing.T) {
	fset := token.NewFileSet()
	places := map[string][]string{} // flag name → where it is declared
	total := 0
	declare := func(place string, n ast.Node) {
		for _, name := range flagNames(n) {
			places[name] = append(places[name], place)
			total++
		}
	}

	common, err := parser.ParseFile(fset, "internal/experiments/common.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bound := 0
	for _, d := range common.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && (fn.Name.Name == "BindFlags" || fn.Name.Name == "BindMachineFlags") {
			declare("experiments."+fn.Name.Name, fn)
			bound++
		}
	}
	if bound != 2 || total == 0 {
		t.Errorf("found %d bind functions declaring %d flags in internal/experiments/common.go; want BindFlags and BindMachineFlags", bound, total)
	}

	for _, dir := range flagBinaries {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			declare(dir, f)
		}
	}

	var names []string
	for name := range places {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if p := places[name]; len(p) > 1 && name != "model" {
			t.Errorf("-%s is declared in %d places (%s); declare it once, in BindFlags if more than one binary needs it",
				name, len(p), strings.Join(p, ", "))
		}
	}
	if total > flagDeclCap {
		t.Errorf("%d flag declarations across %v and the bind functions; the cap is %d", total, flagBinaries, flagDeclCap)
	}
}

// TestNoRunSelectsTheKernelBackend: every harness, binary and library path
// runs the default backend, so SetBackend is called only by the tensor
// package and by the benchmark's probes — never by a non-test file anywhere
// else. A run option or a library default that selected a backend would make
// what a run prints depend on it.
func TestNoRunSelectsTheKernelBackend(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (path == filepath.Join("internal", "tensor") || path == filepath.Join("cmd", "perfbook") ||
			(path != "." && strings.HasPrefix(d.Name(), "."))):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetBackend" {
				t.Errorf("%s: calls SetBackend; only internal/tensor and cmd/perfbook may", fset.Position(n.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no non-test Go files")
	}
}

// TestTensorSpawnsNoWork: every tensor kernel runs on its caller's
// goroutine, and the frozen forward's intra-op budget splits one loop above
// them (nn's conv sample×group iterations), so no non-test file of
// internal/tensor may import internal/parallel.
func TestTensorSpawnsNoWork(t *testing.T) {
	dir := filepath.Join("internal", "tensor")
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		files++
		for _, imp := range f.Imports {
			if imp.Path.Value == `"heteroswitch/internal/parallel"` {
				t.Errorf("%s: imports internal/parallel; tensor kernels run on the calling goroutine", fset.Position(imp.Pos()))
			}
		}
	}
	if files == 0 {
		t.Fatalf("found no non-test Go files in %s", dir)
	}
}

// flagNames returns the name of every flag declared under n: the string
// literal handed to a flag-package declaration call (flag.Int, fs.IntVar,
// flag.Func, …), whatever the FlagSet is called.
func flagNames(n ast.Node) []string {
	var names []string
	ast.Inspect(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		kind := strings.TrimSuffix(sel.Sel.Name, "Var")
		arg := 0
		if kind != sel.Sel.Name {
			arg = 1 // XxxVar(&v, name, …) and Var(value, name, …)
		}
		switch kind {
		case "", "Bool", "Int", "Int64", "Uint", "Uint64", "Float64", "String", "Duration", "Func", "BoolFunc", "Text":
		default:
			return true
		}
		if arg >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				names = append(names, name)
			}
		}
		return true
	})
	return names
}
