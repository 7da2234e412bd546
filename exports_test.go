package cbnet

import (
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

// keptExports are exported funcs and methods that no non-test code calls
// and that stay exported on purpose. Each entry says why. A method that
// satisfies an interface (metrics.Bucket.UnmarshalJSON, say) needs no entry.
var keptExports = map[string]string{
	// Test hooks: tests in other packages force a kernel or the scalar
	// path, or size a packed panel, through them.
	"cbnet/internal/tensor.SetGEMMKernelForTest":      "test hook",
	"cbnet/internal/tensor.SetBlockedKernelForTest":   "test hook",
	"cbnet/internal/tensor.BlockedKernelEnabled":      "test hook",
	"cbnet/internal/tensor.GEMMKernels":               "test hook: the kernels a parity test loops over",
	"(*cbnet/internal/tensor.PackScratch).PanelBytes": "test hook: the packed-panel size a test checks",

	// References that tests compare the fast paths against: tests hold the
	// transposed products to GEMM on a materialized transpose, and the
	// blocked GEMM to the naive loop inside package tensor.
	"(*cbnet/internal/tensor.Tensor).Transpose": "reference for the transposed GEMMs",
	"(*cbnet/internal/tensor.Tensor).SumRows":   "reference for the bias gradients",

	// Helpers that tests in other packages call; deleting them would move
	// the same code into each test.
	"cbnet/internal/dataset.MustGenerate":   "test helper in 6 packages",
	"(*cbnet/internal/tensor.Tensor).At":    "test helper: element read",
	"(*cbnet/internal/tensor.Tensor).Set":   "test helper: element write",
	"(*cbnet/internal/tensor.Tensor).Clone": "test helper: deep copy in 6 packages",
	"(*cbnet/internal/nn.Plan).OutWidth":    "test helper: a plan's output width",

	// The encoder-only route waits on ROADMAP item 3, which decides it.
	"cbnet/internal/generalize.BuildEncoderPipeline":        "decided by ROADMAP item 3",
	"(*cbnet/internal/generalize.EncoderPipeline).Accuracy": "decided by ROADMAP item 3",
	"(*cbnet/internal/generalize.EncoderPipeline).Cost":     "decided by ROADMAP item 3",
}

// TestEveryExportHasACaller fails on an exported func or method in
// internal/, cmd/ or benchmark/ that no non-test code uses, unless it is
// in keptExports or satisfies an interface. It type-checks the non-test
// files go/build selects for this platform, so build tags count.
func TestEveryExportHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library it imports")
	}
	ld := newLoader()
	var dirs []string
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
					return filepath.SkipDir
				}
				dirs = append(dirs, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		if _, err := ld.load(dir); err != nil {
			t.Fatal(err)
		}
	}

	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, p := range ld.pkgs {
		if p == nil {
			continue
		}
		for _, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range ld.pkgs {
		if p != nil {
			walk(p.pkg)
		}
	}

	// satisfies reports whether fn is a method that belongs to an interface
	// its receiver's type implements; such a method has callers through the
	// interface that Uses does not record.
	satisfies := func(fn *types.Func) bool {
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return false
		}
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, it := range ifaces {
			if m, _ := types.MissingMethod(types.NewPointer(recv), it, true); m != nil {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() {
					return true
				}
			}
		}
		return false
	}

	// Every func and method the scanned packages declare, by full name.
	decls := map[string]*types.Func{}
	for _, p := range ld.pkgs {
		if p == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				decls[obj.FullName()] = obj
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						decls[m.FullName()] = m
					}
				}
			}
		}
	}

	var unused []string
	for name, fn := range decls {
		if _, kept := keptExports[name]; kept || !fn.Exported() || used[fn] || satisfies(fn) {
			continue
		}
		unused = append(unused, name)
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: exported, but no non-test code uses it", name)
	}
	for name := range keptExports {
		switch fn := decls[name]; {
		case fn == nil:
			t.Errorf("keptExports names %s, which no longer exists", name)
		case used[fn]:
			t.Errorf("keptExports names %s, which non-test code now uses", name)
		case satisfies(fn):
			t.Errorf("keptExports names %s, which satisfies an interface", name)
		}
	}
}

type loadedPkg struct {
	pkg  *types.Package
	info *types.Info
}

// loader type-checks this module's packages from their non-test files and
// everything else from source, so a name's uses in every package point at
// the one object that declares it.
type loader struct {
	fset *token.FileSet
	ctxt build.Context
	std  types.Importer
	pkgs map[string]*loadedPkg // by directory; nil for a directory without Go files
}

func newLoader() *loader {
	fset := token.NewFileSet()
	ctxt := build.Default
	ctxt.CgoEnabled = false
	return &loader{
		fset: fset,
		ctxt: ctxt,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*loadedPkg{},
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	rest, ok := strings.CutPrefix(path, "cbnet/")
	if !ok {
		return l.std.Import(path)
	}
	p, err := l.load(filepath.FromSlash(rest))
	if err != nil {
		return nil, err
	}
	return p.pkg, nil
}

func (l *loader) load(dir string) (*loadedPkg, error) {
	if p, ok := l.pkgs[dir]; ok {
		return p, nil
	}
	bp, err := l.ctxt.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		l.pkgs[dir] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	path := "cbnet/" + filepath.ToSlash(dir)
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	p := &loadedPkg{pkg: pkg, info: info}
	l.pkgs[dir] = p
	return p, nil
}
