// Package deadexport finds code nothing reaches: exported package-level
// funcs, types, vars and consts declared in non-test files under a module's
// internal/ tree that no non-test file under the module root references —
// the nested bench/ and tools/ modules included, since they sit under the
// same root and are named after their directories — and exported methods on
// the types declared there that no non-test file selects. Only tests can
// reach such a name, so it is either dead or a reference implementation
// tests compare against; the latter says so with
//
//	//lint:deadexport <reason>
//
// on the declaration line, the line above, or in the func's doc comment.
// A method counts as selected where the type checker resolved a selector's
// identifier to it (types.Info.Uses), not where its name appears. Interfaces, gob and json call methods the
// checker cannot see being selected on the concrete type, so a method whose
// name is a method of any interface declared in a loaded package (the
// standard library packages the tree imports included) is exempt.
//
// It is a whole-program property, so unlike the dbest-vet analyzers it
// cannot run per package under `go vet -vettool`; the package's test runs
// it over the repository (the vet-invariants CI leg runs the tools tests).
package deadexport

import (
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

	"dbest/tools/internal/analysis"
)

var analyzer = &analysis.Analyzer{Name: "deadexport"}

// Check type-checks every package under root — the directory of a go.mod
// whose nested modules are named <module>/<dir> — and returns one
// "file:line: message" finding per unreferenced internal export, sorted.
func Check(root string) ([]string, error) {
	mod, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	l := &loader{
		root: root, mod: mod,
		fset: token.NewFileSet(),
		pkgs: make(map[string]*pkg),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, dir)
		_, err = l.load(filepath.ToSlash(filepath.Join(mod, rel)))
		return err
	})
	if err != nil {
		return nil, err
	}

	// A method's receiver names its type without anything reaching it.
	used := make(map[types.Object]bool)
	for _, p := range l.pkgs {
		recv := make(map[*ast.Ident]bool)
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
		}
		for id, obj := range p.info.Uses {
			if recv[id] {
				continue
			}
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic type's method, whatever the instantiation
			}
			used[obj] = true
		}
	}
	ifaceMethods := interfaceMethodNames(l.pkgs)
	var out []string
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, mod+"/internal/") {
			continue
		}
		pass := analysis.NewPass(analyzer, l.fset, p.files, p.types, p.info, func(d analysis.Diagnostic) {
			out = append(out, fmt.Sprintf("%s: %s", l.fset.Position(d.Pos), d.Message))
		})
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				pass.Reportf(obj.Pos(), "exported %s.%s is referenced by no non-test file", p.types.Name(), name)
				continue // the finding covers the type's methods
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] && !ifaceMethods[m.Name()] {
					pass.Reportf(m.Pos(), "exported method %s.%s.%s is selected by no non-test file", p.types.Name(), name, m.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// interfaceMethodNames collects the method names of every interface type
// declared at package level in the loaded packages and in everything they
// import, plus error's.
func interfaceMethodNames(pkgs map[string]*pkg) map[string]bool {
	names := map[string]bool{"Error": true}
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.types)
	}
	return names
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

func modulePath(root string) (string, error) {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	m := moduleLine.FindSubmatch(gomod)
	if m == nil {
		return "", fmt.Errorf("deadexport: no module line in %s/go.mod", root)
	}
	return string(m[1]), nil
}

// loader type-checks the packages under root from source, once each, so an
// object is one pointer however many packages import it. Everything outside
// the module path goes to the standard library's source importer.
type loader struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*pkg
}

type pkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("deadexport: no Go files for %s", path)
	}
	return p.types, nil
}

// load returns the type-checked non-test files of one package under root,
// or nil for a directory that holds no buildable Go files.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod)))
	bp, err := build.ImportDir(dir, 0)
	if _, noGo := err.(*build.NoGoError); noGo {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	p := &pkg{info: &types.Info{Uses: make(map[*ast.Ident]types.Object)}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	l.pkgs[path] = p
	p.types, err = (&types.Config{Importer: l}).Check(path, l.fset, p.files, p.info)
	return p, err
}
