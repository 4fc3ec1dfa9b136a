// Package ctxflow protects the engine's context plumbing: every train/query
// boundary threads a context.Context (CreateModel, ExecContext, ...), and a
// library function that conjures context.Background() or context.TODO()
// while a perfectly good ctx parameter is in scope silently detaches its
// callees from cancellation and deadlines.
//
// A call to context.Background() or context.TODO() is reported when it
// appears in non-main, non-test code inside a function (or closure) whose
// own or enclosing signature has a context.Context parameter. Root-level
// helpers with no ctx parameter (Engine.Exec, background worker startup)
// are untouched — there is no caller context to thread.
//
// The escape hatch is a "//lint:ctxflow <reason>" comment on the flagged
// line, the line above, or the enclosing function's doc comment.
package ctxflow

import (
	"go/ast"
	"go/types"

	"dbest/tools/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "check that library code threads in-scope ctx parameters instead of calling context.Background/TODO",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if pass.Pkg.Name() == "main" {
		return nil, nil // commands own their root contexts
	}
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(pass, fd.Body, hasCtxParam(pass, fd.Type))
		}
	}
	return nil, nil
}

// visit walks a function body; ctxInScope tracks whether this function or
// any enclosing one declares a context.Context parameter.
func visit(pass *analysis.Pass, n ast.Node, ctxInScope bool) {
	switch n := n.(type) {
	case nil:
		return
	case *ast.FuncLit:
		visit(pass, n.Body, ctxInScope || hasCtxParam(pass, n.Type))
		return
	case *ast.CallExpr:
		if ctxInScope {
			if name, ok := backgroundOrTODO(pass, n); ok {
				pass.Reportf(n.Pos(),
					"context.%s() called where a ctx parameter is in scope: thread the caller's context so cancellation and deadlines propagate", name)
			}
		}
	}
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			visit(pass, c, ctxInScope)
		}
		return false
	})
}

// backgroundOrTODO reports whether call is context.Background or
// context.TODO, resolved through the type checker (a local package that
// happens to be named "context" does not count).
func backgroundOrTODO(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Background" && name != "TODO" {
		return "", false
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return name, true
}

// hasCtxParam reports whether the signature declares a context.Context
// parameter.
func hasCtxParam(pass *analysis.Pass, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		t := pass.TypesInfo.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if n, ok := t.(*types.Named); ok {
			obj := n.Obj()
			if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
				return true
			}
		}
	}
	return false
}
