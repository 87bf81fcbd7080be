package analysis

import (
	"fmt"
	"go/ast"
)

// GoroutineAnalyzer enforces the one-pool rule: every `go` statement in
// non-test internal/ code must sit inside a function whose doc comment
// carries `//lint:workerpool`. That function is par.For — the one
// audited, joined, index-addressed worker pool — so an unjoined
// goroutine cannot race the round loop and make trace replay
// order-dependent, and a second hand-rolled pool cannot creep back in.
// A launch that genuinely needs another lifecycle takes a reasoned
// `//lint:allow goroutine` waiver.
//
// cmd/ and examples/ own their runtime concerns and are out of scope, as
// are _test.go files (tests poll and time out with the testing package's
// own lifecycle).
func GoroutineAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "goroutine",
		Doc: "require every go statement in internal/ to live in the " +
			"//lint:workerpool helper (par.For)",
		Run: runGoroutine,
	}
}

func runGoroutine(pass *Pass) []Diagnostic {
	if !hasPathPrefix(pass.Path(), ModulePath+"/internal") {
		return nil
	}
	var diags []Diagnostic
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isTestFile(pass.Fset, fd.Pos()) || hasDirective(fd.Doc, "//lint:workerpool") {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if gs, ok := n.(*ast.GoStmt); ok {
					diags = append(diags, Diagnostic{
						Pos:  gs.Pos(),
						Rule: "goroutine",
						Message: fmt.Sprintf("goroutine launched in %s: fan work out "+
							"through par.For, the //lint:workerpool pool, so the "+
							"run stays joined and replayable", fd.Name.Name),
					})
				}
				return true
			})
		}
	}
	return diags
}
