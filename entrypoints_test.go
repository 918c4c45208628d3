package ordlog_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestOneEntryPointPerOperation keeps each read question to one exported,
// context-taking method per receiver: no package or receiver type in
// internal/ or the root facade may declare both an exported X and an
// exported XCtx. A caller without a context passes context.Background().
func TestOneEntryPointPerOperation(t *testing.T) {
	files := []string{"ordlog.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// scope is "<dir>" for package-level functions and "<dir>.<Type>" for
	// methods; declared holds every exported name per scope.
	declared := make(map[string]map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			scope := filepath.Dir(path)
			if fn.Recv != nil && len(fn.Recv.List) == 1 {
				scope += "." + receiverType(fn.Recv.List[0].Type)
			}
			if declared[scope] == nil {
				declared[scope] = make(map[string]bool)
			}
			declared[scope][fn.Name.Name] = true
		}
	}
	if len(declared) == 0 {
		t.Fatal("no exported functions found; run from the module root")
	}
	var twins []string
	for scope, names := range declared {
		for name := range names {
			if base, ok := strings.CutSuffix(name, "Ctx"); ok && names[base] {
				twins = append(twins, scope+": "+base+" and "+name)
			}
		}
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("two entry points for one operation: %s (keep only the context-taking one)", tw)
	}
}

// receiverType names a method receiver's type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
