package ordlog_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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

// exportAllowList holds the exported functions and methods in production
// internal/ packages that no non-test file calls and that stay anyway, each
// with its reason. Interface methods (a method whose receiver satisfies an
// interface declaring it, such as String or Error) and the methods of types
// ordlog.go aliases are public by construction and are not listed.
// Entries read "<package dir>.<Func>" or "<package dir>.<Type>.<Method>".
var exportAllowList = map[string]string{
	"internal/obs.SetEnabled": "the registry's off switch: BenchmarkLeastObsOff measures the instrumentation's cost against it",
	// unify is the nested-loop oracle of storage.Join and of core's query
	// tests; it stays out of internal/oracle while benchmark/oracle.go
	// imports it.
	"internal/unify.Subst.Resolve": "the binding function the join and query oracles resolve variables with",
}

// oracleImportAllowList holds today's imports from internal/oracle into the
// production packages an oracle checks (eval, ground, core, stable), keyed
// "<oracle dir> -> <production dir>". It may only shrink: an oracle that
// shares code with what it checks can hide the defect it is meant to find,
// and an entry that no longer matches an import fails the test.
var oracleImportAllowList = map[string]string{
	"internal/oracle/naive -> internal/eval":    "reads the view and the Definition 2 status functions",
	"internal/oracle/naive -> internal/ground":  "NewViewByName reads the ground program's component table",
	"internal/oracle/negsem -> internal/ground": "Definition 11 evaluates the production grounder's rule instances",
}

// checkedPackages are the production packages an oracle must not import.
var checkedPackages = []string{"internal/eval", "internal/ground", "internal/core", "internal/stable"}

// listedPackage is the subset of `go list -json` output the API-surface
// tests read.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Imports    []string
	Module     *struct {
		Path string
		Main bool
	}
	Error *struct{ Err string }
}

// listModule runs `go list -export -deps -json ./...` and returns the
// module's packages (keyed by their directory relative to the module root)
// and the export-data file of every package, standard library included.
func listModule(t *testing.T) (mod map[string]*listedPackage, export map[string]string, modPath string) {
	t.Helper()
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "./...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	mod = make(map[string]*listedPackage)
	export = make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		if p.Error != nil {
			t.Fatalf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		export[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Main {
			modPath = p.Module.Path
			mod[p.ImportPath] = p
		}
	}
	rel := make(map[string]*listedPackage, len(mod))
	for path, p := range mod {
		rel[relPath(path, modPath)] = p
	}
	return rel, export, modPath
}

// relPath is an import path relative to the module root ("." for the root).
func relPath(path, modPath string) string {
	if path == modPath {
		return "."
	}
	return strings.TrimPrefix(path, modPath+"/")
}

// isOracle reports whether a module-relative package dir is an oracle.
func isOracle(dir string) bool {
	return dir == "internal/oracle" || strings.HasPrefix(dir, "internal/oracle/")
}

// TestProductionReachesEveryExport keeps production packages to what
// production reaches. It type-checks every non-test file of the module
// against the compiler's export data and fails if an exported function or
// method of a non-oracle internal/ package has no use in any non-test file
// (cmd/, examples/, benchmark/, ordlog.go and the oracles all count), or
// if a non-test file outside benchmark/ and internal/oracle imports an
// oracle. A checker only tests reach belongs in internal/oracle, a test
// accessor of a production type in its package's export_test.go; code
// nothing reaches is deleted.
func TestProductionReachesEveryExport(t *testing.T) {
	mod, export, modPath := listModule(t)
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := export[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})

	dirs := make([]string, 0, len(mod))
	for dir := range mod {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	used := make(map[string]bool)
	declared := make(map[string]*types.Func) // key → production export
	var ifaces []*types.Interface
	aliased := make(map[string]bool) // "<dir>.<Type>" aliased by the facade
	for _, dir := range dirs {
		p := mod[dir]
		for _, path := range p.Imports {
			d := relPath(path, modPath)
			if isOracle(d) && !isOracle(dir) && dir != "benchmark" && !strings.HasPrefix(dir, "benchmark/") {
				t.Errorf("%s imports %s: only tests and benchmark/ may import an oracle", dir, d)
			}
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:  make(map[*ast.Ident]types.Object),
			Defs:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[funcKey(fn, modPath)] = true
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() && dir == "." {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && named.Obj().Pkg() != nil {
					aliased[relPath(named.Obj().Pkg().Path(), modPath)+"."+named.Obj().Name()] = true
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		ifaces = append(ifaces, scopeInterfaces(pkg, make(map[*types.Package]bool))...)
		if !strings.HasPrefix(dir, "internal/") || isOracle(dir) {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declared[funcKey(obj, modPath)] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declared[funcKey(m, modPath)] = m
					}
				}
			}
		}
	}
	errType := types.Universe.Lookup("error").Type()
	ifaces = append(ifaces, errType.Underlying().(*types.Interface),
		// errors.Is and errors.As reach these through anonymous interfaces
		// no package scope declares.
		methodInterface("Unwrap", nil, errType),
		methodInterface("Is", errType, types.Typ[types.Bool]))

	var unreached []string
	for key, fn := range declared {
		if used[key] {
			continue
		}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := receiverNamed(recv.Type())
			if aliased[relPath(fn.Pkg().Path(), modPath)+"."+named.Obj().Name()] || implementsWith(named, fn.Name(), ifaces) {
				continue
			}
		}
		if _, ok := exportAllowList[key]; ok {
			continue
		}
		unreached = append(unreached, key)
	}
	sort.Strings(unreached)
	for _, key := range unreached {
		t.Errorf("%s: exported, but no non-test file uses it (move it to internal/oracle or export_test.go if only tests need it, else delete it)", key)
	}
	for key := range exportAllowList {
		if _, ok := declared[key]; !ok || used[key] {
			t.Errorf("exportAllowList entry %s is stale: remove it", key)
		}
	}
}

// productionLineCeiling bounds the production code TestProductionLineBudget
// counts. A change that deletes lowers it to the new count; one that must
// raise it says by how much and why.
const productionLineCeiling = 20588

// TestProductionLineBudget counts the lines of production Go — the
// non-test files of internal/ outside internal/oracle, of cmd/ and
// ordlog.go — and fails above productionLineCeiling, so the code only
// grows by a decision recorded with the ceiling.
func TestProductionLineBudget(t *testing.T) {
	lines := 0
	count := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines += bytes.Count(b, []byte{'\n'})
	}
	count("ordlog.go")
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && isOracle(filepath.ToSlash(path)) {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				count(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("%d production lines, ceiling %d", lines, productionLineCeiling)
	if lines > productionLineCeiling {
		t.Errorf("%d production lines, over the ceiling of %d: delete as much as was added, or raise the ceiling and say why", lines, productionLineCeiling)
	}
}

// TestOracleIsolation keeps each oracle apart from the code it checks: no
// non-test file under internal/oracle may import eval, ground, core or
// stable, except the edges on oracleImportAllowList.
func TestOracleIsolation(t *testing.T) {
	mod, _, modPath := listModule(t)
	seen := make(map[string]bool)
	oracles := 0
	for dir, p := range mod {
		if !isOracle(dir) {
			continue
		}
		oracles++
		for _, path := range p.Imports {
			d := relPath(path, modPath)
			if !slices.Contains(checkedPackages, d) {
				continue
			}
			edge := dir + " -> " + d
			seen[edge] = true
			if _, ok := oracleImportAllowList[edge]; !ok {
				t.Errorf("oracle imports what it checks: %s", edge)
			}
		}
	}
	if oracles == 0 {
		t.Fatal("no package under internal/oracle; run from the module root")
	}
	for edge := range oracleImportAllowList {
		if !seen[edge] {
			t.Errorf("oracleImportAllowList entry %q no longer matches an import: remove it", edge)
		}
	}
}

// funcKey names a function "<package dir>.<Func>" and a method
// "<package dir>.<Type>.<Method>", with generic instances folded into their
// origin.
func funcKey(fn *types.Func, modPath string) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	key := relPath(fn.Pkg().Path(), modPath) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		if named := receiverNamed(recv.Type()); named != nil {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// receiverNamed is a method receiver's named type, without the pointer.
func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := types.Unalias(t).(*types.Named)
	return named
}

// implementsWith reports whether named or *named satisfies an interface in
// ifaces that declares a method called name.
func implementsWith(named *types.Named, name string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

// methodInterface is interface{ name(param) result }, param omitted if nil.
func methodInterface(name string, param, result types.Type) *types.Interface {
	var params *types.Tuple
	if param != nil {
		params = types.NewTuple(types.NewVar(token.NoPos, nil, "", param))
	}
	sig := types.NewSignatureType(nil, nil, nil, params, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
}

// scopeInterfaces collects the non-generic named interfaces of pkg and of
// every package it imports.
func scopeInterfaces(pkg *types.Package, seen map[*types.Package]bool) []*types.Interface {
	if seen[pkg] {
		return nil
	}
	seen[pkg] = true
	var out []*types.Interface
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	for _, imp := range pkg.Imports() {
		out = append(out, scopeInterfaces(imp, seen)...)
	}
	return out
}
