package internal_test

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports lists the exported top-level declarations under internal/
// that nothing but tests calls. Each is production API kept for a test: it
// should be deleted, unexported, or moved into its package's test files
// (export_test.go, reference_test.go), and then dropped from this list.
// Entries are "pkg.Name" or "pkg.Type.Method".
var testOnlyExports = map[string]bool{
	// Operand helpers of the AVX model that only its tests build.
	"avx.Elem64": true, "avx.XMM": true, "avx.Mask.PopCount": true, "avx.Op.ElemsOnPage": true,
	// The zero Estimator: production takes it by default, never by name.
	"core.EstMin": true,
	// The §IV-G syscall-timing refinement of the entry point; the Windows
	// attack and scand stop at the region scan.
	"core.WindowsEntryPoint": true,
	// Victim-side helpers the attack tests drive directly.
	"linux.Kernel.TouchModule": true, "linux.TextRegionSize": true,
	"winkernel.Kernel.ImageEnd": true, "userspace.Image.Signature": true,
	"sgx.Enclave.Timer": true, "sgx.Enclave.TimerJitterSigma": true,
	// Attacker user-memory API nothing but the machine and core tests uses.
	"machine.Machine.ReadUser": true, "machine.Machine.WriteUser": true,
	"machine.Machine.ProtectUser": true, "machine.Machine.SetVector": true,
	// Counters and introspection the differential and round-trip tests read.
	"perf.Counters.Read": true, "ptecache.Cache.Resident": true,
	"tlb.TLB.EntryCount": true, "tlb.PSC.EntryCount": true,
	"obs.Histogram.Count": true, "obs.Trace.CanonicalJSON": true,
	// Statistics helpers only the stats tests call.
	"stats.MinOfK": true, "stats.NewHistogram": true, "stats.Histogram.BinCenter": true,
	"stats.Sample.Values": true, "stats.Stream.AddN": true,
}

// stdMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, ...): a declaration with
// one of these names is used without being named.
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
}

// Every exported top-level declaration under internal/ (functions, methods,
// types, constants and variables in non-test files) must be named by some
// non-test Go file of the repository — its own package, cmd/, examples/ or
// bench/ — or be listed in testOnlyExports. The match is by name, like a
// grep: a name declared twice is used if either is, so the check can miss a
// test-only export but never flags a used one.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ key, name string }
	var decls []decl
	uses := make(map[string]int)  // identifier occurrences in non-test files
	named := make(map[string]int) // of which declaring occurrences
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || strings.HasPrefix(n, ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		countIdents(fset, path, src, uses)
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, id := range declaringIdents(f) {
			named[id.Name]++
		}
		rel, _ := filepath.Rel(root, path)
		if !strings.HasPrefix(rel, "internal"+string(filepath.Separator)) {
			return nil
		}
		pkg := filepath.Base(filepath.Dir(path))
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				if !dd.Name.IsExported() {
					continue
				}
				if dd.Recv == nil {
					decls = append(decls, decl{pkg + "." + dd.Name.Name, dd.Name.Name})
					continue
				}
				recv := recvType(dd.Recv.List[0].Type)
				if ast.IsExported(recv) && !stdMethods[dd.Name.Name] {
					decls = append(decls, decl{pkg + "." + recv + "." + dd.Name.Name, dd.Name.Name})
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							decls = append(decls, decl{pkg + "." + s.Name.Name, s.Name.Name})
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								decls = append(decls, decl{pkg + "." + n.Name, n.Name})
							}
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

	seen := make(map[string]bool)
	var unused []string
	for _, d := range decls {
		seen[d.key] = true
		if uses[d.name] <= named[d.name] && !testOnlyExports[d.key] {
			unused = append(unused, d.key)
		}
		if uses[d.name] > named[d.name] && testOnlyExports[d.key] {
			t.Errorf("%s has a non-test caller now: drop it from testOnlyExports", d.key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, unexport it or move it into a test file", k)
	}
	for k := range testOnlyExports {
		if !seen[k] {
			t.Errorf("testOnlyExports lists %s, which is no longer declared", k)
		}
	}
	t.Logf("%d exported top-level declarations under internal/, %d test-only (allowlisted)", len(decls), len(testOnlyExports))
}

// countIdents adds every identifier token of src to counts.
func countIdents(fset *token.FileSet, path string, src []byte, counts map[string]int) {
	var s scanner.Scanner
	s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
	for {
		_, tok, lit := s.Scan()
		if tok == token.EOF {
			return
		}
		if tok == token.IDENT {
			counts[lit]++
		}
	}
}

// declaringIdents returns the identifiers of f that declare a name rather
// than use one: function, method, type, constant, variable, struct-field
// and interface-method names.
func declaringIdents(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			ids = append(ids, n.Name)
		case *ast.TypeSpec:
			ids = append(ids, n.Name)
		case *ast.ValueSpec:
			ids = append(ids, n.Names...)
		case *ast.Field:
			ids = append(ids, n.Names...)
		}
		return true
	})
	return ids
}

// recvType returns the type name of a method receiver expression.
func recvType(e ast.Expr) string {
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
