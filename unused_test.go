package hpcpower

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowUnused lists the exported names under internal/ that only tests
// (or other entries of this list) use and that stay anyway, each with the
// reason. Name matching would let some of them through unlisted — a
// Validate or a Stats has namesakes — and they are listed all the same,
// so that the reason is written down once; an entry whose declaration is
// gone fails the test until it is deleted.
var allowUnused = map[string]string{
	// Seams a surviving test drives something else through.
	"obs.LintExposition":     "the exposition-format lint that serve's /metrics tests and `make obs-check` run over a live scrape",
	"vfs.NewFault":           "the failing disk the wal, tsdb, elect and serve tests run on",
	"anomaly.GenProfile":     "the labeled jobs TestEngineProfilesDetected and TestAnomalyRounds score the detectors on",
	"anomaly.Score":          "precision and recall of fires against GenProfile's labels, in the same two tests",
	"anomaly.Labels":         "Score's ground truth",
	"anomaly.Verdict":        "Score's answer",
	"vfs.FaultFS.Configure":  "wal, block and serve fault tests arm the faults after a clean set-up",
	"vfs.FaultFS.Stats":      "the same tests prove a fault fired before they trust a green result",
	"wal.FileLock.Abandon":   "crash tests drop the flock without unlocking, as a killed process does",
	"elect.Elector.IsLeader": "what the election tests assert after every virtual-clock step",
	"cluster.ByName":         "the way from the system name a dataset's Meta carries back to its Table 1 row; ISSUE 23 kept it",
	"cluster.Systems":        "ByName's table, and the loop of the report and benchmark tests that cover both systems",
	"units.NewTimeGrid":      "sched's power-timeline tests build their grids with it",
	"apps.Profile.Validate":  "TestCatalogValid keeps a new catalog entry inside the ranges the generator assumes",

	// Extension studies whose numbers EXPERIMENTS.md quotes.
	"mlearn.GridSearchBDT":                         "EXPERIMENTS.md §5 extensions: the hyper-parameter grid (flat across depth / minleaf)",
	"mlearn.GridSearchKNN":                         "EXPERIMENTS.md §5 extensions: the hyper-parameter grid (flat across k)",
	"mlearn.GridPoint":                             "row type of the two grid searches",
	"mlearn.ErrorByUserVolume":                     "EXPERIMENTS.md §5 extensions: the per-activity-quartile error breakdown",
	"mlearn.VolumeBucket":                          "row type of ErrorByUserVolume",
	"mlearn.BDT.FeatureImportance":                 "EXPERIMENTS.md §5 extensions: importance ≈ user 0.52 / wall 0.27 / nodes 0.21",
	"mlearn.BDT.RootSplitFeature":                  "EXPERIMENTS.md §5 extensions: which feature the tree splits on first",
	"policy.PricingAnalysis.HighPowerUsersPayMore": "EXPERIMENTS.md §6–§7 table: high-power users subsidized under node-hour pricing",

	// Methods the standard library calls through an interface.
	"block.CorruptBlockError.Unwrap": "errors.Is(err, ErrCorrupt) on the query path",
	"obs.discardHandler.WithAttrs":   "slog.Handler",
	"obs.discardHandler.WithGroup":   "slog.Handler",
	"sched.completionHeap.Less":      "container/heap",
}

// TestNoUnusedExports fails on an exported func, method, type, const or
// var declared in a non-test file under internal/ that no non-test file
// of the root package, cmd/, examples/, internal/ or bench/ mentions and
// allowUnused does not excuse: code only its own tests run is deleted
// with them, not kept.
//
// It matches by name from the syntax tree alone, which keeps it under a
// second and inside `go test ./...`: a package-level name counts as used
// when it appears as pkg.Name through an import of its package or bare
// inside its own package (its declaration aside), a method when any
// selector anywhere has its name. So a dead method can hide behind a
// namesake on another type (every String, Close and Len is "used"), a
// dead function behind a local variable of its name, and anything behind
// a caller that is itself dead. The exact answer is a reachability pass
// over go/types rooted at every main, the root package's exported names
// and bench/ — the one-off ISSUE 23 ran to draw up its deletion list;
// this test keeps the common regression, a new exported name nothing
// calls, from coming back.
func TestNoUnusedExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // "pkg.Name" or "pkg.Type.Method"
	usedQualified := map[string]bool{}      // "pkg.Name"
	usedSelector := map[string]bool{}       // "Method"

	for _, root := range []string{".", "cmd", "examples", "internal", "bench"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if p != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
					return filepath.SkipDir
				}
				if root == "." && p != "." {
					return filepath.SkipDir // the root package only; the other roots walk their own trees
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			own := ""
			if dir := filepath.ToSlash(filepath.Dir(p)); strings.HasPrefix(dir, "internal/") {
				own = path.Base(dir)
			}
			scanFile(fset, f, own, declared, usedQualified, usedSelector)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	var unused []string
	for name := range declared {
		used := usedQualified[name]
		if parts := strings.Split(name, "."); len(parts) == 3 {
			used = usedSelector[parts[2]]
		}
		if _, allowed := allowUnused[name]; !used && !allowed {
			unused = append(unused, name)
		}
	}
	for name, reason := range allowUnused {
		if _, ok := declared[name]; !ok {
			t.Errorf("allowUnused[%q]: no such declaration under internal/; delete the entry", name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowUnused[%q] gives no reason", name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: %s is used by no non-test file: delete it with its tests, or add it to allowUnused with the reason it stays",
			declared[name], name)
	}
}

// scanFile records what one file declares (when it belongs to internal
// package own) and every name it uses.
func scanFile(fset *token.FileSet, f *ast.File, own string, declared map[string]token.Position, usedQualified, usedSelector map[string]bool) {
	imports := map[string]string{} // local name -> internal package
	for _, imp := range f.Imports {
		ip, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(ip, "hpcpower/internal/") {
			continue
		}
		local := path.Base(ip)
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = path.Base(ip)
	}

	declNames := map[*ast.Ident]bool{}
	declare := func(id *ast.Ident, recv string) {
		declNames[id] = true
		if own == "" || !id.IsExported() {
			return
		}
		name := own + "." + id.Name
		if recv != "" {
			name = own + "." + recv + "." + id.Name
		}
		declared[name] = fset.Position(id.Pos())
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			recv := ""
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv = receiverType(d.Recv.List[0].Type)
			}
			declare(d.Name, recv)
		case *ast.GenDecl:
			for _, sp := range d.Specs {
				switch sp := sp.(type) {
				case *ast.TypeSpec:
					declare(sp.Name, "")
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						declare(id, "")
					}
				}
			}
		}
	}

	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			usedSelector[n.Sel.Name] = true
			if x, ok := n.X.(*ast.Ident); ok {
				if pkg, ok := imports[x.Name]; ok {
					usedQualified[pkg+"."+n.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(n.X, visit) // Sel is a field or method, not a bare name
			return false
		case *ast.Ident:
			if own != "" && !declNames[n] {
				usedQualified[own+"."+n.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

// receiverType names a method's receiver type: T for T, *T and T[P].
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
