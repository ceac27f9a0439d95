package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The golden-diagnostic suite: each analyzer has a package under
// testdata/src/<name> whose source marks every expected finding with a
// trailing comment
//
//	// want "regex" ["regex" ...]
//
// on the line the diagnostic lands on. The test fails on any
// unmatched want AND on any diagnostic no want expects, so the
// testdata pins both the analyzer's reach and its silence on the
// clean cases sprinkled through the same files.

var (
	goldenOnce   sync.Once
	goldenLoader *Loader
	goldenErr    error
)

// sharedLoader caches one loader (and therefore one type-checked view
// of the standard library and the module packages the testdata
// imports) across all golden tests.
func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	goldenOnce.Do(func() {
		goldenLoader, goldenErr = NewLoader(filepath.Join("..", ".."))
	})
	if goldenErr != nil {
		t.Fatalf("loader: %v", goldenErr)
	}
	return goldenLoader
}

// loadGolden loads testdata/src/<name> under a synthetic import path,
// scoped as scopeAs.
func loadGolden(t *testing.T, name, scopeAs string) *Package {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, l.ModulePath+"/capvet_testdata/"+name, scopeAs)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return pkg
}

// wantRe extracts the quoted regexes of a want comment; both
// double-quoted and backquoted forms are accepted (strconv.Unquote
// handles either).
var wantRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// collectWants gathers want expectations per file:line.
func collectWants(t *testing.T, fset *token.FileSet, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := make(map[string][]*regexp.Regexp)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, q := range wantRe.FindAllString(rest, -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", key, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], re)
				}
			}
		}
	}
	return wants
}

// runGolden checks analyzers against their testdata package: every
// want matched by exactly one diagnostic, zero diagnostics unmatched.
// Testdata may exercise several analyzers at once when their scopes
// all cover scopeAs.
func runGolden(t *testing.T, name, scopeAs string, as ...*Analyzer) {
	t.Helper()
	l := sharedLoader(t)
	pkg := loadGolden(t, name, scopeAs)
	for _, a := range as {
		if a.Scope != nil && !a.Scope(pkg.RelPath) {
			t.Fatalf("testdata package scoped as %q is outside analyzer %s's scope", scopeAs, a.Name)
		}
	}
	diags := Run(l, []*Package{pkg}, as)
	wants := collectWants(t, l.Fset, pkg)

	matched := make([]bool, len(diags))
	for key, res := range wants {
		for _, re := range res {
			found := false
			for i, d := range diags {
				dk := fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)
				if matched[i] || dk != key {
					continue
				}
				if re.MatchString(d.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: want %q: no matching diagnostic", key, re)
			}
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	runGolden(t, "determinism", "internal/sim", Determinism)
}

func TestDrainGolden(t *testing.T) {
	runGolden(t, "drain", "x", Drain)
}

func TestGoIsolateGolden(t *testing.T) {
	runGolden(t, "goisolate", "internal/sim", GoIsolate)
}

func TestAtomicFieldGolden(t *testing.T) {
	runGolden(t, "atomicfield", "x", AtomicField)
}

func TestNoPrintGolden(t *testing.T) {
	runGolden(t, "noprint", "internal/sim", NoPrint)
}

func TestBlockOwnGolden(t *testing.T) {
	runGolden(t, "blockown", "x", BlockOwn)
}

func TestHotAllocGolden(t *testing.T) {
	runGolden(t, "hotalloc", "internal/sim", HotAlloc)
}

func TestCtxFlowGolden(t *testing.T) {
	runGolden(t, "ctxflow", "internal/load", CtxFlow)
}

// TestDistFleetGolden pins the joint coverage of the determinism and
// goisolate analyzers on one package: the dist testdata encodes the
// failure modes of distributing shards to workers — wall-clock lease
// arithmetic and unmanaged heartbeat goroutines — next to their
// sanctioned counterparts, scoped as internal/load, which both
// analyzers cover.
func TestDistFleetGolden(t *testing.T) {
	runGolden(t, "dist", "internal/load", Determinism, GoIsolate)
}

// TestScopeExcluded proves scoped analyzers stay silent outside their
// packages: the noprint testdata, scoped as the report package (the
// rendering layer), must produce nothing.
func TestScopeExcluded(t *testing.T) {
	l := sharedLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "noprint"),
		l.ModulePath+"/capvet_testdata/noprint_as_report", "internal/report")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if diags := Run(l, []*Package{pkg}, []*Analyzer{NoPrint}); len(diags) != 0 {
		t.Fatalf("noprint fired inside internal/report scope: %v", diags)
	}
}

// TestIgnoreDirective proves the escape hatch end to end: a directive
// with a reason suppresses (same line and next line), a directive
// without a reason or with an unknown analyzer is itself a finding and
// suppresses nothing.
func TestIgnoreDirective(t *testing.T) {
	l := sharedLoader(t)
	pkg := loadGolden(t, "ignore", "internal/sim")
	diags := Run(l, []*Package{pkg}, All())

	byAnalyzer := make(map[string]int)
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["capvet"] != 2 {
		t.Errorf("want 2 malformed-directive findings, got %d: %v", byAnalyzer["capvet"], diags)
	}
	if byAnalyzer["noprint"] != 3 {
		t.Errorf("want 3 surviving noprint findings, got %d: %v", byAnalyzer["noprint"], diags)
	}
	// The two suppressed calls are tagged SUPPRESSED inside their
	// directive reasons; nothing may be reported on a directive's line
	// or the line below it.
	tagged := map[int]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "SUPPRESSED") {
					tagged[l.Fset.Position(c.Pos()).Line] = true
				}
			}
		}
	}
	if len(tagged) != 2 {
		t.Fatalf("testdata should tag exactly 2 suppressed sites, found %d", len(tagged))
	}
	for _, d := range diags {
		if tagged[d.Line] || tagged[d.Line-1] {
			t.Errorf("suppressed finding leaked: %s", d)
		}
		if d.Analyzer == "capvet" && !strings.Contains(d.Message, "non-empty reason") {
			t.Errorf("malformed-directive message should demand a reason: %s", d)
		}
	}
}
