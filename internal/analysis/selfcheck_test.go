package analysis

import (
	"go/types"
	"testing"
)

// TestSelfCheckCleanTree runs the full analyzer suite over the real
// module tree — the same run CI and scripts/capvet.sh do — and asserts
// it stays clean. Under `go test -race` this also exercises the whole
// load/typecheck/flow pipeline with the race detector on.
func TestSelfCheckCleanTree(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := Run(l, pkgs, All())
	for _, d := range diags {
		t.Errorf("self-check finding: %s", d)
	}
}

// TestRealTreeHotSetResolved pins the hotalloc contract to the real
// tree: the declared hot set must resolve to actual declarations (a
// rename would otherwise silently shrink the checked surface), and the
// one-level propagation must pick up callees of the hot loops.
func TestRealTreeHotSetResolved(t *testing.T) {
	l := sharedLoader(t)
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	facts := BuildFacts(l, pkgs)
	names := make(map[string]bool)
	for obj := range facts.hotFuncs {
		names[hotName(obj)] = true
	}
	for _, want := range []string{"Stepper.StepBlock", "forEachBlock", "decodeColumns", "colReader.NextBlock", "Run"} {
		if !names[want] {
			t.Errorf("declared hot function %s did not resolve; hot set: %v", want, names)
		}
	}
	if len(facts.hotCallees) == 0 {
		t.Error("one-level propagation resolved no hot callees")
	}
}

// hotName names a hot-set function, qualifying methods with their
// receiver type so a same-named method elsewhere cannot stand in.
func hotName(obj types.Object) string {
	if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return n.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}
