package cppcache

// Golden pinning of the attribution profiler output. The simulator is
// deterministic, so the full rendered profile — top-N tables plus
// collapsed stacks — of a fixed run is pinned byte-for-byte. Any drift
// means the attribution (or the hierarchy behaviour it mirrors) changed;
// intended changes regenerate the file with
//
//	go test . -run TestAttrGolden -update-attr
//
// and the diff of attr_golden.txt becomes part of the review.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"cppcache/internal/obs"
)

var updateAttr = flag.Bool("update-attr", false, "rewrite testdata/attr_golden.txt from the current profiler output")

func attrGoldenProfile(t *testing.T) (Result, *Observation) {
	t.Helper()
	ob := NewObservation(ObserveOptions{Attr: true})
	res, err := Run("olden.treeadd", CPP, Options{Scale: 1, FunctionalOnly: true, Observe: ob})
	if err != nil {
		t.Fatal(err)
	}
	return res, ob
}

func TestAttrGolden(t *testing.T) {
	res, ob := attrGoldenProfile(t)
	got := ob.AttrText(10) + "\ncollapsed stacks:\n" + ob.AttrCollapsed()

	path := filepath.Join("testdata", "attr_golden.txt")
	if *updateAttr {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-attr)", err)
	}
	if got != string(want) {
		t.Errorf("attribution profile drifted from %s (regenerate with -update-attr if intended)\ngot:\n%s", path, got)
	}

	// The pinned profile must stay consistent with the run it describes:
	// attributed L1 misses are the counted L1 misses.
	if ob.AttrTotal(obs.AttrL1Miss) != res.L1Misses {
		t.Errorf("attributed L1 misses %d != result %d", ob.AttrTotal(obs.AttrL1Miss), res.L1Misses)
	}
	if ob.AttrTotal(obs.AttrAffHit) != res.AffiliatedHitsL1+res.AffiliatedHitsL2 {
		t.Errorf("attributed affiliated hits %d != result %d",
			ob.AttrTotal(obs.AttrAffHit), res.AffiliatedHitsL1+res.AffiliatedHitsL2)
	}
}
