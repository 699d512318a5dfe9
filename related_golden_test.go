package cppcache

// Byte-for-byte pins for the configurations perfbench/pinned.json does
// not cover: the related-work hierarchies (VC, LCC, LCC under C-Pack) and
// the CPP ablations (a non-adjacent affiliation mask, a mask whose
// partner shares its set at both levels, victim placement off). Each
// entry is the ledger digest of a full Result, so any change in a counter
// — not just a headline metric — fails the test. The simulator is
// deterministic; a change that is meant to alter these results
// regenerates the file with
//
//	go test -run TestRelatedGolden -update-related
//
// and the diff of related_golden.json becomes part of the review.

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"cppcache/internal/ledger"
)

var updateRelated = flag.Bool("update-related", false, "rewrite testdata/related_golden.json from current simulation results")

// relatedGoldenRuns lists the pinned runs: every benchmark at scale 1 in
// functional mode for each config, plus one full-pipeline run each for
// VC and LCC.
func relatedGoldenRuns() map[string]func(bench string, p *Program) (Result, error) {
	functional := Options{Scale: 1, FunctionalOnly: true}
	variant := func(mask uint32, victim bool) func(string, *Program) (Result, error) {
		return func(bench string, _ *Program) (Result, error) {
			return RunCPPVariant(bench, mask, victim, functional)
		}
	}
	program := func(cfg CacheConfig, o Options) func(string, *Program) (Result, error) {
		return func(_ string, p *Program) (Result, error) { return RunProgram(p, cfg, o) }
	}
	return map[string]func(string, *Program) (Result, error){
		"VC functional":           program(VC, functional),
		"LCC functional":          program(LCC, functional),
		"LCC@cpack functional":    program(LCC, Options{Scale: 1, FunctionalOnly: true, Compressor: "cpack"}),
		"CPP mask=0x2 functional": variant(0x2, true),
		"CPP novictim functional": variant(0x1, false),
		// 0x100 flips a line-number bit above the set index at both
		// levels, so the partner shares its line's set.
		"CPP mask=0x100 functional": variant(0x100, true),
		"VC full":                   program(VC, Options{Scale: 1}),
		"LCC full":                  program(LCC, Options{Scale: 1}),
	}
}

// relatedFullBench is the one benchmark the full-pipeline rows run.
const relatedFullBench = "olden.treeadd"

func relatedGoldenDigests(t *testing.T) map[string]string {
	t.Helper()
	runs := relatedGoldenRuns()
	out := map[string]string{}
	for _, bench := range Benchmarks() {
		p, err := BuildBenchmark(bench, 1)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range runs {
			if strings.HasSuffix(name, " full") && bench != relatedFullBench {
				continue
			}
			r, err := run(bench, p)
			if err != nil {
				t.Fatalf("%s %s: %v", bench, name, err)
			}
			d, err := ledger.ResultDigest(r)
			if err != nil {
				t.Fatal(err)
			}
			out[bench+" "+name] = d
		}
	}
	return out
}

func TestRelatedGolden(t *testing.T) {
	got := relatedGoldenDigests(t)
	path := filepath.Join("testdata", "related_golden.json")
	if *updateRelated {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-related)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: digest %q, golden %q; if intended, rerun with -update-related", k, got[k], want[k])
		}
	}
}
