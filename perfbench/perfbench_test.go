package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/span"
)

func TestPlanIsDeterministic(t *testing.T) {
	if !reflect.DeepEqual(passOrder(7, 3, 70), passOrder(7, 3, 70)) {
		t.Fatal("passOrder differs between calls with the same seed")
	}
	if reflect.DeepEqual(passOrder(7, 3, 70), passOrder(8, 3, 70)) {
		t.Fatal("passOrder ignores the seed")
	}
	a, b := serviceRound(7, 1, 4, 12), serviceRound(7, 1, 4, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serviceRound differs between calls with the same seed")
	}
	if reflect.DeepEqual(a, serviceRound(8, 1, 4, 12)) {
		t.Fatal("serviceRound ignores the seed")
	}
	if !reflect.DeepEqual(seededSweep(7, 2), seededSweep(7, 2)) {
		t.Fatal("seededSweep differs between calls with the same seed")
	}
	// Whatever the seed, a round holds every spec roundCopies times and
	// exactly one cold copy of each.
	for seed := int64(0); seed < 5; seed++ {
		copies, cold := map[int]int{}, map[int]int{}
		for _, r := range serviceRound(seed, 0, 0, 12) {
			copies[r.spec]++
			if r.cold {
				cold[r.spec]++
			}
		}
		for s := 0; s < 12; s++ {
			if copies[s] != roundCopies || cold[s] != 1 {
				t.Fatalf("seed %d spec %d: %d copies, %d cold", seed, s, copies[s], cold[s])
			}
		}
	}
}

func TestCorruptedPinFailsTheCheck(t *testing.T) {
	p, err := loadPins(pinnedJSON)
	if err != nil {
		t.Fatal(err)
	}
	w := figuresPipeline()
	w.pins = p
	spec := runSpec{"olden.power", configByLabel("CPP"), 1, false}
	prog, err := cppcache.BuildBenchmark(spec.bench, spec.scale)
	if err != nil {
		t.Fatal(err)
	}
	r, err := cppcache.RunProgram(prog, cppcache.CacheConfig(spec.config.base), spec.options())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.checkResult(spec, r); err != nil {
		t.Fatalf("pinned digest does not match a direct run: %v", err)
	}

	corrupt := pins{}
	for k, v := range p {
		corrupt[k] = v
	}
	d := []byte(corrupt[spec.key()])
	d[0] ^= 1
	corrupt[spec.key()] = string(d)
	w.pins = corrupt
	if err := w.checkResult(spec, r); err == nil {
		t.Fatal("a corrupted pinned digest passed the check")
	}
	delete(corrupt, spec.key())
	if err := w.checkResult(spec, r); err == nil {
		t.Fatal("a missing pinned digest passed the check")
	}
	if err := p.check(sweepTableKey, tableDigest([]byte("not the table\n"))); err == nil {
		t.Fatal("a wrong sweep table passed the check")
	}
}

// TestServiceLoopConcurrentClients drives every client of the service loop
// against one stack at once, traced; run it with -race.
func TestServiceLoopConcurrentClients(t *testing.T) {
	p, err := loadPins(pinnedJSON)
	if err != nil {
		t.Fatal(err)
	}
	w := &serviceWorkload{catalog: serviceCatalogue(), pins: p, outDir: t.TempDir(), seed: 3}
	if _, err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	st, err := w.measure(300*time.Millisecond, span.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.completed == 0 || len(st.stages) == 0 {
		t.Fatalf("service loop: %v, %d traced requests, failures %v", st, len(st.stages), st.errs)
	}
	if _, err := w.stack.drain(); err != nil {
		t.Fatal(err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	q, err := percentile(xs, 90)
	if err != nil || q.Value != 90 || q.Samples != 100 {
		t.Fatalf("p90 of 1..100 = %+v, %v; want 90 from 100 samples", q, err)
	}
	q, err = percentile(xs[:99], 90)
	if err == nil {
		t.Fatalf("p90 of 99 samples (9 beyond) was reported: %+v", q)
	}
	if q.Samples != 99 {
		t.Fatalf("refused percentile reports %d samples, want 99", q.Samples)
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Fatal("p50 of 19 samples (9 beyond) was reported")
	}
	if q, err := percentile(xs[:20], 50); err != nil || q.Value != 10 {
		t.Fatalf("p50 of 1..20 = %+v, %v; want 10", q, err)
	}
}

// TestDeclaredMetricsMatchBenchmarkJSON keeps the metric names in the code
// and in BENCHMARK.json the same, and every workload there runnable.
func TestDeclaredMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	sorted := func(xs []string) []string {
		out := append([]string(nil), xs...)
		sort.Strings(out)
		return out
	}
	for _, w := range names(doc.Workloads) {
		if _, err := newWorkload(w, 1, nil, t.TempDir()); err != nil {
			t.Errorf("BENCHMARK.json workload %s: %v", w, err)
		}
	}
	if got, want := names(doc.EndToEnd), sorted(endToEndNames); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end: BENCHMARK.json %v, code %v", got, want)
	}
	if got, want := names(doc.PerLayer), sorted(perLayerNames()); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer: BENCHMARK.json %v, code %v", got, want)
	}
}
