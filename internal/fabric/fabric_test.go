package fabric

import (
	"strings"
	"testing"
)

// newTier builds a probe-less coordinator over the given URLs.
func newTier(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	c, err := New(Config{Workers: urls, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewValidatesAndDedups(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no workers did not error")
	}
	if _, err := New(Config{Workers: []string{"", "  "}}); err == nil {
		t.Fatal("New with only blank workers did not error")
	}
	c := newTier(t,
		"http://a:1", "http://a:1/", " http://a:1 ", "http://b:2", "")
	if c.WorkerCount() != 2 {
		t.Fatalf("worker count %d, want 2 after dedup (workers %v)",
			c.WorkerCount(), c.Workers())
	}
	want := []string{"http://a:1", "http://b:2"}
	for i, u := range c.Workers() {
		if u != want[i] {
			t.Errorf("worker[%d] = %q, want %q", i, u, want[i])
		}
	}
}

// TestCandidatesDeterministicAndComplete: the placement preference list
// for a spec hash is stable across calls, covers every distinct worker
// exactly once, and spreads first choices across the tier.
func TestCandidatesDeterministicAndComplete(t *testing.T) {
	c := newTier(t, "http://a:1", "http://b:2", "http://c:3")
	first := map[int]int{}
	for _, hash := range []string{"alpha", "beta", "gamma", "delta", "epsilon",
		"zeta", "eta", "theta", "iota", "kappa", "lambda", "mu"} {
		a := c.candidates(hash)
		b := c.candidates(hash)
		if len(a) != 3 {
			t.Fatalf("candidates(%q) has %d entries, want 3", hash, len(a))
		}
		seen := map[int]bool{}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("candidates(%q) not deterministic: %v vs %v", hash, a, b)
			}
			if seen[a[i]] {
				t.Fatalf("candidates(%q) repeats worker %d: %v", hash, a[i], a)
			}
			seen[a[i]] = true
		}
		first[a[0]]++
	}
	if len(first) < 2 {
		t.Errorf("12 hashes all preferred the same worker: %v (ring not spreading)", first)
	}
}

// TestPickHealthyFirst: placement prefers up workers in ring order,
// rotates across attempts, and still answers (the down list) when the
// whole tier looks dead — the attempt itself is what rediscovers a
// recovered worker.
func TestPickHealthyFirst(t *testing.T) {
	c := newTier(t, "http://a:1", "http://b:2", "http://c:3")
	cand := c.candidates("spec")

	if got := c.pick(cand, 0); got.url != c.workers[cand[0]].url {
		t.Fatalf("all-healthy pick = %s, want ring head %s", got.url, c.workers[cand[0]].url)
	}

	c.workers[cand[0]].up.Store(false)
	if got := c.pick(cand, 0); got.url == c.workers[cand[0]].url {
		t.Fatal("pick chose the down worker while healthy ones remain")
	}
	// Attempts rotate over the healthy-first ordering: with one down, the
	// first two attempts cover both healthy workers.
	a0, a1 := c.pick(cand, 0), c.pick(cand, 1)
	if a0 == a1 {
		t.Fatal("consecutive attempts picked the same worker")
	}

	for _, w := range c.workers {
		w.up.Store(false)
	}
	if got := c.pick(cand, 0); got == nil {
		t.Fatal("pick returned nil with every worker down")
	}
}

func TestWriteProm(t *testing.T) {
	c := newTier(t, `http://has"quote:1`, "http://b:2")
	c.retries.Add(3)
	c.placements.Add(7)
	var b strings.Builder
	c.WriteProm(&b)
	out := b.String()
	for _, needle := range []string{
		"cppserved_fabric_retries_total 3",
		"cppserved_fabric_placements_total 7",
		"cppserved_fabric_probe_failures_total 0",
		`cppserved_fabric_worker_up{worker="http://has\"quote:1"} 1`,
		`cppserved_fabric_worker_up{worker="http://b:2"} 1`,
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("exposition missing %q:\n%s", needle, out)
		}
	}
}
