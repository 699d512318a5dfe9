package main

import (
	"math/rand"

	"cppcache/internal/serve"
)

// The seed fixes only the order of work and the service request mix. The
// simulator inputs come from the repository's fixed-seed trace builders
// and are the same for every benchmark seed.

// rng returns a generator for one (seed, stream, round) triple, so every
// client and every round draws independently of how far the others got.
func rng(seed int64, stream, round int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*7_919 + int64(round)))
}

// passOrder returns the order in which one pass over a workload's n cells
// visits them.
func passOrder(seed int64, pass, n int) []int {
	return rng(seed, 0, pass).Perm(n)
}

// serviceRequest is one POST /runs of the service-runs mix.
type serviceRequest struct {
	spec int  // index into the run catalogue
	cold bool // sent with ?nocache=1, so it executes instead of hitting the memo
}

// roundCopies is how often each catalogue spec appears in one round of a
// client's requests. Exactly one copy is cold, so the cold share is
// 1/roundCopies on every seed and every round; only the order varies.
const roundCopies = 4

// serviceRound returns one client's requests for one round, in seeded
// order.
func serviceRound(seed int64, client, round, nspecs int) []serviceRequest {
	reqs := make([]serviceRequest, 0, nspecs*roundCopies)
	for s := 0; s < nspecs; s++ {
		for c := 0; c < roundCopies; c++ {
			reqs = append(reqs, serviceRequest{spec: s, cold: c == 0})
		}
	}
	r := rng(seed, 1+client, round)
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// seededSweep returns sweep number i of a run: the sweep-fabric sweep with
// its workload and configuration lists in seeded order. The server
// expands the cross product in list order, so the seed fixes the order the
// children start in; the table, sorted by spec, stays the same.
func seededSweep(seed int64, i int) serve.SweepSpec {
	s := sweepSpec()
	r := rng(seed, 0, i)
	r.Shuffle(len(s.Workloads), func(a, b int) { s.Workloads[a], s.Workloads[b] = s.Workloads[b], s.Workloads[a] })
	r.Shuffle(len(s.Configs), func(a, b int) { s.Configs[a], s.Configs[b] = s.Configs[b], s.Configs[a] })
	return s
}
