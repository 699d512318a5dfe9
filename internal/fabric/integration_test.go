// Integration tests driving the coordinator against real in-process
// observatory workers (the full serve HTTP surface behind a chaos
// disruptor). External test package: serve imports fabric, so these live
// outside package fabric to break the cycle.
package fabric_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"cppcache/internal/backoff"
	"cppcache/internal/chaos"
	"cppcache/internal/fabric"
	"cppcache/internal/ledger"
	"cppcache/internal/serve"
)

// tier is a coordinator over n in-process workers, each wrapped in a
// chaos disruptor the test can kill at will.
type tier struct {
	coord *fabric.Coordinator
	urls  []string
	dis   map[string]*chaos.WorkerDisruptor
	regs  map[string]*serve.Registry
}

// newWorkerTier boots n workers and a probe-less coordinator with fast,
// jitter-free retry timing. Keep-alives are disabled so a killed worker's
// severed connections are never transparently retried by the HTTP client
// — the coordinator must observe every loss itself.
func newWorkerTier(t *testing.T, n int) *tier {
	t.Helper()
	tr := &tier{
		dis:  map[string]*chaos.WorkerDisruptor{},
		regs: map[string]*serve.Registry{},
	}
	for i := 0; i < n; i++ {
		reg := serve.NewRegistryWith(serve.Config{AllowChaos: true}, nil)
		dis := chaos.NewWorkerDisruptor(chaos.WorkerSpec{})
		srv := httptest.NewServer(dis.Wrap(serve.NewServer(reg, nil)))
		t.Cleanup(srv.Close)
		tr.urls = append(tr.urls, srv.URL)
		tr.dis[srv.URL] = dis
		tr.regs[srv.URL] = reg
	}
	coord, err := fabric.New(fabric.Config{
		Workers:        tr.urls,
		ProbeInterval:  -1,
		CallTimeout:    2 * time.Second,
		AttemptTimeout: 30 * time.Second,
		MaxAttempts:    4,
		Backoff:        backoff.Policy{Base: time.Millisecond, Cap: 4 * time.Millisecond, Factor: 2, Jitter: 0},
		Client:         &http.Client{Transport: &http.Transport{DisableKeepAlives: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tr.coord = coord
	return tr
}

func digestOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	if len(raw) == 0 {
		t.Fatal("outcome carries no result JSON")
	}
	d, err := ledger.ResultDigest(raw)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestExecuteHappyPath(t *testing.T) {
	tr := newWorkerTier(t, 2)
	out, err := tr.coord.Execute(context.Background(), "happy",
		[]byte(`{"workload":"mst","config":"CPP","functional":true,"scale":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if out.State != "done" || out.Attempts != 1 || out.RunID == 0 || out.TraceID == "" {
		t.Fatalf("outcome %+v, want done on the first attempt with run/trace ids", out)
	}
	if tr.coord.Retries() != 0 {
		t.Fatalf("retries %d, want 0", tr.coord.Retries())
	}
	digestOf(t, out.Result) // must be digestable without re-parsing loss
}

// TestExecutePermanentRejection: a 400 spec rejection is the same on
// every worker — the coordinator must fail immediately, not burn its
// retry budget re-asking.
func TestExecutePermanentRejection(t *testing.T) {
	tr := newWorkerTier(t, 2)
	out, err := tr.coord.Execute(context.Background(), "perm",
		[]byte(`{"workload":"no-such-workload","config":"CPP"}`))
	if err == nil {
		t.Fatal("invalid spec did not error")
	}
	if out.Attempts != 1 {
		t.Fatalf("attempts %d, want 1 (permanent rejections must not retry)", out.Attempts)
	}
	if tr.coord.Retries() != 0 {
		t.Fatalf("retries %d, want 0", tr.coord.Retries())
	}
}

// TestExecuteRetriesOnWorkerLoss: kill the worker a spec hash prefers;
// re-executing the same hash must re-place onto the survivor and produce
// the byte-identical result digest — the retried run is indistinguishable
// from the original.
func TestExecuteRetriesOnWorkerLoss(t *testing.T) {
	tr := newWorkerTier(t, 2)
	spec := []byte(`{"workload":"mst","config":"CPP","functional":true,"scale":2}`)

	first, err := tr.coord.Execute(context.Background(), "loss-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	// With every worker healthy, attempt 0 picks the true ring preference —
	// so first.Worker IS the worker "loss-key" will try first next time.
	tr.dis[first.Worker].Kill()

	second, err := tr.coord.Execute(context.Background(), "loss-key", spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.State != "done" {
		t.Fatalf("state %s (%s), want done", second.State, second.Error)
	}
	if second.Worker == first.Worker {
		t.Fatalf("run was not re-placed off the killed worker %s", first.Worker)
	}
	if second.Attempts < 2 || tr.coord.Retries() < 1 {
		t.Fatalf("attempts %d retries %d, want a visible re-placement", second.Attempts, tr.coord.Retries())
	}
	if da, db := digestOf(t, first.Result), digestOf(t, second.Result); da != db {
		t.Fatalf("retried run digest %s != original %s (determinism broken)", db, da)
	}
}

// TestExecuteSurvivesMidRunKill: the worker dies while the coordinator
// holds a status long-poll open on an in-flight run (launch succeeded,
// then the connections sever). Two consecutive status-call failures must
// re-place the run from scratch on the survivor.
func TestExecuteSurvivesMidRunKill(t *testing.T) {
	// The run stalls 400ms mid-execution, guaranteeing the kill lands
	// between launch and completion.
	spec := []byte(`{"workload":"mst","config":"CPP","functional":true,"scale":1,"chaos":{"stall_after":1,"stall_ms":400}}`)
	tr := newWorkerTier(t, 2)

	done := make(chan struct{})
	var out fabric.Outcome
	var execErr error
	go func() {
		defer close(done)
		out, execErr = tr.coord.Execute(context.Background(), "midrun", spec)
	}()

	// Kill whichever worker the run landed on once it has served the
	// launch and received the status long-poll.
	deadline := time.Now().Add(10 * time.Second)
	for {
		killed := false
		for _, url := range tr.urls {
			if tr.dis[url].Requests() >= 2 {
				tr.dis[url].Kill()
				killed = true
				break
			}
		}
		if killed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no worker received the run within 10s")
		}
		time.Sleep(time.Millisecond)
	}

	<-done
	if execErr != nil {
		t.Fatal(execErr)
	}
	if out.State != "done" || out.Attempts < 2 {
		t.Fatalf("outcome %+v, want done after a mid-run re-placement", out)
	}
	if tr.coord.Retries() < 1 {
		t.Fatalf("retries %d, want >= 1", tr.coord.Retries())
	}
}

// TestExecuteLongPollRequestCount: a run shorter than half the call
// timeout costs its worker exactly one launch and one status call — the
// coordinator waits on the worker instead of polling it on a timer.
func TestExecuteLongPollRequestCount(t *testing.T) {
	// The stall keeps the run non-terminal at launch and well inside the
	// 1s status wait (CallTimeout/2).
	spec := []byte(`{"workload":"mst","config":"CPP","functional":true,"scale":1,"chaos":{"stall_after":1,"stall_ms":200}}`)
	tr := newWorkerTier(t, 2)
	out, err := tr.coord.Execute(context.Background(), "one-wait", spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.State != "done" || out.Attempts != 1 {
		t.Fatalf("outcome state %s attempts %d, want done on the first attempt", out.State, out.Attempts)
	}
	for _, url := range tr.urls {
		want := int64(0)
		if url == out.Worker {
			want = 2 // POST /runs + one GET /runs/{id}?wait=
		}
		if got := tr.dis[url].Requests(); got != want {
			t.Errorf("worker %s served %d requests, want %d", url, got, want)
		}
	}
}

// TestExecuteCancellation: canceling the caller's context mid-run returns
// promptly with a canceled outcome instead of burning the retry budget.
func TestExecuteCancellation(t *testing.T) {
	spec := []byte(`{"workload":"mst","config":"CPP","functional":true,"scale":1,"chaos":{"stall_after":1,"stall_ms":5000}}`)
	tr := newWorkerTier(t, 1)
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan struct{})
	var out fabric.Outcome
	var execErr error
	go func() {
		defer close(done)
		out, execErr = tr.coord.Execute(ctx, "cancel-key", spec)
	}()

	deadline := time.Now().Add(10 * time.Second)
	for tr.dis[tr.urls[0]].Requests() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("run never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Execute did not return within 5s of cancellation")
	}
	if !errors.Is(execErr, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", execErr)
	}
	if out.State != "canceled" {
		t.Fatalf("state %q, want canceled", out.State)
	}
}

// TestSweepKillVsControlTableIdentical is the fabric acceptance test:
// a coordinator-backed sweep with a worker killed mid-flight must reach a
// clean terminal state whose deterministic aggregate table is
// byte-identical to a control sweep that saw no failure. Retried runs are
// provably inert — same digests, same counters — and the kill is visible
// only in the retry counter.
func TestSweepKillVsControlTableIdentical(t *testing.T) {
	sweepSpec := serve.SweepSpec{
		Workloads:  []string{"mst", "treeadd"},
		Configs:    []string{"CPP", "BCC"},
		Scales:     []int{1, 2},
		Functional: true,
	}
	probeSpec := []byte(`{"workload":"mst","config":"CPP","functional":true,"scale":3}`)

	run := func(kill bool) (table string, retries int64, probeDigest string) {
		tr := newWorkerTier(t, 2)
		reg := serve.NewRegistryWith(serve.Config{Fabric: tr.coord}, nil)

		// Learn which worker the ring prefers for the probe key while the
		// tier is fully healthy; the kill targets that worker, so the
		// guaranteed-retry fallback below has a victim it will contact.
		probe, err := tr.coord.Execute(context.Background(), "victim-probe", probeSpec)
		if err != nil {
			t.Fatal(err)
		}
		victim := probe.Worker

		sw, err := reg.LaunchSweep(sweepSpec)
		if err != nil {
			t.Fatal(err)
		}
		if kill {
			// Let the sweep get children in flight, then murder the victim.
			deadline := time.Now().Add(10 * time.Second)
			for tr.coord.Placements() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("sweep placed no children within 10s")
				}
				time.Sleep(time.Millisecond)
			}
			tr.dis[victim].Kill()
		}

		deadline := time.Now().Add(60 * time.Second)
		for {
			st := sw.Status()
			if st.State != serve.SweepRunning {
				if st.State != serve.SweepDone || st.Degraded {
					t.Fatalf("sweep state %s degraded=%v (children %+v), want clean done",
						st.State, st.Degraded, st.Children)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("sweep still running after 60s: %+v", st.Counts)
			}
			time.Sleep(5 * time.Millisecond)
		}

		if kill && tr.coord.Retries() == 0 {
			// Every child happened to finish before the kill could bite. The
			// victim is still marked up (probes are off, nothing contacted it
			// post-kill), so re-executing the probe key MUST try it first,
			// observe the severed connection and re-place — a deterministic
			// retry regardless of how the sweep's timing played out.
			out, err := tr.coord.Execute(context.Background(), "victim-probe", probeSpec)
			if err != nil {
				t.Fatal(err)
			}
			if out.Worker == victim {
				t.Fatalf("probe re-run landed on the killed worker %s", victim)
			}
			if da, db := digestOf(t, probe.Result), digestOf(t, out.Result); da != db {
				t.Fatalf("retried probe digest %s != original %s", db, da)
			}
		}
		return sw.Table(), tr.coord.Retries(), digestOf(t, probe.Result)
	}

	controlTable, _, controlProbe := run(false)
	killTable, retries, killProbe := run(true)

	if killTable != controlTable {
		t.Fatalf("kill and control tables differ:\n--- control ---\n%s--- kill ---\n%s",
			controlTable, killTable)
	}
	if retries < 1 {
		t.Fatalf("retries %d, want >= 1 after killing a worker", retries)
	}
	if controlProbe != killProbe {
		t.Fatalf("probe digests differ across tiers: %s vs %s", controlProbe, killProbe)
	}
}
