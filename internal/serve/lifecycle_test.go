package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/chaos"
	"cppcache/internal/obs"
)

// Lifecycle tests: every transition of the run state machine
// (queued → running → {done, failed, canceled}), cancellation while
// queued, deadline expiry mid-run, panic isolation mid-run, admission
// backpressure, snapshot-ring drop accounting, retention eviction, and
// the fault-isolation guarantee that a chaotic neighbour never perturbs a
// healthy run. All of these hold under -race (CI runs this package with
// it).

// newServerWith builds a test server over a registry with explicit limits.
func newServerWith(t *testing.T, cfg Config) (*httptest.Server, *Registry, *Server) {
	t.Helper()
	reg := NewRegistryWith(cfg, nil)
	srv := NewServer(reg, nil)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, reg, srv
}

// stallSpec launches a run parked by a chaos stall at its first fault
// point: deterministically long-running until canceled or timed out.
func stallSpec(extra string) string {
	return `{"workload":"treeadd","config":"CPP","functional":true,"scale":1,` +
		`"chaos":{"stall_after":1,"stall_ms":60000}` + extra + `}`
}

// waitState polls until the run reaches the wanted state.
func waitState(t *testing.T, ts *httptest.Server, id int, want RunState) RunStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var st RunStatus
	for time.Now().Before(deadline) {
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("run %d reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("run %d stuck in %s, want %s", id, st.State, want)
	return RunStatus{}
}

// del issues DELETE /runs/{id} and returns the status code.
func del(t *testing.T, ts *httptest.Server, id int) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/runs/%d", ts.URL, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestCancelRunningRun: DELETE on a running (chaos-stalled) job moves it
// to canceled promptly — the stall aborts on context cancellation and the
// simulator's cooperative check fires.
func TestCancelRunningRun(t *testing.T) {
	ts, _, _ := newServerWith(t, Config{AllowChaos: true})
	st := launch(t, ts, stallSpec(""))
	waitState(t, ts, st.ID, StateRunning)
	if code := del(t, ts, st.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE running run: status %d, want 202", code)
	}
	final := waitState(t, ts, st.ID, StateCanceled)
	if !strings.Contains(final.Error, "canceled") {
		t.Errorf("canceled run error = %q", final.Error)
	}
	if final.Finished == nil || final.Started == nil {
		t.Error("canceled run missing started/finished timestamps")
	}
	// A second DELETE on a terminal run conflicts.
	if code := del(t, ts, st.ID); code != http.StatusConflict {
		t.Errorf("DELETE terminal run: status %d, want 409", code)
	}
}

// TestCancelWhileQueued: with one worker slot occupied by a stalled run,
// a queued run can be canceled before it ever starts; the stalled run is
// then canceled too and the queue drains.
func TestCancelWhileQueued(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{MaxRunning: 1, AllowChaos: true})
	first := launch(t, ts, stallSpec(""))
	waitState(t, ts, first.ID, StateRunning)
	second := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitState(t, ts, second.ID, StateQueued); got.Started != nil {
		t.Errorf("queued run has a start time: %+v", got)
	}
	if c := reg.Counters(); c.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", c.QueueDepth)
	}
	if code := del(t, ts, second.ID); code != http.StatusAccepted {
		t.Fatalf("DELETE queued run: status %d, want 202", code)
	}
	canceled := waitState(t, ts, second.ID, StateCanceled)
	if canceled.Started != nil {
		t.Error("canceled-while-queued run claims to have started")
	}
	// Unblock the stalled run and make sure the scheduler survives the
	// canceled queue entry.
	del(t, ts, first.ID)
	waitState(t, ts, first.ID, StateCanceled)
	third := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitDone(t, ts, third.ID); got.State != StateDone {
		t.Fatalf("post-cancel launch: state %s (err %q)", got.State, got.Error)
	}
}

// TestDeadlineExpiryMidRun: a chaos-stalled run with a tiny timeout_sec
// fails with a deadline message instead of hogging its worker forever.
func TestDeadlineExpiryMidRun(t *testing.T) {
	ts, _, _ := newServerWith(t, Config{AllowChaos: true})
	st := launch(t, ts, stallSpec(`,"timeout_sec":0.2`))
	final := waitDone(t, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if !strings.Contains(final.Error, "deadline") {
		t.Errorf("deadline failure error = %q", final.Error)
	}
}

// TestPanicMidRunIsIsolated: an injected panic becomes a failed run with
// the stack captured, the panic counter ticks, and the service keeps
// serving — a concurrently launched healthy run still completes.
func TestPanicMidRunIsIsolated(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{AllowChaos: true})
	bad := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1,"chaos":{"panic_after":30}}`)
	good := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)

	badFinal := waitDone(t, ts, bad.ID)
	if badFinal.State != StateFailed {
		t.Fatalf("panicked run state = %s, want failed", badFinal.State)
	}
	if !strings.Contains(badFinal.Error, "panic: chaos: injected panic") ||
		!strings.Contains(badFinal.Error, "goroutine") {
		t.Errorf("panicked run error missing panic message or stack:\n%.300s", badFinal.Error)
	}
	if goodFinal := waitDone(t, ts, good.ID); goodFinal.State != StateDone {
		t.Fatalf("healthy neighbour state = %s (err %q)", goodFinal.State, goodFinal.Error)
	}
	if c := reg.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("panics recovered = %d, want 1", c.PanicsRecovered)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v / %v", resp, err)
	}
	resp.Body.Close()
}

// TestAdmissionBackpressure: beyond MaxRunning running and MaxQueue
// queued runs, POST /runs is 429 with Retry-After; capacity freed by
// cancellation admits work again.
func TestAdmissionBackpressure(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{MaxRunning: 1, MaxQueue: 1, AllowChaos: true})
	first := launch(t, ts, stallSpec(""))
	waitState(t, ts, first.ID, StateRunning)
	second := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)

	resp, err := http.Post(ts.URL+"/runs", "application/json",
		strings.NewReader(`{"workload":"treeadd","functional":true}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity launch: status %d body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if c := reg.Counters(); c.RejectedQueueFull != 1 {
		t.Errorf("rejected counter = %d, want 1", c.RejectedQueueFull)
	}

	del(t, ts, first.ID)
	waitState(t, ts, first.ID, StateCanceled)
	if got := waitDone(t, ts, second.ID); got.State != StateDone {
		t.Fatalf("queued run after capacity freed: %s (err %q)", got.State, got.Error)
	}
	third := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	if got := waitDone(t, ts, third.ID); got.State != StateDone {
		t.Fatalf("post-backpressure launch: %s", got.State)
	}
}

// TestSnapshotRingDropsAndGapEvent: a tiny ring drops old snapshots with
// accounting, and a late stream subscriber is told about the gap
// explicitly before the retained suffix replays.
func TestSnapshotRingDropsAndGapEvent(t *testing.T) {
	ts, _, _ := newServerWith(t, Config{SnapRing: 4})
	st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1,"interval":200}`)
	final := waitDone(t, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s", final.State)
	}
	if final.SnapshotsDropped == 0 || final.Intervals <= 4 {
		t.Fatalf("expected ring drops: intervals=%d dropped=%d", final.Intervals, final.SnapshotsDropped)
	}
	if final.SnapshotsDropped != int64(final.Intervals-4) {
		t.Errorf("drop accounting: %d dropped of %d intervals with ring 4", final.SnapshotsDropped, final.Intervals)
	}

	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, "event: gap") {
		t.Errorf("stream over a dropped prefix carries no gap event:\n%.400s", body)
	}
	wantGap := fmt.Sprintf(`{"from":0,"resumed":%d,"dropped":%d}`, final.Intervals-4, final.Intervals-4)
	if !strings.Contains(body, wantGap) {
		t.Errorf("gap payload missing %s:\n%.400s", wantGap, body)
	}
	if got := strings.Count(body, "event: snapshot"); got != 4 {
		t.Errorf("streamed %d snapshots after gap, want 4 (ring size)", got)
	}
	if !strings.Contains(body, "event: end") {
		t.Error("stream missing end event")
	}
}

// TestRetentionEviction: beyond Retain terminal runs the oldest are
// evicted (404 afterwards) and counted; /metrics still parses.
func TestRetentionEviction(t *testing.T) {
	ts, reg, _ := newServerWith(t, Config{Retain: 1})
	var ids []int
	for i := 0; i < 3; i++ {
		st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
		waitDone(t, ts, st.ID)
		ids = append(ids, st.ID)
	}
	if c := reg.Counters(); c.RunsEvicted != 2 {
		t.Fatalf("evicted = %d, want 2", c.RunsEvicted)
	}
	for _, id := range ids[:2] {
		resp, err := http.Get(fmt.Sprintf("%s/runs/%d", ts.URL, id))
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("evicted run %d: status %d, want 404", id, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := parseExposition(t, readAll(t, resp))
	if metrics["cppserved_runs_evicted_total"] != 2 {
		t.Errorf("evicted metric = %v", metrics["cppserved_runs_evicted_total"])
	}
	if metrics[`cppserved_runs{state="done"}`] != 1 {
		t.Errorf("retained done runs = %v, want 1", metrics[`cppserved_runs{state="done"}`])
	}
}

// TestChaosNeighbourDoesNotPerturbHealthyRun is the isolation guarantee:
// a healthy run sharing the registry with a panicking chaos run produces
// results and a snapshot series byte-identical to the same spec run solo
// through the library API.
func TestChaosNeighbourDoesNotPerturbHealthyRun(t *testing.T) {
	const interval = 5000
	baseObs := cppcache.NewObservation(cppcache.ObserveOptions{IntervalCycles: interval})
	baseRes, err := cppcache.Run("olden.treeadd", cppcache.CPP,
		cppcache.Options{Scale: 1, FunctionalOnly: true, Observe: baseObs})
	if err != nil {
		t.Fatal(err)
	}

	ts, reg, _ := newServerWith(t, Config{MaxRunning: 2, AllowChaos: true})
	bad := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1,"chaos":{"panic_after":10}}`)
	good := launch(t, ts, fmt.Sprintf(`{"workload":"treeadd","functional":true,"scale":1,"interval":%d}`, interval))
	if st := waitDone(t, ts, bad.ID); st.State != StateFailed {
		t.Fatalf("chaos run state = %s", st.State)
	}
	final := waitDone(t, ts, good.ID)
	if final.State != StateDone {
		t.Fatalf("healthy run state = %s (err %q)", final.State, final.Error)
	}
	if final.Result == nil || *final.Result != baseRes {
		t.Errorf("healthy run result diverged from solo baseline\n  solo: %+v\n  got:  %+v", baseRes, final.Result)
	}
	run, _ := reg.Get(good.ID)
	snaps, from, _, _ := run.SnapsFrom(0)
	if from != 0 {
		t.Fatalf("healthy run lost snapshots: base %d", from)
	}
	if !reflect.DeepEqual(snaps, baseObs.Snapshots()) {
		t.Error("healthy run snapshot series diverged from solo baseline")
	}
	var sum obs.Snapshot
	for _, s := range snaps {
		addSnapshot(&sum, s)
	}
	if sum != final.Totals {
		t.Error("snapshot sum != served totals")
	}
}

// TestSlowStreamConsumerDisconnected: an SSE consumer that cannot take a
// write within the deadline is dropped and counted instead of pinning the
// handler.
func TestSlowStreamConsumerDisconnected(t *testing.T) {
	ts, reg, srv := newServerWith(t, Config{})
	// Expire every stream write instantly: the first event push must fail
	// against a real network conn, disconnecting the consumer.
	srv.StreamWriteTimeout = time.Nanosecond
	st := launch(t, ts, `{"workload":"treeadd","functional":true,"scale":1}`)
	waitDone(t, ts, st.ID)
	resp, err := http.Get(fmt.Sprintf("%s/runs/%d/stream", ts.URL, st.ID))
	if err == nil {
		readAll(t, resp) // server closes mid-stream; body may be empty
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counters().SlowStreamsDropped > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("slow-stream counter never incremented (= %d)", reg.Counters().SlowStreamsDropped)
}

// TestStateTransitionsDirect drives the registry API (no HTTP) through
// every remaining transition detail: queued runs carry no start time,
// Cancel on unknown ids errors, and terminal states are sticky.
func TestStateTransitionsDirect(t *testing.T) {
	reg := NewRegistryWith(Config{MaxRunning: 1, AllowChaos: true}, nil)
	if err := reg.Cancel(42, ""); err == nil {
		t.Error("Cancel(unknown) did not error")
	}
	run, err := reg.Launch(RunSpec{Workload: "treeadd", Functional: true, Scale: 1,
		Chaos: &chaos.Spec{StallAfter: 1, StallMs: 60000}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := reg.Launch(RunSpec{Workload: "treeadd", Functional: true, Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State() != StateQueued {
		t.Fatalf("second run state = %s, want queued", queued.State())
	}
	if err := reg.Cancel(run.ID, "test cancel"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && !queued.State().Terminal() {
		time.Sleep(5 * time.Millisecond)
	}
	if got := queued.State(); got != StateDone {
		t.Fatalf("queued run after slot freed = %s", got)
	}
	if got := run.State(); got != StateCanceled {
		t.Fatalf("canceled run state = %s", got)
	}
	if run.CancelCause() != "test cancel" {
		t.Errorf("cancel cause = %q", run.CancelCause())
	}
	if !reg.Drain(10 * time.Second) {
		t.Error("drain with everything terminal timed out")
	}
}
