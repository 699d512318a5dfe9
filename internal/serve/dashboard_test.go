package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cppcache/internal/runstate"
)

// TestDashboardPage: the observatory page is one self-contained HTML
// document — correct content type, no external asset references, and the
// hooks the live layer depends on (SSE endpoint, table bodies, trace
// links) all present.
func TestDashboardPage(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	for _, needle := range []string{
		"<!DOCTYPE html>",
		"cppcache observatory",
		"/dashboard/stream",
		`id="fleet"`,
		`id="runs"`,
		"EventSource",
		"prefers-color-scheme: dark",
	} {
		if !strings.Contains(body, needle) {
			t.Errorf("dashboard missing %q", needle)
		}
	}
	for _, banned := range []string{"<script src=", "<link ", "https://", "@import"} {
		if strings.Contains(body, banned) {
			t.Errorf("dashboard references an external asset: found %q", banned)
		}
	}
}

// TestDashboardStream: the SSE sample feed emits well-formed periodic
// samples whose state counts cover every lifecycle state and whose
// cumulative sums reflect completed work.
func TestDashboardStream(t *testing.T) {
	reg := NewRegistry(nil)
	srv := NewServer(reg, nil)
	srv.DashboardSampleInterval = 5 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	st := launch(t, ts, `{"workload":"mst","config":"CPP","functional":true,"scale":1}`)
	final := waitDone(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/dashboard/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type sample struct {
		T            time.Time      `json:"t"`
		States       map[string]int `json:"states"`
		Running      int            `json:"running"`
		QueueDepth   int            `json:"queue_depth"`
		Instructions int64          `json:"instructions"`
		FleetRuns    int            `json:"fleet_runs"`
	}
	sc := bufio.NewScanner(resp.Body)
	var samples []sample
	for sc.Scan() && len(samples) < 3 {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var sm sample
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &sm); err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		samples = append(samples, sm)
	}
	if len(samples) < 3 {
		t.Fatalf("got %d samples, want 3 (scan err %v)", len(samples), sc.Err())
	}
	for i, sm := range samples {
		if sm.T.IsZero() {
			t.Errorf("sample %d has zero timestamp", i)
		}
		for _, st := range runstate.All() {
			if _, ok := sm.States[string(st)]; !ok {
				t.Errorf("sample %d missing state %q", i, st)
			}
		}
		if sm.States["done"] != 1 || sm.FleetRuns != 1 {
			t.Errorf("sample %d: done=%d fleet_runs=%d, want 1/1", i, sm.States["done"], sm.FleetRuns)
		}
		if sm.Instructions != final.Totals.Instructions {
			t.Errorf("sample %d instructions = %d, want %d", i, sm.Instructions, final.Totals.Instructions)
		}
	}
}

// dashStream opens /dashboard/stream, optionally resuming with a
// Last-Event-ID header.
func dashStream(t *testing.T, ts *httptest.Server, lastEventID string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/dashboard/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// dashEvent is one parsed SSE frame from the dashboard stream.
type dashEvent struct {
	id    int // -1 when the frame carried no id line (gap events)
	event string
	data  string
}

// readDashEvents consumes SSE frames until stop returns true (the frame
// that satisfied stop is included) or the scanner ends.
func readDashEvents(t *testing.T, resp *http.Response, stop func(dashEvent) bool) []dashEvent {
	t.Helper()
	var events []dashEvent
	cur := dashEvent{id: -1}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			fmt.Sscanf(line, "id: %d", &cur.id)
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event == "" && cur.data == "" {
				continue // the retry-advice frame
			}
			events = append(events, cur)
			done := stop(cur)
			cur = dashEvent{id: -1}
			if done {
				return events
			}
		}
	}
	t.Fatalf("stream ended before the stop condition (%d events, err %v)", len(events), sc.Err())
	return nil
}

// TestDashboardStreamResume: a client reconnecting with Last-Event-ID
// resumes at exactly the next ordinal — no duplicates, no gap event —
// because the sample ring outlives the subscription.
func TestDashboardStreamResume(t *testing.T) {
	reg := NewRegistry(nil)
	srv := NewServer(reg, nil)
	srv.DashboardSampleInterval = time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := dashStream(t, ts, "")
	first := readDashEvents(t, resp, func(e dashEvent) bool { return e.id >= 2 })
	resp.Body.Close()
	last := first[len(first)-1].id

	resp = dashStream(t, ts, fmt.Sprint(last))
	defer resp.Body.Close()
	resumed := readDashEvents(t, resp, func(e dashEvent) bool { return e.id >= last+3 })
	for i, e := range resumed {
		if e.event == "gap" {
			t.Fatalf("resume within the ring produced a gap event: %+v", e)
		}
		if e.id <= last {
			t.Fatalf("resumed stream re-sent sample %d (already seen through %d)", e.id, last)
		}
		if want := last + 1 + i; e.id != want {
			t.Fatalf("resumed event %d has id %d, want %d (ordinals must be dense)", i, e.id, want)
		}
	}
}

// TestDashboardStreamGapOnDroppedPrefix: when the bounded ring has
// dropped the ordinals a reconnecting client asks for, the stream says so
// with an explicit gap event — dropped count and resume point — before
// the surviving samples, mirroring the per-run snapshot stream.
func TestDashboardStreamGapOnDroppedPrefix(t *testing.T) {
	reg := NewRegistry(nil)
	srv := NewServer(reg, nil)
	srv.DashboardSampleInterval = time.Millisecond
	srv.DashboardRing = 2
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Age the ring well past its bound.
	resp := dashStream(t, ts, "")
	readDashEvents(t, resp, func(e dashEvent) bool { return e.id >= 6 })
	resp.Body.Close()

	resp = dashStream(t, ts, "0")
	defer resp.Body.Close()
	var gap struct {
		From    int `json:"from"`
		Resumed int `json:"resumed"`
		Dropped int `json:"dropped"`
	}
	events := readDashEvents(t, resp, func(e dashEvent) bool { return e.event == "sample" })
	if events[0].event != "gap" {
		t.Fatalf("first frame after a dropped-prefix resume is %q, want gap (%+v)", events[0].event, events)
	}
	if err := json.Unmarshal([]byte(events[0].data), &gap); err != nil {
		t.Fatalf("bad gap payload %q: %v", events[0].data, err)
	}
	if gap.From != 1 || gap.Dropped < 1 || gap.Resumed != gap.From+gap.Dropped {
		t.Fatalf("gap accounting %+v does not balance", gap)
	}
	samp := events[len(events)-1]
	if samp.id != gap.Resumed {
		t.Fatalf("first sample after the gap has id %d, want the resume point %d", samp.id, gap.Resumed)
	}
}

// TestDashboardStreamStaleIDClampsToHead: a Last-Event-ID beyond anything
// published (e.g. from a previous server life) must not wedge the stream
// — the handler clamps back to the ring head and keeps serving fresh
// samples with truthful (smaller) ordinals.
func TestDashboardStreamStaleIDClampsToHead(t *testing.T) {
	reg := NewRegistry(nil)
	srv := NewServer(reg, nil)
	srv.DashboardSampleInterval = time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := dashStream(t, ts, "100000")
	defer resp.Body.Close()
	events := readDashEvents(t, resp, func(e dashEvent) bool { return e.event == "sample" })
	samp := events[len(events)-1]
	if samp.id >= 100000 {
		t.Fatalf("sample id %d did not clamp below the stale Last-Event-ID", samp.id)
	}
	var sm map[string]any
	if err := json.Unmarshal([]byte(samp.data), &sm); err != nil {
		t.Fatalf("bad sample %q: %v", samp.data, err)
	}
}
