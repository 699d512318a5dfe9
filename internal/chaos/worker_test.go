package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestWorkerSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec WorkerSpec
		ok   bool
	}{
		{"zero", WorkerSpec{}, true},
		{"kill", WorkerSpec{KillAfter: 3}, true},
		{"stall", WorkerSpec{StallAfter: 1, StallMs: 10}, true},
		{"negative kill", WorkerSpec{KillAfter: -1}, false},
		{"negative stall ms", WorkerSpec{StallAfter: 1, StallMs: -5}, false},
		{"stall without ms", WorkerSpec{StallAfter: 2}, false},
		{"stall too long", WorkerSpec{StallAfter: 1, StallMs: MaxStallMs + 1}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: expected error, got nil", c.name)
		}
	}
	if (WorkerSpec{}).Active() {
		t.Error("zero WorkerSpec reports Active")
	}
	if !(WorkerSpec{KillAfter: 1}).Active() {
		t.Error("kill spec reports inactive")
	}
}

func TestWorkerDisruptorKillSeversConnection(t *testing.T) {
	d := NewWorkerDisruptor(WorkerSpec{KillAfter: 3})
	ts := httptest.NewServer(d.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "alive")
	})))
	defer ts.Close()

	// Keep-alives off: the stdlib client silently retries an idempotent GET
	// whose reused connection dies, which would double-count requests.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	defer client.CloseIdleConnections()

	for i := 1; i <= 2; i++ {
		resp, err := client.Get(ts.URL)
		if err != nil {
			t.Fatalf("request %d before kill point failed: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "alive" {
			t.Fatalf("request %d: body %q, want %q", i, body, "alive")
		}
	}

	// From the kill point on, every request must fail like a dead process:
	// a transport-level error, never an HTTP status.
	for i := 3; i <= 5; i++ {
		resp, err := client.Get(ts.URL)
		if err == nil {
			resp.Body.Close()
			t.Fatalf("request %d after kill point got status %d, want connection error", i, resp.StatusCode)
		}
	}
	if !d.Dead() {
		t.Error("disruptor not marked dead after kill fired")
	}
	if got := d.Requests(); got != 5 {
		t.Errorf("Requests() = %d, want 5", got)
	}
	fired := d.Fired()
	if len(fired) != 3 {
		t.Fatalf("Fired() = %v, want 3 kill records", fired)
	}
	if !strings.HasPrefix(fired[0], "kill@") {
		t.Errorf("fired[0] = %q, want kill@ prefix", fired[0])
	}
}

func TestWorkerDisruptorOutOfBandKill(t *testing.T) {
	d := NewWorkerDisruptor(WorkerSpec{})
	ts := httptest.NewServer(d.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "alive")
	})))
	defer ts.Close()

	if resp, err := http.Get(ts.URL); err != nil {
		t.Fatalf("pre-kill request failed: %v", err)
	} else {
		resp.Body.Close()
	}

	d.Kill()
	resp, err := http.Get(ts.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("post-Kill request got status %d, want connection error", resp.StatusCode)
	}

	d.Revive()
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatalf("post-Revive request failed: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-Revive status = %d, want 200", resp.StatusCode)
	}
}

// TestWorkerDisruptorKillSeversInFlight: a request already inside the
// handler when Kill() fires dies with the worker. Its context is
// canceled, and the client sees a transport error, not the response the
// handler writes on its way out — exactly what a kill -9 does to an open
// long-poll.
func TestWorkerDisruptorKillSeversInFlight(t *testing.T) {
	d := NewWorkerDisruptor(WorkerSpec{})
	entered, release := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(d.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		select {
		case <-r.Context().Done():
		case <-release: // the test is over; let Close finish
		}
		io.WriteString(w, "answered after the kill")
	})))
	defer ts.Close()
	defer close(release)

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	errc := make(chan error, 1)
	go func() {
		resp, err := client.Get(ts.URL)
		if err == nil {
			_, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				err = fmt.Errorf("status %d with a full body", resp.StatusCode)
			}
			err = fmt.Errorf("in-flight request survived the kill: %w", err)
			errc <- err
			return
		}
		errc <- nil
	}()

	<-entered
	d.Kill()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight request still open 5s after Kill")
	}

	// Revive re-arms the disruptor: a new request blocked on its context
	// stays open until the client gives up.
	d.Revive()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	entered = make(chan struct{})
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	if _, err := client.Do(req); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("request after Revive: err %v, want the client's own deadline", err)
	}
}
