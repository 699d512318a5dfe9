package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cppcache/internal/backoff"
	"cppcache/internal/runstate"
)

// DefaultDashboardSampleInterval is the cadence of /dashboard/stream
// samples when the Server does not override it.
const DefaultDashboardSampleInterval = time.Second

// DefaultDashboardRing bounds the retained dashboard samples (~6 min at
// the default cadence): enough for an SSE reconnect to resume seamlessly,
// bounded so an idle server never grows.
const DefaultDashboardRing = 360

// dashSample is one periodic fleet-level observation pushed over
// /dashboard/stream. Instructions and traffic are cumulative sums over the
// retained runs; the dashboard differentiates consecutive samples to plot
// throughput, so a single slow consumer never needs server-side rate
// state.
type dashSample struct {
	T            time.Time      `json:"t"`
	States       map[string]int `json:"states"`
	Running      int            `json:"running"`
	QueueDepth   int            `json:"queue_depth"`
	Instructions int64          `json:"instructions"`
	TrafficWords float64        `json:"traffic_words"`
	FleetRuns    int            `json:"fleet_runs"`
	LedgerErrors int64          `json:"ledger_errors"`
	MemoHits     int64          `json:"memo_hits"`
	MemoMisses   int64          `json:"memo_misses"`
	SweepsActive int            `json:"sweeps_active"`
	SweepsTotal  int            `json:"sweeps_total"`
}

// sampleFleet takes one dashboard sample from the registry.
func (s *Server) sampleFleet() dashSample {
	c := s.reg.Counters()
	sm := dashSample{
		T:            time.Now(),
		States:       map[string]int{},
		Running:      c.Running,
		QueueDepth:   c.QueueDepth,
		FleetRuns:    s.reg.fleetLen(),
		LedgerErrors: c.LedgerErrors,
		MemoHits:     c.MemoHits,
		MemoMisses:   c.MemoMisses,
	}
	for _, st := range runstate.All() {
		sm.States[string(st)] = 0
	}
	for _, run := range s.reg.Runs() {
		st := run.Status()
		sm.States[string(st.State)]++
		sm.Instructions += st.Totals.Instructions
		sm.TrafficWords += st.Totals.TrafficWords()
	}
	for _, sw := range s.reg.Sweeps() {
		sm.SweepsTotal++
		if !sw.terminal() {
			sm.SweepsActive++
		}
	}
	return sm
}

// dashSampler is the shared sample feed behind /dashboard/stream. Samples
// carry global ordinals (SSE event ids) and live in a bounded ring, so a
// client reconnecting with Last-Event-ID resumes exactly where it left
// off — or gets an explicit gap event when the ring has dropped its
// prefix, mirroring the per-run stream's gap accounting. The sampling
// goroutine runs only while at least one subscriber is connected; the
// ring and its base ordinal survive idle periods so ordinals never move
// backwards within a server's lifetime.
type dashSampler struct {
	s *Server

	mu      sync.Mutex
	ring    []dashSample
	base    int // ordinal of ring[0]
	subs    int
	changed chan struct{}
	stop    chan struct{} // non-nil while the sampling goroutine runs
}

func newDashSampler(s *Server) *dashSampler {
	return &dashSampler{s: s, changed: make(chan struct{})}
}

// subscribe registers a consumer, starting the sampling goroutine on the
// first one.
func (d *dashSampler) subscribe() {
	d.mu.Lock()
	d.subs++
	if d.subs == 1 {
		d.stop = make(chan struct{})
		go d.run(d.stop)
	}
	d.mu.Unlock()
}

// unsubscribe deregisters a consumer, stopping the sampling goroutine
// with the last one.
func (d *dashSampler) unsubscribe() {
	d.mu.Lock()
	d.subs--
	if d.subs == 0 && d.stop != nil {
		close(d.stop)
		d.stop = nil
	}
	d.mu.Unlock()
}

// run samples immediately (so a fresh subscriber sees data without
// waiting a full interval), then on every tick until stopped.
func (d *dashSampler) run(stop chan struct{}) {
	tick := time.NewTicker(d.s.dashboardSampleInterval())
	defer tick.Stop()
	d.append(d.s.sampleFleet())
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			d.append(d.s.sampleFleet())
		}
	}
}

func (d *dashSampler) append(sm dashSample) {
	max := d.s.dashboardRing()
	d.mu.Lock()
	d.ring = append(d.ring, sm)
	for len(d.ring) > max {
		d.ring = d.ring[1:]
		d.base++
	}
	close(d.changed)
	d.changed = make(chan struct{})
	d.mu.Unlock()
}

// from returns a copy of the retained samples at ordinal next and later,
// the ordinal the copy actually starts at (greater than next when the
// ring dropped the requested prefix; clamped back to the head when next
// is beyond anything published, e.g. a Last-Event-ID from a previous
// server life), and a channel closed on the next append.
func (d *dashSampler) from(next int) (samples []dashSample, from int, changed <-chan struct{}) {
	d.mu.Lock()
	defer d.mu.Unlock()
	from = next
	if from < d.base {
		from = d.base
	}
	if head := d.base + len(d.ring); from > head {
		from = head
	}
	if idx := from - d.base; idx < len(d.ring) {
		samples = append([]dashSample(nil), d.ring[idx:]...)
	}
	return samples, from, d.changed
}

// fleetLen returns how many terminal records the fleet rollup holds.
func (g *Registry) fleetLen() int { return g.fleet.Len() }

// dashboardSampleInterval returns the /dashboard/stream cadence in effect.
func (s *Server) dashboardSampleInterval() time.Duration {
	if s.DashboardSampleInterval > 0 {
		return s.DashboardSampleInterval
	}
	return DefaultDashboardSampleInterval
}

// dashboardRing returns the sample-ring bound in effect.
func (s *Server) dashboardRing() int {
	if s.DashboardRing > 0 {
		return s.DashboardRing
	}
	return DefaultDashboardRing
}

// handleDashboardStream is GET /dashboard/stream: server-sent events
// carrying one fleet-level sample per interval (run counts by state, queue
// depth, cumulative instruction and traffic sums, ledger size, memo hits,
// active sweeps). Event ids are global sample ordinals from the shared
// sampler ring, so a client reconnecting with Last-Event-ID resumes
// without re-receiving samples it already has — and receives an explicit
// "gap" event when the bounded ring has dropped its requested prefix,
// exactly like the per-run snapshot stream. Every write runs under a
// deadline and a consumer that cannot keep up is disconnected and counted
// rather than parking the handler goroutine.
func (s *Server) handleDashboardStream(w http.ResponseWriter, r *http.Request) {
	next := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.Atoi(v); err == nil && id >= 0 {
			next = id + 1
		}
	}
	fl, canFlush := w.(http.Flusher)
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	s.dash.subscribe()
	defer s.dash.unsubscribe()

	push := func(emit func() error) bool {
		rc.SetWriteDeadline(time.Now().Add(s.streamWriteTimeout()))
		if err := emit(); err != nil {
			s.reg.CountSlowStream()
			s.log.Warn("slow dashboard consumer disconnected", "err", err)
			return false
		}
		if canFlush {
			fl.Flush()
		}
		return true
	}

	if !push(func() error {
		_, err := fmt.Fprintf(w, "retry: %d\n\n", backoff.DefaultPolicy.Delay(1).Milliseconds())
		return err
	}) {
		return
	}

	for {
		samples, from, changed := s.dash.from(next)
		if from > next {
			if !push(func() error {
				_, err := fmt.Fprintf(w, "event: gap\ndata: {\"from\":%d,\"resumed\":%d,\"dropped\":%d}\n\n",
					next, from, from-next)
				return err
			}) {
				return
			}
		}
		// Adopt the sampler's ordinal in both directions: forward past a
		// ring-dropped prefix (the gap above), or backward when the client's
		// Last-Event-ID is beyond anything published (stale id from a
		// previous server life).
		next = from
		for _, sm := range samples {
			data, err := json.Marshal(sm)
			if err != nil {
				return
			}
			id := next
			if !push(func() error {
				_, err := fmt.Fprintf(w, "id: %d\nevent: sample\ndata: %s\n\n", id, data)
				return err
			}) {
				return
			}
			next++
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		}
	}
}

// handleDashboard is GET /dashboard: the live observatory page. One
// self-contained HTML document — inline CSS and JS, no external assets or
// libraries — so it renders from an air-gapped lab box. The page follows
// the stat-tiles + sparklines + tables form: headline numbers up top, two
// single-series sparklines (instruction throughput, queue depth) fed by
// /dashboard/stream, the fleet rollup and recent runs below, every row
// linking to /runs/{id}/trace for drill-down.
func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, dashboardHTML)
}

// dashboardHTML is the observatory page. Chart colors are a validated
// two-slot categorical palette (blue for throughput, orange for queue
// depth, re-stepped for dark mode); text stays in ink tokens, never series
// colors. No backticks anywhere: the page lives in a Go raw string.
const dashboardHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>cppcache observatory</title>
<style>
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --ring: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --bad: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --ring: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --bad: #d03b3b;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 16px 20px; background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; }
h2 { font-size: 13px; font-weight: 600; color: var(--ink-2); margin: 0 0 8px; text-transform: uppercase; letter-spacing: 0.04em; }
a { color: var(--s1); text-decoration: none; }
a:hover { text-decoration: underline; }
.sub { color: var(--muted); margin: 0 0 16px; font-size: 12px; }
.sub a { color: var(--muted); text-decoration: underline; }
.tiles { display: grid; grid-template-columns: repeat(auto-fit, minmax(120px, 1fr)); gap: 10px; margin-bottom: 16px; }
.tile { background: var(--surface); border: 1px solid var(--ring); border-radius: 8px; padding: 10px 12px; }
.tile .v { font-size: 24px; font-weight: 650; }
.tile .k { font-size: 11px; color: var(--muted); text-transform: uppercase; letter-spacing: 0.04em; }
.tile .v.err { color: var(--bad); }
.charts { display: grid; grid-template-columns: repeat(auto-fit, minmax(300px, 1fr)); gap: 10px; margin-bottom: 16px; }
.chart { background: var(--surface); border: 1px solid var(--ring); border-radius: 8px; padding: 10px 12px; position: relative; }
.chart .now { float: right; font-size: 12px; color: var(--ink-2); font-variant-numeric: tabular-nums; }
.chart svg { display: block; width: 100%; height: 72px; }
.tip {
  position: absolute; pointer-events: none; display: none; z-index: 2;
  background: var(--surface); border: 1px solid var(--ring); border-radius: 6px;
  padding: 3px 8px; font-size: 12px; color: var(--ink); white-space: nowrap;
  box-shadow: 0 1px 4px rgba(0,0,0,0.15);
}
.tip .t { color: var(--muted); }
section { background: var(--surface); border: 1px solid var(--ring); border-radius: 8px; padding: 12px; margin-bottom: 16px; }
table { border-collapse: collapse; width: 100%; font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--muted); font-size: 11px; text-transform: uppercase; letter-spacing: 0.04em; font-weight: 600; padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
th.n, td.n { text-align: right; }
td { padding: 4px 10px 4px 0; border-bottom: 1px solid var(--grid); }
tr:last-child td { border-bottom: 0; }
.empty { color: var(--muted); padding: 6px 0; }
.state { display: inline-block; padding: 0 6px; border-radius: 9px; border: 1px solid var(--ring); font-size: 12px; color: var(--ink-2); }
</style>
</head>
<body>
<h1>cppcache observatory</h1>
<p class="sub">partial cache line prefetching fleet &middot;
<a href="/fleet">/fleet</a> &middot; <a href="/metrics">/metrics</a> &middot; <a href="/runs">/runs</a></p>

<div class="tiles">
  <div class="tile"><div class="v" id="t-running">&ndash;</div><div class="k">running</div></div>
  <div class="tile"><div class="v" id="t-queued">&ndash;</div><div class="k">queued</div></div>
  <div class="tile"><div class="v" id="t-done">&ndash;</div><div class="k">done</div></div>
  <div class="tile"><div class="v" id="t-failed">&ndash;</div><div class="k">failed</div></div>
  <div class="tile"><div class="v" id="t-fleet">&ndash;</div><div class="k">ledger runs</div></div>
  <div class="tile"><div class="v" id="t-memo">&ndash;</div><div class="k">memo hits</div></div>
  <div class="tile"><div class="v" id="t-sweeps">&ndash;</div><div class="k">active sweeps</div></div>
  <div class="tile"><div class="v" id="t-lederr">&ndash;</div><div class="k">ledger errors</div></div>
</div>

<div class="charts">
  <div class="chart" id="c-thru">
    <span class="now" id="thru-now"></span>
    <h2>Throughput (traffic words/s)</h2>
    <svg viewBox="0 0 600 72" preserveAspectRatio="none" aria-label="memory traffic throughput sparkline"></svg>
    <div class="tip"></div>
  </div>
  <div class="chart" id="c-queue">
    <span class="now" id="queue-now"></span>
    <h2>Queue depth</h2>
    <svg viewBox="0 0 600 72" preserveAspectRatio="none" aria-label="queue depth sparkline"></svg>
    <div class="tip"></div>
  </div>
  <div class="chart" id="c-memo">
    <span class="now" id="memo-now"></span>
    <h2>Memo hits (cumulative)</h2>
    <svg viewBox="0 0 600 72" preserveAspectRatio="none" aria-label="memo hit sparkline"></svg>
    <div class="tip"></div>
  </div>
</div>

<section>
  <h2>Sweeps</h2>
  <table id="sweeps">
    <thead><tr>
      <th class="n">id</th><th>state</th><th class="n">done</th><th class="n">total</th>
      <th class="n">memoized</th><th>degraded</th>
    </tr></thead>
    <tbody><tr><td colspan="6" class="empty">no sweeps yet</td></tr></tbody>
  </table>
</section>

<section>
  <h2>Fleet rollup</h2>
  <table id="fleet">
    <thead><tr>
      <th>workload</th><th>config</th><th>compressor</th><th>state</th>
      <th class="n">runs</th><th class="n">p50 exec</th><th class="n">p95 exec</th>
      <th class="n">traffic/kinst</th><th>exemplar</th>
    </tr></thead>
    <tbody><tr><td colspan="9" class="empty">no terminal runs yet</td></tr></tbody>
  </table>
</section>

<section>
  <h2>Recent runs</h2>
  <table id="runs">
    <thead><tr>
      <th class="n">id</th><th>workload</th><th>config</th><th>compressor</th>
      <th>state</th><th class="n">intervals</th><th class="n">traffic words</th><th>trace</th>
    </tr></thead>
    <tbody><tr><td colspan="8" class="empty">no runs yet</td></tr></tbody>
  </table>
</section>

<script>
(function () {
  "use strict";
  var MAX = 120; // retained samples per sparkline (~2 min at 1 Hz)
  var samples = [];

  function esc(s) {
    return String(s).replace(/[&<>"]/g, function (c) {
      return { "&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;" }[c];
    });
  }
  function fmt(n) {
    if (n == null || isNaN(n)) return "–";
    if (Math.abs(n) >= 1e9) return (n / 1e9).toFixed(1) + "G";
    if (Math.abs(n) >= 1e6) return (n / 1e6).toFixed(1) + "M";
    if (Math.abs(n) >= 1e4) return (n / 1e3).toFixed(1) + "k";
    return Math.round(n).toLocaleString();
  }
  function text(id, v) { document.getElementById(id).textContent = v; }

  // spark renders one single-series line into a chart card: a 2px line on
  // a recessive baseline, with a crosshair tooltip on hover. points is an
  // array of {t: Date, v: number}.
  function spark(cardId, points, color, unit) {
    var card = document.getElementById(cardId);
    var svg = card.querySelector("svg");
    var W = 600, H = 72, PAD = 4;
    var max = 0;
    for (var i = 0; i < points.length; i++) max = Math.max(max, points[i].v);
    var span = Math.max(points.length - 1, 1);
    function px(i) { return PAD + (W - 2 * PAD) * i / span; }
    function py(v) {
      if (max <= 0) return H - PAD;
      return H - PAD - (H - 2 * PAD) * (v / max);
    }
    var d = "";
    for (var j = 0; j < points.length; j++) {
      d += (j ? "L" : "M") + px(j).toFixed(1) + " " + py(points[j].v).toFixed(1);
    }
    var baseline = '<line x1="0" y1="' + (H - PAD) + '" x2="' + W + '" y2="' + (H - PAD) +
      '" stroke="var(--axis)" stroke-width="1" vector-effect="non-scaling-stroke"/>';
    var line = points.length > 1
      ? '<path d="' + d + '" fill="none" stroke="' + color +
        '" stroke-width="2" stroke-linejoin="round" vector-effect="non-scaling-stroke"/>'
      : "";
    svg.innerHTML = baseline + line;

    if (!card._hover) {
      card._hover = true;
      var tip = card.querySelector(".tip");
      svg.addEventListener("mousemove", function (ev) {
        var pts = card._points || [];
        if (pts.length < 2) return;
        var r = svg.getBoundingClientRect();
        var i = Math.round((ev.clientX - r.left) / r.width * (pts.length - 1));
        i = Math.max(0, Math.min(pts.length - 1, i));
        var p = pts[i];
        tip.innerHTML = "<b>" + fmt(p.v) + "</b> " + esc(card._unit || "") +
          ' <span class="t">' + p.t.toTimeString().slice(0, 8) + "</span>";
        tip.style.display = "block";
        var x = ev.clientX - r.left + 12, maxX = r.width - tip.offsetWidth - 4;
        tip.style.left = Math.min(x, Math.max(maxX, 0)) + "px";
        tip.style.top = "34px";
      });
      svg.addEventListener("mouseleave", function () { tip.style.display = "none"; });
    }
    card._points = points;
    card._unit = unit;
  }

  function onSample(sm) {
    samples.push(sm);
    if (samples.length > MAX + 1) samples.shift();
    text("t-running", sm.running);
    text("t-queued", sm.queue_depth);
    text("t-done", sm.states.done || 0);
    text("t-failed", (sm.states.failed || 0) + (sm.states.canceled || 0));
    text("t-fleet", sm.fleet_runs);
    text("t-memo", sm.memo_hits || 0);
    text("t-sweeps", sm.sweeps_active || 0);
    var el = document.getElementById("t-lederr");
    el.textContent = sm.ledger_errors;
    el.className = sm.ledger_errors > 0 ? "v err" : "v";

    // Throughput differentiates the cumulative traffic-word sum, which
    // both pipeline and functional runs account (instruction counts exist
    // only in pipeline mode, so they would flatline for functional runs).
    var thru = [], queue = [], memo = [];
    for (var i = 1; i < samples.length; i++) {
      var a = samples[i - 1], b = samples[i];
      var dt = (new Date(b.t) - new Date(a.t)) / 1000;
      var rate = dt > 0 ? Math.max(0, (b.traffic_words - a.traffic_words) / dt) : 0;
      thru.push({ t: new Date(b.t), v: rate });
      queue.push({ t: new Date(b.t), v: b.queue_depth });
      memo.push({ t: new Date(b.t), v: b.memo_hits || 0 });
    }
    if (thru.length) {
      text("thru-now", fmt(thru[thru.length - 1].v) + "/s");
      text("queue-now", String(queue[queue.length - 1].v));
      text("memo-now", String(memo[memo.length - 1].v));
    }
    spark("c-thru", thru, "var(--s1)", "words/s");
    spark("c-queue", queue, "var(--s2)", "queued");
    spark("c-memo", memo, "var(--s1)", "hits");
  }

  function traceLink(id, traceId) {
    var short = traceId ? esc(String(traceId).slice(0, 8)) : "trace";
    return '<a href="/runs/' + id + '/trace">' + short + "</a>";
  }

  function renderFleet(agg) {
    var rows = "";
    var groups = agg.groups || [];
    for (var i = 0; i < groups.length; i++) {
      var g = groups[i];
      var ex = g.stages && g.stages.execute;
      var tr = g.traffic_per_kilo_inst;
      var exemplar = "–";
      if (ex && ex.buckets) {
        for (var j = 0; j < ex.buckets.length; j++) {
          if (ex.buckets[j].exemplar_run_id) {
            exemplar = traceLink(ex.buckets[j].exemplar_run_id, ex.buckets[j].exemplar_trace_id);
            break;
          }
        }
      }
      rows += "<tr><td>" + esc(g.workload) + "</td><td>" + esc(g.config) +
        "</td><td>" + esc(g.compressor) + "</td><td><span class=\"state\">" + esc(g.state) +
        "</span></td><td class=\"n\">" + g.runs +
        "</td><td class=\"n\">" + (ex ? (ex.p50_seconds * 1000).toFixed(1) + "ms" : "–") +
        "</td><td class=\"n\">" + (ex ? (ex.p95_seconds * 1000).toFixed(1) + "ms" : "–") +
        "</td><td class=\"n\">" + (tr ? tr.mean.toFixed(1) : "–") +
        "</td><td>" + exemplar + "</td></tr>";
    }
    if (!rows) rows = '<tr><td colspan="9" class="empty">no terminal runs yet</td></tr>';
    document.querySelector("#fleet tbody").innerHTML = rows;
  }

  function renderRuns(list) {
    var rows = "";
    for (var i = list.length - 1; i >= 0 && rows.split("<tr>").length <= 20; i--) {
      var r = list[i];
      rows += "<tr><td class=\"n\"><a href=\"/runs/" + r.id + "\">" + r.id + "</a></td><td>" +
        esc(r.spec.workload) + "</td><td>" + esc(r.spec.config) + "</td><td>" +
        esc(r.spec.compressor || "") + "</td><td><span class=\"state\">" + esc(r.state) +
        "</span></td><td class=\"n\">" + r.intervals +
        "</td><td class=\"n\">" + fmt((r.totals.mem_read_halves + r.totals.mem_write_halves) / 2) +
        "</td><td>" + traceLink(r.id, r.trace_id) + "</td></tr>";
    }
    if (!rows) rows = '<tr><td colspan="8" class="empty">no runs yet</td></tr>';
    document.querySelector("#runs tbody").innerHTML = rows;
  }

  function renderSweeps(list) {
    var rows = "";
    for (var i = 0; i < list.length && i < 20; i++) {
      var sw = list[i];
      var done = (sw.counts && sw.counts.done) || 0;
      rows += "<tr><td class=\"n\"><a href=\"/sweeps/" + sw.id + "\">" + sw.id +
        "</a></td><td><span class=\"state\">" + esc(sw.state) +
        "</span></td><td class=\"n\">" + done +
        "</td><td class=\"n\">" + sw.total +
        "</td><td class=\"n\">" + (sw.memoized || 0) +
        "</td><td>" + (sw.degraded ? "yes" : "") + "</td></tr>";
    }
    if (!rows) rows = '<tr><td colspan="6" class="empty">no sweeps yet</td></tr>';
    document.querySelector("#sweeps tbody").innerHTML = rows;
  }

  function refreshTables() {
    fetch("/fleet").then(function (r) { return r.json(); }).then(renderFleet)["catch"](function () {});
    fetch("/runs").then(function (r) { return r.json(); }).then(renderRuns)["catch"](function () {});
    fetch("/sweeps").then(function (r) { return r.json(); }).then(renderSweeps)["catch"](function () {});
  }

  var es = new EventSource("/dashboard/stream");
  es.addEventListener("sample", function (ev) {
    try { onSample(JSON.parse(ev.data)); } catch (e) { /* skip bad frame */ }
  });
  refreshTables();
  setInterval(refreshTables, 5000);
})();
</script>
</body>
</html>
`
