package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"cppcache"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/sim"
	"cppcache/internal/verify"
)

// TestScenarioDeterministicAndCovering: the same seed always derives the
// same spec, and a modest seed sweep exercises all three fault kinds.
func TestScenarioDeterministicAndCovering(t *testing.T) {
	kinds := map[string]bool{}
	for seed := int64(0); seed < 32; seed++ {
		a, b := Scenario(seed, 1000), Scenario(seed, 1000)
		if a != b {
			t.Fatalf("Scenario(%d) not deterministic: %+v vs %+v", seed, a, b)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("Scenario(%d) invalid: %v", seed, err)
		}
		switch {
		case a.PanicAfter > 0:
			kinds["panic"] = true
		case a.StallAfter > 0:
			kinds["stall"] = true
		case a.CancelAfter > 0:
			kinds["cancel"] = true
		}
	}
	for _, k := range []string{"panic", "stall", "cancel"} {
		if !kinds[k] {
			t.Errorf("seed sweep never produced a %s scenario", k)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{}, true},
		{Spec{PanicAfter: 10}, true},
		{Spec{StallAfter: 3, StallMs: 50}, true},
		{Spec{PanicAfter: -1}, false},
		{Spec{StallMs: -2}, false},
		{Spec{StallMs: MaxStallMs + 1}, false},
		{Spec{StallAfter: 5}, false}, // stall with no duration
	}
	for _, c := range cases {
		if got := c.spec.Validate() == nil; got != c.ok {
			t.Errorf("Validate(%+v) ok=%v, want %v", c.spec, got, c.ok)
		}
	}
}

// TestInjectedPanicIsDeterministic runs the same panicking scenario twice
// and checks the panic fires at the same hook hit with the same site.
func TestInjectedPanicIsDeterministic(t *testing.T) {
	run := func() (p *Panic, hits int64) {
		inj := New(Spec{Seed: 7, PanicAfter: 50}, nil, nil)
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected panic did not fire")
			}
			var ok bool
			if p, ok = r.(*Panic); !ok {
				t.Fatalf("recovered %T, want *chaos.Panic", r)
			}
			hits = inj.Hits()
		}()
		_, _ = cppcache.Run("olden.treeadd", cppcache.CPP,
			cppcache.Options{Scale: 1, FunctionalOnly: true, FaultHook: inj.Hook})
		return
	}
	p1, h1 := run()
	p2, h2 := run()
	if p1.Hit != 50 || p1.Site != p2.Site || p1.Hit != p2.Hit || h1 != h2 {
		t.Errorf("panic not deterministic: run1 %+v (hits %d), run2 %+v (hits %d)", p1, h1, p2, h2)
	}
}

// TestCancelTriggerCancelsOwnRun wires CancelAfter to the run's own
// context and checks the run aborts with context.Canceled.
func TestCancelTriggerCancelsOwnRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inj := New(Spec{CancelAfter: 100}, ctx, cancel)
	_, err := cppcache.Run("olden.treeadd", cppcache.CPP,
		cppcache.Options{Scale: 1, FunctionalOnly: true, Ctx: ctx, FaultHook: inj.Hook})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fired := inj.Fired(); len(fired) != 1 || !strings.HasPrefix(fired[0], "cancel@") {
		t.Errorf("fired = %v, want one cancel action", fired)
	}
}

// TestStallAbortsOnCancel: a long stall must end as soon as the context
// is canceled, so deadlines can kill a hung run promptly.
func TestStallAbortsOnCancel(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	inj := New(Spec{StallAfter: 1, StallMs: MaxStallMs}, ctx, nil)
	start := time.Now()
	inj.Hook("test.site")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall ignored cancellation: blocked %v", elapsed)
	}
}

// TestInertHookIsByteIdentical: an injector whose triggers never fire
// must not perturb the simulation — results and the full snapshot series
// must equal a fault-free run exactly, in both functional and pipeline
// mode and for both hierarchy families.
func TestInertHookIsByteIdentical(t *testing.T) {
	for _, cfg := range []cppcache.CacheConfig{cppcache.CPP, cppcache.BC} {
		for _, functional := range []bool{true, false} {
			oo := cppcache.ObserveOptions{IntervalCycles: 5000}
			baseObs := cppcache.NewObservation(oo)
			opts := cppcache.Options{Scale: 1, FunctionalOnly: functional, Observe: baseObs}
			base, err := cppcache.Run("olden.treeadd", cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			inj := New(Spec{Seed: 1}, nil, nil) // no triggers: inert
			gotObs := cppcache.NewObservation(oo)
			opts.Observe, opts.FaultHook = gotObs, inj.Hook
			got, err := cppcache.Run("olden.treeadd", cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if inj.Hits() == 0 {
				t.Errorf("%s functional=%v: fault hook never invoked", cfg, functional)
			}
			if got != base {
				t.Errorf("%s functional=%v: results diverged under inert hook\n  base: %+v\n  got:  %+v",
					cfg, functional, base, got)
			}
			if !reflect.DeepEqual(baseObs.Snapshots(), gotObs.Snapshots()) {
				t.Errorf("%s functional=%v: snapshot series diverged under inert hook", cfg, functional)
			}
		}
	}
}

// TestInertHookPassesOracle drives the differential-verification oracle
// over a CPP hierarchy with an inert fault hook attached: every invariant
// (oracle values, occupancy, structural rules, affiliated mirrors, drain
// conservation) must still hold.
func TestInertHookPassesOracle(t *testing.T) {
	m := mem.New()
	sys, err := sim.NewSystem("CPP", m, memsys.DefaultLatencies())
	if err != nil {
		t.Fatal(err)
	}
	inj := New(Spec{}, nil, nil)
	sys.(interface{ SetFaultHook(func(string)) }).SetFaultHook(inj.Hook)
	s := verify.RandomStream(42, 4000)
	if d := verify.Check(sys, m, s, verify.Options{}); d != nil {
		t.Fatalf("oracle divergence under inert chaos hook: %v", d)
	}
	if inj.Hits() == 0 {
		t.Error("fault hook never invoked during oracle run")
	}
}
