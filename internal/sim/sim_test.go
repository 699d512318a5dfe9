package sim

import (
	"math/rand"
	"testing"

	"cppcache/internal/mach"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/workload"
)

func TestConfigs(t *testing.T) {
	want := []string{"BC", "BCC", "HAC", "BCP", "CPP"}
	got := Configs()
	if len(got) != len(want) {
		t.Fatalf("Configs() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Configs()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestNewSystemAll(t *testing.T) {
	for _, name := range Configs() {
		sys, err := NewSystem(name, mem.New(), memsys.DefaultLatencies())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sys.Name() != name {
			t.Errorf("Name() = %s, want %s", sys.Name(), name)
		}
		sys.Write(0x1000, 7)
		if v, _ := sys.Read(0x1000); v != 7 {
			t.Errorf("%s: read back %d", name, v)
		}
	}
	if _, err := NewSystem("XYZ", mem.New(), memsys.DefaultLatencies()); err == nil {
		t.Error("unknown config accepted")
	}
}

func TestRunMatchesFunctionalStats(t *testing.T) {
	// The pipeline model reorders accesses slightly, but both modes must
	// replay the same loads/stores; spot-check that miss counts agree
	// within a small tolerance for the in-order-friendly BC config.
	bm, err := workload.ByName("olden.treeadd")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	full, err := Run(p, "BC", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fun, err := Run(p, "BC", Options{Functional: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Mem.L1.Accesses != fun.Mem.L1.Accesses {
		t.Errorf("access counts differ: %d vs %d", full.Mem.L1.Accesses, fun.Mem.L1.Accesses)
	}
	ratio := float64(full.Mem.L1.Misses) / float64(fun.Mem.L1.Misses)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("miss counts diverge: pipeline %d vs functional %d", full.Mem.L1.Misses, fun.Mem.L1.Misses)
	}
	if full.CPU.Cycles == 0 || fun.CPU.Cycles != 0 {
		t.Error("cycle accounting wrong between modes")
	}
}

func TestRunAllConfigsVerifiesValues(t *testing.T) {
	// sim.Run fails loudly on any load value mismatch: run every config
	// over a real workload to prove the data paths are sound end-to-end.
	bm, err := workload.ByName("spec95.129.compress")
	if err != nil {
		t.Fatal(err)
	}
	p := bm.Build(1)
	for _, cfg := range Configs() {
		if _, err := Run(p, cfg, Options{}); err != nil {
			t.Errorf("%s: %v", cfg, err)
		}
	}
}

func TestRunCPPVariant(t *testing.T) {
	bm, _ := workload.ByName("olden.mst")
	p := bm.Build(1)
	base, err := Run(p, "CPP", Options{CPP: &CPPKnobs{Mask: 0x1, VictimPlacement: true}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Config != "CPP" {
		t.Errorf("default variant name = %s", base.Config)
	}
	v, err := Run(p, "CPP", Options{CPP: &CPPKnobs{Mask: 0x2, VictimPlacement: false}})
	if err != nil {
		t.Fatal(err)
	}
	if v.Config != "CPP(mask=0x2)-novictim" {
		t.Errorf("variant name = %s", v.Config)
	}
	if v.Mem.AffPlacements != 0 {
		t.Error("victim placement disabled but placements recorded")
	}
	if _, err := Run(p, "BCC", Options{CPP: &CPPKnobs{Mask: 0x1, VictimPlacement: true}}); err == nil {
		t.Error("CPP knobs accepted on BCC")
	}
}

func TestBCAndBCCSameTiming(t *testing.T) {
	// §4.1: "BC and BCC have the same performance since BCC only changes
	// the format in which the data is stored and transmitted."
	bm, _ := workload.ByName("olden.perimeter")
	p := bm.Build(1)
	bc, err := Run(p, "BC", Options{})
	if err != nil {
		t.Fatal(err)
	}
	bcc, err := Run(p, "BCC", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bc.CPU.Cycles != bcc.CPU.Cycles {
		t.Errorf("BC %d cycles vs BCC %d cycles", bc.CPU.Cycles, bcc.CPU.Cycles)
	}
	if bcc.Mem.MemTrafficWords() >= bc.Mem.MemTrafficWords() {
		t.Errorf("BCC traffic %.0f not below BC %.0f",
			bcc.Mem.MemTrafficWords(), bc.Mem.MemTrafficWords())
	}
}

// TestSteadyStateAllocationFree: once warm, no hierarchy allocates on the
// access path. A miss-heavy mix — sequential runs (prefetch-buffer and
// victim-cache hits, affiliated hits), random conflict misses and
// write-backs — must not allocate at all; every hierarchy reuses scratch
// buffers for line moves, fetches and evictions.
func TestSteadyStateAllocationFree(t *testing.T) {
	for _, name := range append(Configs(), ExtraConfigs()...) {
		t.Run(name, func(t *testing.T) {
			sys, err := NewSystem(name, mem.New(), memsys.DefaultLatencies())
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(23))
			batch := func() {
				for i := 0; i < 2000; i++ {
					var a mach.Addr
					if rng.Intn(3) == 0 {
						a = mach.Addr(rng.Intn(1<<18)) &^ 3 // conflict misses + write-backs
					} else {
						a = mach.Addr(i*4) & (1<<16 - 1) // sequential
					}
					if rng.Intn(4) == 0 {
						sys.Write(a, rng.Uint32())
					} else {
						sys.Read(a)
					}
				}
			}
			batch() // warm-up: cache storage settles
			if avg := testing.AllocsPerRun(10, batch); avg > 0 {
				t.Errorf("steady-state %s batch allocated %.1f times, want 0", name, avg)
			}
		})
	}
}
