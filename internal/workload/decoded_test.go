package workload

import (
	"sync"
	"testing"

	"cppcache/internal/cpu"
	"cppcache/internal/hier"
	"cppcache/internal/mem"
	"cppcache/internal/trace"
)

// buildSmall builds a distinct tiny program per call.
func buildSmall(t *testing.T, seed int64) *Program {
	t.Helper()
	b := NewBuilder(seed)
	b.SetPC(0x400)
	a := b.Alloc(64, 64)
	r := b.Const(uint32(seed))
	b.Store(a, uint32(seed), NoReg, r)
	v := b.Load(a, NoReg)
	b.Branch(v, seed%2 == 0)
	return b.Program("tiny")
}

func TestDecodedMatchesTrace(t *testing.T) {
	p := buildSmall(t, 3)
	d := p.Decoded()
	if d.Len() != p.Len() {
		t.Fatalf("decoded len %d != trace len %d", d.Len(), p.Len())
	}
	for i, want := range p.Insts() {
		if got := d.At(i); got != want {
			t.Fatalf("inst %d: decoded %+v != trace %+v", i, got, want)
		}
	}
}

// TestDecodedOnceUnderRace decodes a fresh program from 8 goroutines at
// once: every caller must get the one shared decode.
func TestDecodedOnceUnderRace(t *testing.T) {
	p := buildSmall(t, 1)
	const n = 8
	got := make([]*trace.Decoded, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = p.Decoded()
		}(i)
	}
	wg.Wait()
	for i, d := range got {
		if d != got[0] {
			t.Fatalf("goroutine %d got decode %p, goroutine 0 got %p", i, d, got[0])
		}
	}
	if got[0].Len() != p.Len() {
		t.Fatalf("decoded len %d != trace len %d", got[0].Len(), p.Len())
	}
}

// TestReplayStreamsProgram runs the program's shared decode through the
// core: every instruction retires and every load sees its recorded value.
func TestReplayStreamsProgram(t *testing.T) {
	p := buildSmall(t, 4)
	h, err := hier.NewStandard(hier.BaselineConfig(), mem.New())
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.New(cpu.DefaultParams(), h)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run(p.Decoded().Replay())
	if res.Instructions != int64(p.Len()) || res.ValueMismatches != 0 {
		t.Fatalf("retired %d of %d instructions, %d value mismatches",
			res.Instructions, p.Len(), res.ValueMismatches)
	}
}
