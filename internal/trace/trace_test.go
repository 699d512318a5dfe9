package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"cppcache/internal/isa"
	"cppcache/internal/mach"
)

func randomInst(rng *rand.Rand) isa.Inst {
	ops := []isa.Op{isa.OpNop, isa.OpALU, isa.OpMul, isa.OpDiv, isa.OpFALU,
		isa.OpFMul, isa.OpFDiv, isa.OpLoad, isa.OpStore, isa.OpBranch}
	in := isa.Inst{
		Op:   ops[rng.Intn(len(ops))],
		Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg,
		PC: mach.Addr(rng.Uint32()) &^ 3,
	}
	if rng.Intn(2) == 0 {
		in.Dest = rng.Int31n(1 << 20)
	}
	if rng.Intn(2) == 0 {
		in.Src1 = rng.Int31n(1 << 20)
	}
	if rng.Intn(2) == 0 {
		in.Src2 = rng.Int31n(1 << 20)
	}
	if in.Op.IsMem() {
		in.Addr = mach.Addr(rng.Uint32()) &^ 3
		in.Value = rng.Uint32()
	}
	if in.Op == isa.OpBranch {
		in.Taken = rng.Intn(2) == 0
	}
	return in
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	insts := make([]isa.Inst, 5000)
	for i := range insts {
		insts[i] = randomInst(rng)
	}
	var buf bytes.Buffer
	n, err := WriteAll(&buf, insts)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(insts)) {
		t.Fatalf("wrote %d records, want %d", n, len(insts))
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, insts) {
		for i := range insts {
			if got[i] != insts[i] {
				t.Fatalf("record %d: got %+v, want %+v", i, got[i], insts[i])
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		insts := make([]isa.Inst, int(n)+1)
		for i := range insts {
			insts[i] = randomInst(rng)
		}
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, insts); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		return err == nil && reflect.DeepEqual(got, insts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	n, err := WriteAll(&buf, nil)
	if err != nil || n != 0 {
		t.Fatalf("WriteAll(empty) = %d, %v", n, err)
	}
	// No magic is written until the first record; reading yields EOF.
	if _, err := NewReader(&buf).Read(); err != io.EOF {
		t.Errorf("empty stream read error = %v, want io.EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("NOTATRACE"))
	if _, err := r.Read(); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestCorruptRecordRejected(t *testing.T) {
	insts := []isa.Inst{{Op: isa.OpLoad, Dest: 1, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x1000, Value: 7}}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, insts); err != nil {
		t.Fatal(err)
	}
	// Unknown opcode.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(Magic)] = 0xEE
	if _, err := NewReader(bytes.NewReader(bad)).ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("unknown opcode error = %v, want ErrCorrupt", err)
	}
	// Memory flag stripped from a load.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[len(Magic)+1] &^= 1 << 4
	if _, err := NewReader(bytes.NewReader(bad)).ReadAll(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("flag/opcode disagreement error = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	insts := []isa.Inst{{Op: isa.OpLoad, Dest: 1, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x1000, Value: 7}}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, insts); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	_, err := NewReader(bytes.NewReader(cut)).ReadAll()
	if err == nil || err == io.EOF {
		t.Errorf("truncated stream error = %v, want unexpected-EOF wrap", err)
	}
}

func TestCompactness(t *testing.T) {
	// Sequential access patterns should delta-encode to only a few bytes
	// per record.
	insts := make([]isa.Inst, 1000)
	for i := range insts {
		insts[i] = isa.Inst{
			Op: isa.OpLoad, Dest: int32(i), Src1: isa.NoReg, Src2: isa.NoReg,
			Addr: mach.Addr(0x1000 + i*4), Value: 1, PC: mach.Addr(0x400000 + i*8),
		}
	}
	var buf bytes.Buffer
	if _, err := WriteAll(&buf, insts); err != nil {
		t.Fatal(err)
	}
	perRec := float64(buf.Len()) / float64(len(insts))
	if perRec > 12 {
		t.Errorf("encoding too large: %.1f bytes/record", perRec)
	}
}

func BenchmarkWriter(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	insts := make([]isa.Inst, 1024)
	for i := range insts {
		insts[i] = randomInst(rng)
	}
	b.ResetTimer()
	tw := NewWriter(io.Discard)
	for i := 0; i < b.N; i++ {
		if err := tw.Write(insts[i%1024]); err != nil {
			b.Fatal(err)
		}
	}
}
