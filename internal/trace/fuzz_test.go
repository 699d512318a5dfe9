package trace

import (
	"bytes"
	"reflect"
	"testing"

	"cppcache/internal/isa"
)

// FuzzTraceReader feeds arbitrary bytes to the reader: it must return
// errors on malformed input, never panic or spin, and any stream it does
// accept must survive a re-encode/re-decode cycle unchanged.
func FuzzTraceReader(f *testing.F) {
	// Seed corpus: a small valid stream, its truncation, a corrupted body,
	// a bad magic, and the empty input.
	valid := func(insts []isa.Inst) []byte {
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, insts); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	stream := valid([]isa.Inst{
		{Op: isa.OpLoad, Dest: 1, Src1: isa.NoReg, Src2: isa.NoReg, Addr: 0x1000, Value: 7, PC: 0x400000},
		{Op: isa.OpStore, Dest: isa.NoReg, Src1: 2, Src2: isa.NoReg, Addr: 0x1004, Value: 9, PC: 0x400004},
		{Op: isa.OpBranch, Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg, Taken: true, PC: 0x400008},
	})
	f.Add(stream)
	f.Add(stream[:len(stream)-1])
	corrupt := append([]byte(nil), stream...)
	corrupt[len(Magic)+2] ^= 0xFF
	f.Add(corrupt)
	f.Add([]byte("NOTATRACE"))
	f.Add([]byte{})
	f.Add([]byte(Magic))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		var insts []isa.Inst
		readErr := error(nil)
		for len(insts) < 1<<16 {
			in, err := r.Read()
			if err != nil {
				readErr = err
				break
			}
			insts = append(insts, in)
		}
		if readErr == nil || len(insts) == 0 {
			return
		}
		// Accepted prefix must roundtrip bit-exactly.
		var buf bytes.Buffer
		if _, err := WriteAll(&buf, insts); err != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", err)
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(got, insts) {
			t.Fatalf("re-decode changed %d accepted records", len(insts))
		}
	})
}
