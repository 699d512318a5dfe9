// Package trace serialises instruction traces to a compact binary stream.
//
// The format is a magic header followed by one varint-delta-encoded record
// per instruction. Register ids grow monotonically in well-formed traces,
// so they delta-encode well; addresses and PCs are zig-zag deltas against
// the previous memory instruction. The format exists so that workloads can
// be generated once (cmd/cpptrace) and replayed many times.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"cppcache/internal/isa"
	"cppcache/internal/mach"
)

// Magic identifies a cppcache trace stream (format version 1).
const Magic = "CPPT\x01"

// flag bits packed alongside the opcode byte.
const (
	flagTaken   = 1 << 0
	flagHasDest = 1 << 1
	flagHasSrc1 = 1 << 2
	flagHasSrc2 = 1 << 3
	flagMem     = 1 << 4
)

// Writer encodes instructions onto an io.Writer.
type Writer struct {
	w        *bufio.Writer
	buf      [binary.MaxVarintLen64]byte
	prevAddr mach.Addr
	prevPC   mach.Addr
	count    int64
	started  bool
}

// NewWriter returns a Writer that emits the stream header lazily on the
// first Write.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

func (tw *Writer) varint(v int64) error {
	n := binary.PutVarint(tw.buf[:], v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

func (tw *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(tw.buf[:], v)
	_, err := tw.w.Write(tw.buf[:n])
	return err
}

// Write appends one instruction to the stream.
func (tw *Writer) Write(in isa.Inst) error {
	if !tw.started {
		if _, err := io.WriteString(tw.w, Magic); err != nil {
			return err
		}
		tw.started = true
	}
	var flags byte
	if in.Taken {
		flags |= flagTaken
	}
	if in.Dest != isa.NoReg {
		flags |= flagHasDest
	}
	if in.Src1 != isa.NoReg {
		flags |= flagHasSrc1
	}
	if in.Src2 != isa.NoReg {
		flags |= flagHasSrc2
	}
	if in.Op.IsMem() {
		flags |= flagMem
	}
	if err := tw.w.WriteByte(byte(in.Op)); err != nil {
		return err
	}
	if err := tw.w.WriteByte(flags); err != nil {
		return err
	}
	if flags&flagHasDest != 0 {
		if err := tw.uvarint(uint64(in.Dest)); err != nil {
			return err
		}
	}
	if flags&flagHasSrc1 != 0 {
		if err := tw.uvarint(uint64(in.Src1)); err != nil {
			return err
		}
	}
	if flags&flagHasSrc2 != 0 {
		if err := tw.uvarint(uint64(in.Src2)); err != nil {
			return err
		}
	}
	if flags&flagMem != 0 {
		if err := tw.varint(int64(in.Addr) - int64(tw.prevAddr)); err != nil {
			return err
		}
		tw.prevAddr = in.Addr
		if err := tw.uvarint(uint64(in.Value)); err != nil {
			return err
		}
	}
	if err := tw.varint(int64(in.PC) - int64(tw.prevPC)); err != nil {
		return err
	}
	tw.prevPC = in.PC
	tw.count++
	return nil
}

// Count returns the number of instructions written so far.
func (tw *Writer) Count() int64 { return tw.count }

// Flush writes any buffered data to the underlying writer.
func (tw *Writer) Flush() error { return tw.w.Flush() }

// Reader decodes a stream produced by Writer.
type Reader struct {
	r        *bufio.Reader
	prevAddr mach.Addr
	prevPC   mach.Addr
	started  bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// ErrBadMagic reports a stream that does not begin with the trace header.
var ErrBadMagic = errors.New("trace: bad magic header")

// ErrCorrupt reports a record that is structurally decodable but could not
// have been produced by Writer (unknown opcode, or a memory-operand flag
// that contradicts the opcode).
var ErrCorrupt = errors.New("trace: corrupt record")

// Read decodes the next instruction. It returns io.EOF at a clean end of
// stream.
func (tr *Reader) Read() (isa.Inst, error) {
	if !tr.started {
		hdr := make([]byte, len(Magic))
		if _, err := io.ReadFull(tr.r, hdr); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = ErrBadMagic
			}
			return isa.Inst{}, err
		}
		if string(hdr) != Magic {
			return isa.Inst{}, ErrBadMagic
		}
		tr.started = true
	}
	opByte, err := tr.r.ReadByte()
	if err != nil {
		return isa.Inst{}, err // io.EOF = clean end
	}
	flags, err := tr.r.ReadByte()
	if err != nil {
		return isa.Inst{}, unexpected(err)
	}
	in := isa.Inst{Op: isa.Op(opByte), Dest: isa.NoReg, Src1: isa.NoReg, Src2: isa.NoReg}
	if !in.Op.Valid() {
		return isa.Inst{}, fmt.Errorf("%w: unknown opcode %#x", ErrCorrupt, opByte)
	}
	if (flags&flagMem != 0) != in.Op.IsMem() {
		return isa.Inst{}, fmt.Errorf("%w: memory flag disagrees with opcode %v", ErrCorrupt, in.Op)
	}
	in.Taken = flags&flagTaken != 0
	if flags&flagHasDest != 0 {
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return in, unexpected(err)
		}
		in.Dest = int32(v)
	}
	if flags&flagHasSrc1 != 0 {
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return in, unexpected(err)
		}
		in.Src1 = int32(v)
	}
	if flags&flagHasSrc2 != 0 {
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return in, unexpected(err)
		}
		in.Src2 = int32(v)
	}
	if flags&flagMem != 0 {
		d, err := binary.ReadVarint(tr.r)
		if err != nil {
			return in, unexpected(err)
		}
		in.Addr = mach.Addr(int64(tr.prevAddr) + d)
		tr.prevAddr = in.Addr
		v, err := binary.ReadUvarint(tr.r)
		if err != nil {
			return in, unexpected(err)
		}
		in.Value = mach.Word(v)
	}
	d, err := binary.ReadVarint(tr.r)
	if err != nil {
		return in, unexpected(err)
	}
	in.PC = mach.Addr(int64(tr.prevPC) + d)
	tr.prevPC = in.PC
	return in, nil
}

func unexpected(err error) error {
	if err == io.EOF {
		return fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// ReadAll decodes the remainder of the stream into a slice.
func (tr *Reader) ReadAll() ([]isa.Inst, error) {
	var insts []isa.Inst
	for {
		in, err := tr.Read()
		if err == io.EOF {
			return insts, nil
		}
		if err != nil {
			return insts, err
		}
		insts = append(insts, in)
	}
}

// WriteAll encodes insts to w and flushes.
func WriteAll(w io.Writer, insts []isa.Inst) (int64, error) {
	tw := NewWriter(w)
	for _, in := range insts {
		if err := tw.Write(in); err != nil {
			return tw.Count(), err
		}
	}
	return tw.Count(), tw.Flush()
}
