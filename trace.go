package cppcache

import (
	"io"

	"cppcache/internal/isa"
	"cppcache/internal/span"
	"cppcache/internal/trace"
	"cppcache/internal/workload"
)

// Program is a finished instruction trace ready to simulate.
type Program struct{ p *workload.Program }

// Name returns the program's name.
func (p *Program) Name() string { return p.p.Name }

// Len returns the trace length in instructions.
func (p *Program) Len() int { return p.p.Len() }

// WriteTo serialises the trace in the cppcache binary format.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	return trace.WriteAll(w, p.p.Stream())
}

// BuildBenchmark generates one of the 14 paper workloads at the given
// scale (0 means the experiment default).
func BuildBenchmark(name string, scale int) (*Program, error) {
	return buildProgram(name, scale, nil)
}

// buildProgram is BuildBenchmark under an optional parent span, which
// gets a workload.build child recording whether the shared decoded trace
// was already cached.
func buildProgram(name string, scale int, parent *span.Span) (*Program, error) {
	if scale == 0 {
		scale = workload.DefaultScale
	}
	build := parent.StartChild("workload.build",
		span.String("benchmark", name), span.Int("scale", int64(scale)))
	defer build.End()
	p, hit, err := workload.BuildSharedCached(name, scale)
	if err != nil {
		return nil, err
	}
	build.Event("decode.cache", span.Bool("hit", hit))
	return &Program{p: p}, nil
}

// Reg is a virtual-register handle in a trace under construction.
type Reg = int32

// NoReg marks an absent register dependence.
const NoReg Reg = isa.NoReg

// TraceBuilder records a custom program: a dependence-carrying instruction
// trace over a simulated heap. It is the same machinery the built-in
// workloads use (see internal/workload).
type TraceBuilder struct{ b *workload.B }

// NewTraceBuilder returns an empty builder with a deterministic RNG.
func NewTraceBuilder(seed int64) *TraceBuilder {
	return &TraceBuilder{b: workload.NewBuilder(seed)}
}

// Alloc carves bytes from the simulated heap with the given alignment and
// returns the address.
func (t *TraceBuilder) Alloc(bytes, align int) uint32 { return t.b.Alloc(bytes, align) }

// ScatterAlloc allocates round-robin across n interleaved stripes of the
// current 32K heap chunk, modelling allocators whose placement does not
// follow traversal order.
func (t *TraceBuilder) ScatterAlloc(n, bytes, align int) uint32 {
	return t.b.ScatterAlloc(n, bytes, align)
}

// SetPC positions the emission point; call at the top of each loop body so
// static code reuses PCs (the branch predictor and I-cache key on them).
func (t *TraceBuilder) SetPC(pc uint32) { t.b.SetPC(pc) }

// Load emits a load of the word at addr. addrDep is the register the
// address depends on (NoReg for a static address); the loaded value comes
// from the builder's functional memory image.
func (t *TraceBuilder) Load(addr uint32, addrDep Reg) Reg { return t.b.Load(addr, addrDep) }

// Store emits a store of value at addr, updating the functional image.
func (t *TraceBuilder) Store(addr, value uint32, addrDep, valueDep Reg) {
	t.b.Store(addr, value, addrDep, valueDep)
}

// ALU emits a one-cycle integer operation depending on up to two sources.
func (t *TraceBuilder) ALU(s1, s2 Reg) Reg { return t.b.ALU(s1, s2) }

// Branch emits a conditional branch with the given resolved direction.
func (t *TraceBuilder) Branch(cond Reg, taken bool) { t.b.Branch(cond, taken) }

// Peek returns the current value at addr in the functional image, so
// builders can follow the data structures they create.
func (t *TraceBuilder) Peek(addr uint32) uint32 {
	// The image is private to the internal builder; route through a
	// load-free helper.
	return t.b.Image().ReadWord(addr)
}

// Len returns the number of instructions recorded so far.
func (t *TraceBuilder) Len() int { return t.b.Len() }

// Program finalises the builder into a runnable Program.
func (t *TraceBuilder) Program(name string) *Program {
	return &Program{p: t.b.Program(name)}
}
