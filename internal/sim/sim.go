// Package sim wires a workload trace, a cache configuration and the
// processor core together into one run, and provides a faster
// functional-only mode (no pipeline timing) for traffic and miss-rate
// studies.
package sim

import (
	"context"
	"fmt"

	"cppcache/internal/core"
	"cppcache/internal/cpu"
	"cppcache/internal/hier"
	"cppcache/internal/isa"
	"cppcache/internal/mem"
	"cppcache/internal/memsys"
	"cppcache/internal/obs"
	"cppcache/internal/span"
	"cppcache/internal/workload"
)

// Configs returns the paper's five cache configurations in presentation
// order (§4.1).
func Configs() []string { return []string{"BC", "BCC", "HAC", "BCP", "CPP"} }

// ExtraConfigs returns the related-work configurations implemented beyond
// the paper's five: VC (Jouppi's victim cache, the paper's reference [3])
// and LCC (line-level compression cache, the paper's reference [6]).
func ExtraConfigs() []string { return []string{"VC", "LCC"} }

// NewSystem builds the named cache hierarchy over main memory m with the
// given latencies. A config name may carry an "@scheme" suffix selecting
// the line-compression scheme (see compressor.go); the built system's
// Name() preserves the suffix.
func NewSystem(name string, m *mem.Memory, lat memsys.Latencies) (memsys.System, error) {
	return newSystem(name, m, lat, nil)
}

// CPPKnobs are the CPP hierarchy's design knobs varied by the §3.3
// ablations.
type CPPKnobs struct {
	// Mask selects the affiliated line: affiliated(n) = n XOR Mask. The
	// paper's 0x1 pairs each line with its neighbour.
	Mask uint32
	// VictimPlacement salvages an evicted primary line into its
	// affiliated place.
	VictimPlacement bool
}

// newSystem is NewSystem with optional CPP design knobs, which only the
// CPP configuration accepts. Knobs other than the paper's (0x1, true) are
// recorded in the system's name.
func newSystem(name string, m *mem.Memory, lat memsys.Latencies, cpp *CPPKnobs) (memsys.System, error) {
	base, canonical, comp, err := resolveConfig(name)
	if err != nil {
		return nil, err
	}
	if cpp != nil && base != "CPP" {
		return nil, fmt.Errorf("sim: CPP design knobs given for config %s", base)
	}
	switch base {
	case "BC":
		cfg := hier.BaselineConfig()
		cfg.Lat = lat
		return hier.NewStandard(cfg, m)
	case "BCC":
		cfg := hier.CompressedConfig()
		cfg.Lat = lat
		cfg.Name = canonical
		cfg.Comp = comp
		return hier.NewStandard(cfg, m)
	case "HAC":
		cfg := hier.HighAssocConfig()
		cfg.Lat = lat
		return hier.NewStandard(cfg, m)
	case "BCP":
		cfg := hier.PrefetchConfigDefault()
		cfg.Lat = lat
		return hier.NewPrefetch(cfg, m)
	case "CPP":
		cfg := core.DefaultConfig()
		cfg.Lat = lat
		if cpp != nil {
			cfg.Mask = cpp.Mask
			cfg.VictimPlacement = cpp.VictimPlacement
			if cpp.Mask != 1 {
				cfg.Name = fmt.Sprintf("CPP(mask=%#x)", cpp.Mask)
			}
			if !cpp.VictimPlacement {
				cfg.Name += "-novictim"
			}
		}
		return core.New(cfg, m)
	case "VC":
		cfg := hier.VictimConfigDefault()
		cfg.Lat = lat
		return hier.NewVictim(cfg, m)
	case "LCC":
		cfg := hier.LCCConfig()
		cfg.Lat = lat
		cfg.Name = canonical
		cfg.Comp = comp
		return hier.NewLCC(cfg, m)
	default:
		return nil, fmt.Errorf("sim: unknown configuration %q (known: %v)",
			base, append(Configs(), ExtraConfigs()...))
	}
}

// Result is one benchmark x configuration run.
type Result struct {
	Benchmark string
	Config    string
	CPU       cpu.Result
	Mem       memsys.Stats
}

// Options configure one run. The zero value runs the full pipeline with
// the paper's latencies and core parameters, unobserved and unsupervised;
// every field's zero value is inert.
type Options struct {
	// Lat are the memory latencies; zero means memsys.DefaultLatencies().
	Lat memsys.Latencies
	// CPU are the core parameters; zero means cpu.DefaultParams().
	CPU cpu.Params
	// Functional replays only the memory operations of the program, in
	// program order, with no pipeline model. It is an order of magnitude
	// faster and produces identical traffic and miss statistics for
	// studies that do not need cycles (which stay zero).
	Functional bool
	// Rec, when non-nil, observes the core and the hierarchy; it is
	// finished (trailing snapshot emitted) before Run returns, also when
	// the run is canceled. In functional mode the operation index stands
	// in for time (one op per "cycle" in snapshots and traces).
	Rec *obs.Recorder
	// Ctx, when non-nil, cancels the run cooperatively: the main loops
	// poll it every few thousand cycles/ops and abandon the run with
	// ctx's error.
	Ctx context.Context
	// Fault, when non-nil, is invoked at the simulator's fault-injection
	// points (hierarchy fills, per memory op) with a site label. The
	// chaos harness (internal/chaos) uses it to fire panics, stalls and
	// cancellations at deterministic execution points.
	Fault func(site string)
	// Span, when non-nil, parents the run's stage spans (sim.build,
	// sim.run, sim.finish), making the wall-clock split between system
	// construction, simulation and recorder teardown visible per run.
	Span *span.Span
	// CPP, when non-nil, sets the CPP hierarchy's design knobs for the
	// ablation studies. Any config other than CPP rejects it.
	CPP *CPPKnobs
}

// Run simulates the program on the named configuration. The result's
// Config is the built system's name, which records a scheme suffix and
// non-default CPP knobs.
func Run(p *workload.Program, config string, o Options) (Result, error) {
	if o.Lat == (memsys.Latencies{}) {
		o.Lat = memsys.DefaultLatencies()
	}
	if o.CPU == (cpu.Params{}) {
		o.CPU = cpu.DefaultParams()
	}
	ctx := o.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	build := o.Span.StartChild("sim.build",
		span.String("benchmark", p.Name), span.String("config", config))
	m := mem.New()
	sys, err := newSystem(config, m, o.Lat, o.CPP)
	var c *cpu.Core
	if err == nil && !o.Functional {
		c, err = cpu.New(o.CPU, sys)
	}
	if err != nil {
		build.End()
		return Result{}, err
	}
	if o.Rec != nil {
		// Every system exposes a stats block; hierarchies implementing
		// obs.Attachable additionally get event/fill hooks.
		o.Rec.AttachStats(sys.Stats())
		if a, ok := sys.(obs.Attachable); ok {
			a.SetRecorder(o.Rec)
		}
	}
	// Systems without injection points skip the hierarchy-level sites.
	if fh, ok := sys.(faultHookable); ok && o.Fault != nil {
		fh.SetFaultHook(o.Fault)
	}
	o.Rec.AttachMemPages(m.PagesTouched)
	if c != nil {
		c.SetRecorder(o.Rec)
		c.SetFaultHook(o.Fault)
	}
	build.End()

	running := o.Span.StartChild("sim.run")
	var res cpu.Result
	var mismatches int64
	mode, unit, at := "", "cycle", int64(0)
	if c != nil {
		// The core recognises the shared pre-decoded trace's stream type
		// and fetches straight from its struct-of-arrays buffers, which
		// any number of concurrent runs share read-only.
		res, err = c.RunContext(ctx, p.Replay())
		mismatches, at = res.ValueMismatches, res.Cycles
		running.SetAttrs(span.Int("cycles", at))
	} else {
		mode, unit = " (functional)", "op"
		at, mismatches, err = replayFunctional(ctx, p, sys, o.Rec, o.Fault)
		running.SetAttrs(span.Int("ops", at))
	}
	running.End()
	finish := o.Span.StartChild("sim.finish")
	o.Rec.Finish()
	finish.End()

	if err != nil {
		return Result{}, fmt.Errorf("sim: %s on %s%s canceled at %s %d: %w",
			p.Name, sys.Name(), mode, unit, at, err)
	}
	if mismatches > 0 {
		return Result{}, fmt.Errorf("sim: %s on %s%s: %d load value mismatches (cache model corrupted data)",
			p.Name, sys.Name(), mode, mismatches)
	}
	return Result{Benchmark: p.Name, Config: sys.Name(), CPU: res, Mem: *sys.Stats()}, nil
}

// faultHookable is implemented by hierarchies that expose fault-injection
// points (core.Hierarchy, hier.Standard).
type faultHookable interface {
	SetFaultHook(func(site string))
}

// funcCancelCheckEvery is the cadence, in replayed memory ops, of the
// functional loop's cooperative cancellation poll.
const funcCancelCheckEvery = 4096

// replayFunctional is the functional run's loop: the loads and stores of
// the shared pre-decoded trace, in program order, straight into the
// hierarchy. It returns the ops replayed and the load value mismatches,
// or ctx's error if ctx is canceled first. The loop touches only four of
// the record's eight fields, so the struct-of-arrays buffers keep every
// byte it reads hot and sequential.
func replayFunctional(ctx context.Context, p *workload.Program, sys memsys.System, rec *obs.Recorder, fault func(string)) (op, mismatches int64, err error) {
	d := p.Decoded()
	ops, addrs, values, pcs := d.Ops(), d.Addrs(), d.Values(), d.PCs()
	done := ctx.Done()
	for i := range ops {
		if done != nil && op%funcCancelCheckEvery == 0 {
			select {
			case <-done:
				return op, mismatches, ctx.Err()
			default:
			}
		}
		switch ops[i] {
		case isa.OpLoad:
			rec.SetAccessPC(pcs[i])
			if fault != nil {
				fault("sim.op")
			}
			if v, _ := sys.Read(addrs[i]); v != values[i] {
				mismatches++
			}
		case isa.OpStore:
			rec.SetAccessPC(pcs[i])
			if fault != nil {
				fault("sim.op")
			}
			sys.Write(addrs[i], values[i])
		}
		op++
		rec.OpTick(op)
	}
	return op, mismatches, nil
}
