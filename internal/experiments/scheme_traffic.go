package experiments

import (
	"context"
	"fmt"

	"cppcache/internal/compress"
	"cppcache/internal/sched"
	"cppcache/internal/sim"
	"cppcache/internal/stats"
	"cppcache/internal/workload"
)

// SchemeTraffic runs the compressor-zoo comparison: one functional BCC
// run per workload x registered compression scheme (the schemes share
// miss behaviour and differ only in bus traffic), reported as off-chip
// traffic ratios to the uncompressed BC baseline, with a geomean row.
// Rows fan out across workers (one job per workload, so the BC baseline
// run and the trace are shared within a job); the resulting table is
// byte-identical for any worker count.
func SchemeTraffic(scale, workers int) (*stats.Table, error) {
	if scale <= 0 {
		scale = 1 // functional sweeps don't need the full compute phase
	}
	schemes := compress.Schemes()
	benches := workload.Names()
	t := stats.NewTable("BCC off-chip traffic ratio vs BC, per compression scheme", benches, schemes)
	err := sched.Do(context.Background(), len(benches), workers,
		func(_ context.Context, _, j int) error {
			// Each job owns one row; concurrent Set calls touch disjoint
			// row slices.
			bench := benches[j]
			p, err := workload.BuildShared(bench, scale)
			if err != nil {
				return err
			}
			base, err := sim.Run(p, "BC", sim.Options{Functional: true})
			if err != nil {
				return err
			}
			bw := base.Mem.MemTrafficWords()
			for _, scheme := range schemes {
				r, err := sim.Run(p, sim.WithCompressor("BCC", scheme), sim.Options{Functional: true})
				if err != nil {
					return err
				}
				t.Set(bench, scheme, r.Mem.MemTrafficWords()/bw)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	g := t.WithGeomeanRow()
	g.Note = fmt.Sprintf("scale=%d; 1.00 = uncompressed BC traffic; lower is better", scale)
	return g, nil
}
