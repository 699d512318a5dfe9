package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"cppcache"
	"cppcache/internal/ledger"
)

// pinnedJSON holds the expected digest of every output the benchmark
// checks: each simulator Result (by run key) and the sweep's TSV table.
// Regenerate it with --pin after a change that is meant to alter results.
//
//go:embed pinned.json
var pinnedJSON []byte

// sweepTableKey is the pins entry for the sweep-fabric table.
const sweepTableKey = "sweep-table"

// pins maps an output's key to its expected digest.
type pins map[string]string

func loadPins(b []byte) (pins, error) {
	var p pins
	if err := json.Unmarshal(b, &p); err != nil {
		return nil, fmt.Errorf("pinned digests: %w", err)
	}
	return p, nil
}

// check compares got with the digest pinned for key.
func (p pins) check(key, got string) error {
	want, ok := p[key]
	if !ok {
		return fmt.Errorf("%s: no pinned digest", key)
	}
	if got != want {
		return fmt.Errorf("%s: digest %s, pinned %s", key, got, want)
	}
	return nil
}

// runSpec names one simulation: a benchmark on a configuration (with an
// optional compression scheme) at a scale, in full-pipeline or
// functional mode.
type runSpec struct {
	bench      string
	config     simConfig
	scale      int
	functional bool
}

func (s runSpec) key() string {
	mode := "full"
	if s.functional {
		mode = "functional"
	}
	return fmt.Sprintf("%s %s s%d %s", s.bench, s.config.label, s.scale, mode)
}

func (s runSpec) options() cppcache.Options {
	return cppcache.Options{Scale: s.scale, FunctionalOnly: s.functional, Compressor: s.config.scheme}
}

func tableDigest(tsv []byte) string {
	sum := sha256.Sum256(tsv)
	return hex.EncodeToString(sum[:])
}

// pinAll recomputes every pinned digest from direct RunProgram calls, and
// the sweep table from a local-pool server (checked byte-identical to the
// fabric's), and writes them to path.
func pinAll(path string) error {
	specs := map[string]runSpec{}
	for _, w := range []*simWorkload{figuresPipeline(), functionalZoo()} {
		for _, s := range w.specs {
			specs[s.key()] = s
		}
	}
	for _, c := range serviceCatalogue() {
		specs[c.key()] = c
	}
	keys := make([]string, 0, len(specs))
	for k := range specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := pins{}
	for _, k := range keys {
		s := specs[k]
		p, err := cppcache.BuildBenchmark(s.bench, s.scale)
		if err != nil {
			return err
		}
		r, err := cppcache.RunProgram(p, cppcache.CacheConfig(s.config.base), s.options())
		if err != nil {
			return fmt.Errorf("%s: %w", k, err)
		}
		if out[k], err = ledger.ResultDigest(r); err != nil {
			return err
		}
	}
	local, err := sweepTable(false)
	if err != nil {
		return err
	}
	viaFabric, err := sweepTable(true)
	if err != nil {
		return err
	}
	if string(local) != string(viaFabric) {
		return fmt.Errorf("sweep table differs between the local pool and the fabric:\n%s\n%s", local, viaFabric)
	}
	out[sweepTableKey] = tableDigest(local)
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// sweepTable runs the sweep-fabric sweep once and returns its table.
func sweepTable(viaFabric bool) (table []byte, err error) {
	st, err := startSweepStack(viaFabric)
	if err != nil {
		return nil, err
	}
	defer closeInto(st, &err)
	res, err := st.sweep(sweepSpec(), nil)
	if err != nil {
		return nil, err
	}
	return res.table, nil
}
