package span

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from current exports")

// TestExportGolden pins the exact bytes of all three exporters for the
// fixed trace, a trace with an open span, and a nil tracer; run with
// -update to rewrite.
func TestExportGolden(t *testing.T) {
	open := NewWithID("open", 0)
	open.StartAt("pending", nil, t0, Int("n", 1))
	tracers := map[string]*Tracer{
		"fixed": buildFixedTrace(t),
		"open":  open,
		"nil":   nil,
	}
	for name, tr := range tracers {
		for format, export := range map[string]func() []byte{
			"tree":   tr.Tree,
			"chrome": tr.Chrome,
			"otlp":   tr.OTLP,
		} {
			path := filepath.Join("testdata", name+"."+format+".golden")
			got := export()
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from golden:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}
