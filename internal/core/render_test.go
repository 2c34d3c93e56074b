package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hpcpower/internal/core"
	"hpcpower/internal/gen"
	"hpcpower/internal/report"
	"hpcpower/internal/trace"
)

func generate(tb testing.TB, cfg gen.Config) *trace.Dataset {
	tb.Helper()
	ds, err := gen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// TestAnalyzeAllSameAtAnyCoreCount: the battery's steps run at once, and
// the report does not depend on how many run side by side. The rendered
// Emmy report (what WriteReport prints) is pinned by its SHA-256, taken
// when the steps ran one after another.
func TestAnalyzeAllSameAtAnyCoreCount(t *testing.T) {
	ds := generate(t, gen.EmmyConfig(0.02, 42))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first *core.Report
	for _, procs := range []int{1, 2, 8, 8} {
		runtime.GOMAXPROCS(procs)
		r, err := core.AnalyzeAll(ds)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
		} else if !reflect.DeepEqual(r, first) {
			t.Errorf("GOMAXPROCS=%d: report differs from the single-core run", procs)
		}
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("hash pinned on amd64, this is %s", runtime.GOARCH)
	}
	var b bytes.Buffer
	if err := report.RenderReport(&b, first); err != nil {
		t.Fatal(err)
	}
	const want = "7637be051e452d89ab3e20f1b73d1af425e3f04e81d501ab4dc9445148513931"
	if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != want {
		t.Errorf("rendered Emmy report (scale 0.02, seed 42) hashes to %s, want %s", got, want)
	}
}

// BenchmarkAnalyzeAll is one Analyze of Emmy at a tenth of the study, the
// dataset of the analyze-offline workload. Run it at -cpu 1,2: the nine
// steps after AnalyzeSystem run at once, so -2 should read well below -1.
func BenchmarkAnalyzeAll(b *testing.B) {
	ds := generate(b, gen.EmmyConfig(0.1, 42))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyzeAll(ds); err != nil {
			b.Fatal(err)
		}
	}
}
