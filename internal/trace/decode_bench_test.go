package trace_test

import (
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkTraceDecode measures the chunked file-trace decoder: one
// record decoded per iteration, reporting allocations (0 allocs/op per
// record). No tagebench workload reads trace files, so this is the only
// measurement of the file path.
func BenchmarkTraceDecode(b *testing.B) {
	tr, err := workload.ByName("SERV-1")
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.tbt"
	if err := trace.WriteFile(path, trace.Limit(tr, 200_000)); err != nil {
		b.Fatal(err)
	}
	ft, err := trace.OpenFile(path)
	if err != nil {
		b.Fatal(err)
	}
	r := ft.Open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Next(); err != nil {
			r = ft.Open()
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
