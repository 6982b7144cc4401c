package serve

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkCheckpoint measures the durability tax of the serve layer at
// 16K and at 64K, the served configuration: "encode" is the cost of
// serializing a warmed keyed session into its versioned snapshot blob,
// appended into a reused buffer as the SnapGet frame and the checkpoint
// pass do (0 allocs), and "write" is a full forced checkpoint pass —
// snapshot under the session lock plus the atomic temp+rename file
// write (what the background checkpoint loop pays per dirty session per
// interval). tagebench's serve-durable workload prices checkpoints only
// inside a whole serving run; this benchmark isolates the per-pass cost.
func BenchmarkCheckpoint(b *testing.B) {
	tr, err := workload.ByName("INT-1")
	if err != nil {
		b.Fatal(err)
	}
	branches, err := trace.Collect(trace.Limit(tr, 50_000))
	if err != nil {
		b.Fatal(err)
	}
	newWarmEngine := func(b *testing.B, config string) (*Engine, *Session) {
		eng := NewEngine(EngineConfig{})
		cs, err := OpenCheckpointStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.AttachStore(cs, 0); err != nil {
			b.Fatal(err)
		}
		sess, err := eng.Open(OpenRequest{
			Config:  config,
			Options: core.Options{Mode: core.ModeProbabilistic},
			Key:     "bench/checkpoint",
		}, 0)
		if err != nil {
			b.Fatal(err)
		}
		grades := make([]byte, 0, 1024)
		for off := 0; off < len(branches); off += 1024 {
			end := min(off+1024, len(branches))
			if grades, _ = sess.Serve(branches[off:end], grades[:0], 0); grades == nil {
				b.Fatal("session retired during warmup")
			}
		}
		return eng, sess
	}
	for _, config := range []string{"16K", "64K"} {
		b.Run("encode/"+config, func(b *testing.B) {
			_, sess := newWarmEngine(b, config)
			blob, err := sess.AppendSnapshot(nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blob, err = sess.AppendSnapshot(blob[:0]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "bytes/snapshot")
		})
		b.Run("write/"+config, func(b *testing.B) {
			eng, _ := newWarmEngine(b, config)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := eng.CheckpointDirty(int64(i), true); n != 1 {
					b.Fatalf("forced checkpoint pass wrote %d sessions, want 1", n)
				}
			}
		})
	}
}
