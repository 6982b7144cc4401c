package faultnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
)

// payload is a recognizable byte stream, so a corrupted or reordered
// delivery cannot pass for the original.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31 + 7)
	}
	return p
}

// tally copies the counters out of a Stats for comparison.
func tally(s *Stats) [7]uint64 {
	return [7]uint64{
		s.Conns.Load(), s.Corrupted.Load(), s.Drops.Load(), s.Resets.Load(),
		s.Stalls.Load(), s.ShortReads.Load(), s.ChunkedWrites.Load(),
	}
}

// exchange sends a 4 KiB stream in 64-byte writes over net.Pipe with
// one end wrapped under (cfg, id) — the reading end, or the writing end
// when wrapWriter — and returns what the reader saw, one entry per Read
// (the data, or the error that ended the stream), plus the fault tally.
func exchange(t *testing.T, cfg Config, id uint64, wrapWriter bool) ([]string, [7]uint64) {
	t.Helper()
	var stats Stats
	var r, w net.Conn
	r, w = net.Pipe()
	if wrapWriter {
		w = Wrap(w, cfg, id, &stats)
	} else {
		r = Wrap(r, cfg, id, &stats)
	}
	go func() {
		p := payload(4096)
		for off := 0; off < len(p); off += 64 {
			if _, err := w.Write(p[off : off+64]); err != nil {
				break
			}
		}
		w.Close()
	}()
	var ops []string
	buf := make([]byte, 64)
	for {
		n, err := r.Read(buf)
		if n > 0 {
			ops = append(ops, string(buf[:n]))
		}
		if err != nil {
			if err != io.EOF {
				ops = append(ops, "error")
			}
			break
		}
	}
	r.Close()
	return ops, tally(&stats)
}

// hostile is a fault schedule dense enough that a 4 KiB exchange sees
// fragmentation, corruption and (usually) an early drop or reset.
var hostile = Config{
	Seed:        0x5eed,
	CorruptRate: 0.1,
	DropRate:    0.005,
	ResetRate:   0.002,
	ShortReads:  true,
	ChunkWrites: true,
}

// TestZeroConfigTransparent checks that a zero Config delivers the
// stream byte-for-byte and injects nothing: the tally counts the two
// wrapped connections and no fault.
func TestZeroConfigTransparent(t *testing.T) {
	var stats Stats
	a, b := net.Pipe()
	r := Wrap(a, Config{}, 0, &stats)
	w := Wrap(b, Config{}, 1, &stats)
	want := payload(10_000)
	go func() {
		for off := 0; off < len(want); off += 3000 {
			w.Write(want[off:min(off+3000, len(want))])
		}
		w.Close()
	}()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("zero Config altered the stream: %d bytes delivered, want %d", len(got), len(want))
	}
	if got, want := tally(&stats), [7]uint64{2}; got != want {
		t.Fatalf("zero Config tally %v (%s), want %v", got, &stats, want)
	}
}

// TestSameSeedAndIDReplay checks seed-replayability on both ends: two
// connections wrapped with the same (Seed, id) inject the same faults
// at the same operations and tally the same Stats.
func TestSameSeedAndIDReplay(t *testing.T) {
	for _, wrapWriter := range []bool{false, true} {
		name := fmt.Sprintf("wrapWriter=%v", wrapWriter)
		ops1, st1 := exchange(t, hostile, 3, wrapWriter)
		ops2, st2 := exchange(t, hostile, 3, wrapWriter)
		if st1 != st2 {
			t.Errorf("%s: tallies differ: %v vs %v", name, st1, st2)
		}
		if fmt.Sprint(ops1) != fmt.Sprint(ops2) {
			t.Errorf("%s: delivered operation sequences differ (%d vs %d operations)", name, len(ops1), len(ops2))
		}
		if st1[1]+st1[2]+st1[3] == 0 {
			t.Errorf("%s: hostile schedule injected no corruption, drop or reset: %v", name, st1)
		}
	}
}

// TestDistinctIDsDecorrelate checks that connection ordinals key
// independent fault streams under one seed.
func TestDistinctIDsDecorrelate(t *testing.T) {
	for _, wrapWriter := range []bool{false, true} {
		ops1, _ := exchange(t, hostile, 3, wrapWriter)
		ops2, _ := exchange(t, hostile, 4, wrapWriter)
		if fmt.Sprint(ops1) == fmt.Sprint(ops2) {
			t.Errorf("wrapWriter=%v: ids 3 and 4 produced identical fault sequences", wrapWriter)
		}
	}
}
