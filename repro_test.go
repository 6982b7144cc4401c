package repro

import (
	"context"
	"net"
	"testing"
)

func TestFacadeQuickstartPath(t *testing.T) {
	est, err := New("tage-16K?mode=probabilistic")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceByName("FP-1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(est, tr, 20000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Branches != 20000 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if res.Total.Preds != res.Branches {
		t.Fatal("every branch must be predicted")
	}
}

// TestFacadeConfigs pins the storage budgets of the three paper
// configurations as the TAGE spec variants build them.
func TestFacadeConfigs(t *testing.T) {
	for spec, bits := range map[string]int{"tage-16K": 16384, "tage-64K": 65536, "tage-256K": 262144} {
		b, err := New(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := b.(*Estimator).Predictor().Config().StorageBits(); got != bits {
			t.Errorf("%s: %d storage bits, want %d", spec, got, bits)
		}
	}
	if _, err := New("tage-32K"); err == nil {
		t.Fatal("unknown TAGE variant must error")
	}
}

func TestFacadeSuites(t *testing.T) {
	for _, name := range []string{"cbp1", "cbp2"} {
		traces, err := Suite(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(traces) != 20 {
			t.Fatalf("%s: %d traces, want 20", name, len(traces))
		}
	}
	if _, err := TraceByName("no-such-trace"); err == nil {
		t.Fatal("unknown trace must error")
	}
}

func TestFacadeEnumerations(t *testing.T) {
	if len(Classes()) != int(NumClasses) || len(Levels()) != int(NumLevels) {
		t.Fatal("enumerations incomplete")
	}
	if Stag.Level() != High || Wtag.Level() != Low || NStag.Level() != Medium {
		t.Fatal("level mapping wrong through facade")
	}
}

func TestFacadeRunSuite(t *testing.T) {
	cbp1, err := Suite("cbp1")
	if err != nil {
		t.Fatal(err)
	}
	sr, err := RunSuiteSpec("tage-16K", cbp1[:2], 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.PerTrace) != 2 || sr.Aggregate.Branches != 10000 {
		t.Fatalf("suite run shape: %d traces, %d branches", len(sr.PerTrace), sr.Aggregate.Branches)
	}
}

// TestFacadePredictorDirect reaches the raw TAGE predictor under a
// spec-built estimator.
func TestFacadePredictorDirect(t *testing.T) {
	b, err := New("tage-16K")
	if err != nil {
		t.Fatal(err)
	}
	p := b.(*Estimator).Predictor()
	obs := p.Predict(0x400100)
	if obs.PC != 0x400100 {
		t.Fatal("observation PC mismatch")
	}
	p.Update(0x400100, true)
}

// TestFacadeServing drives the serving facade end to end — the tageload
// replay path through a live server — and pins the online/offline
// equivalence at the facade level: the served per-level counts equal
// Run's for the same (spec, trace, limit), bit for bit.
func TestFacadeServing(t *testing.T) {
	srv := NewServer(ServeConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Shutdown(context.Background()); err != nil {
			t.Error(err)
		}
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	c, err := DialServer(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const spec = "tage-64K?mode=probabilistic"
	sess, err := c.OpenSession(ServeOpenRequest{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TraceByName("300.twolf")
	if err != nil {
		t.Fatal(err)
	}
	const limit = 30_000
	online, err := sess.Replay(tr, limit, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := RunSpec(spec, tr, limit)
	if err != nil {
		t.Fatal(err)
	}
	if online != offline {
		t.Fatalf("online result != offline result\nonline:  %+v\noffline: %+v", online, offline)
	}
	for _, l := range Levels() {
		if online.Level(l) != offline.Level(l) {
			t.Fatalf("level %v counts differ: %v != %v", l, online.Level(l), offline.Level(l))
		}
	}
}
