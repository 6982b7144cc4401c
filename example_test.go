package repro_test

import (
	"context"
	"fmt"
	"log"
	"net"

	"repro"
	"repro/internal/metrics"
)

// The three paper configurations, the TAGE spec variants, have exact
// storage budgets.
func ExampleNew_configurations() {
	for _, spec := range []string{"tage-16K", "tage-64K", "tage-256K"} {
		b, err := repro.New(spec)
		if err != nil {
			log.Fatal(err)
		}
		cfg := b.(*repro.Estimator).Predictor().Config()
		fmt.Printf("%s: 1+%d tables, history %d..%d, %d bits\n",
			cfg.Name, cfg.NumTables(),
			cfg.HistLengths[0], cfg.HistLengths[len(cfg.HistLengths)-1],
			cfg.StorageBits())
	}
	// Output:
	// 16Kbits: 1+4 tables, history 3..80, 16384 bits
	// 64Kbits: 1+7 tables, history 5..130, 65536 bits
	// 256Kbits: 1+8 tables, history 5..300, 262144 bits
}

// The seven observable classes aggregate into the paper's three levels.
func ExampleClass_Level() {
	for _, c := range repro.Classes() {
		fmt.Printf("%s -> %s\n", c, c.Level())
	}
	// Output:
	// low-conf-bim -> low
	// medium-conf-bim -> medium
	// high-conf-bim -> high
	// Wtag -> low
	// NWtag -> low
	// NStag -> medium
	// Stag -> high
}

// Predicting a branch returns the direction plus its confidence grade.
// New builds any registered backend from a spec string.
func ExampleNew() {
	est, err := repro.New("tage-16K?mode=probabilistic")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(est.Label())
	bm, err := repro.New("bimodal-64K")
	if err != nil {
		log.Fatal(err)
	}
	pred, _, level := bm.Predict(0x400100)
	fmt.Printf("%s cold: pred=%v level=%v\n", bm.Label(), pred, level)
	// Output:
	// 16Kbits
	// bimodal-64K cold: pred=false level=low
}

func ExampleEstimator() {
	est, err := repro.New("tage-16K?mode=probabilistic")
	if err != nil {
		log.Fatal(err)
	}
	pc := uint64(0x400100)
	// A cold predictor grades its bimodal guess as low confidence (weak
	// counter).
	pred, class, level := est.Predict(pc)
	fmt.Printf("cold: pred=%v class=%v level=%v\n", pred, class, level)
	est.Update(pc, false)
	// After training, the same branch becomes high confidence.
	for i := 0; i < 10; i++ {
		est.Predict(pc)
		est.Update(pc, false)
	}
	_, class, level = est.Predict(pc)
	est.Update(pc, false)
	fmt.Printf("trained: class=%v level=%v\n", class, level)
	// Output:
	// cold: pred=false class=low-conf-bim level=low
	// trained: class=high-conf-bim level=high
}

// The online serving mode: an in-process server, a wire-protocol
// session, and server-side tallies that match an offline repro.Run bit
// for bit. Everything is deterministic, down to the served counts.
func ExampleServer() {
	srv := repro.NewServer(repro.ServeConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	c, err := repro.DialServer(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	sess, err := c.OpenSession(repro.ServeOpenRequest{Spec: "tage-16K?mode=probabilistic"})
	if err != nil {
		log.Fatal(err)
	}
	tr, err := repro.TraceByName("FP-1")
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Replay(tr, 20_000, 1000, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %d branches of %s on %s\n", res.Branches, res.Trace, res.Config)
	for _, l := range repro.Levels() {
		cnt := res.Level(l)
		fmt.Printf("%-6s %4.1f%% of predictions, %5.1f MKP\n",
			l, 100*metrics.Pcov(cnt, res.Total), cnt.MKP())
	}
	// Output:
	// served 20000 branches of FP-1 on 16Kbits
	// low     3.9% of predictions, 243.9 MKP
	// medium 30.8% of predictions,  23.0 MKP
	// high   65.3% of predictions,   3.7 MKP
}

// Suites provide the 40 named synthetic traces.
func ExampleSuite() {
	cbp1, _ := repro.Suite("cbp1")
	cbp2, _ := repro.Suite("cbp2")
	fmt.Printf("cbp1: %d traces, first %s\n", len(cbp1), cbp1[0].Name())
	fmt.Printf("cbp2: %d traces, last %s\n", len(cbp2), cbp2[len(cbp2)-1].Name())
	// Output:
	// cbp1: 20 traces, first FP-1
	// cbp2: 20 traces, last 300.twolf
}
