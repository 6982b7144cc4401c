package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ladderTraces are the traces every rung replays: two per CBP-1 family
// and four CBP-2 programs, so the ladder sees both loop-heavy and
// irregular branch streams.
var ladderTraces = []string{"INT-1", "FP-1", "MM-1", "SERV-1", "164.gzip", "176.gcc", "181.mcf", "300.twolf"}

// ladderReps is how often every rung runs; rungs are interleaved across
// repetitions and the median is kept.
const ladderReps = 5

// ladderConfig is the predictor configuration the serving rungs use.
const ladderConfig = "64K"

// rungResult is one rung's cost per branch across its repetitions.
type rungResult struct {
	Name             string
	Median, Min, Max float64 // ns per branch
	Reps             int
}

// ladderResult is what the ladder measured.
type ladderResult struct {
	metrics   map[string]float64
	rungs     []rungResult
	attempted uint64
}

// ladder times each layer from outside: every rung replays the same
// preloaded branches and adds exactly one public call to the rung below,
// so a layer's cost per branch is the difference of two rungs. Per-batch
// serving calls are timed one call at a time with spans.
type ladder struct {
	c        *config
	g        *goldens
	tr       *tracer
	mems     []*trace.Mem
	branches int
	order    []string
	samples  map[string][]float64 // ns per branch, per repetition
	speedups []float64
	client   *serve.Client
	ops      uint64
}

// ladderSink keeps the base rung's loop from being optimised away.
var ladderSink uint64

func runLadder(c *config, g *goldens, tr *tracer) (res ladderResult, err error) {
	l := &ladder{c: c, g: g, tr: tr, samples: make(map[string][]float64)}
	server, err := startServer(serve.Config{})
	if err != nil {
		return ladderResult{}, err
	}
	defer func() { err = errors.Join(err, server.stop()) }()
	if l.client, err = server.dial(c.seed); err != nil {
		return ladderResult{}, err
	}
	defer l.client.Close()
	if err := l.climb(); err != nil {
		return ladderResult{attempted: l.ops}, err
	}
	return l.result(), nil
}

// climb runs every rung ladderReps times, interleaved.
func (l *ladder) climb() error {
	for rep := 0; rep < ladderReps; rep++ {
		if err := l.generate(); err != nil {
			return err
		}
		for _, cfg := range ladderConfigs {
			if err := l.predictor(cfg); err != nil {
				return err
			}
		}
		for _, b := range ladderBatches {
			if err := l.serving(b); err != nil {
				return err
			}
		}
		if err := l.parallel(); err != nil {
			return err
		}
	}
	return nil
}

// add records one repetition of a rung.
func (l *ladder) add(rung string, d time.Duration) {
	if _, ok := l.samples[rung]; !ok {
		l.order = append(l.order, rung)
	}
	l.samples[rung] = append(l.samples[rung], float64(d.Nanoseconds())/float64(l.branches))
}

func (l *ladder) med(rung string) float64 { return median(l.samples[rung]) }

// generate times the synthetic trace source: the workload programs'
// readers producing the ladder's branches.
func (l *ladder) generate() error {
	var mems []*trace.Mem
	n := 0
	runtime.GC()
	start := time.Now()
	for _, name := range ladderTraces {
		tr, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs, err := trace.Collect(trace.Limit(tr, l.c.limit))
		if err != nil {
			return err
		}
		mems = append(mems, &trace.Mem{TraceName: name, Records: recs})
		n += len(recs)
	}
	d := time.Since(start)
	l.mems, l.branches = mems, n
	l.add("workload.generate", d)
	return nil
}

// predictor runs the offline rungs for one configuration: a bare loop
// over the branches, then raw TAGE Predict/Update, then the storage-free
// estimator around it, then sim.Run with its reader and tally. Predictors
// are built before each rung's clock starts; their tables start cold.
func (l *ladder) predictor(cfgName string) error {
	cfg, err := tage.ConfigByName(cfgName)
	if err != nil {
		return err
	}
	fresh := func() []*core.Estimator {
		out := make([]*core.Estimator, len(l.mems))
		for i := range out {
			out[i] = core.NewEstimator(cfg, servedOpts)
		}
		return out
	}

	runtime.GC()
	start := time.Now()
	var sink uint64
	for _, m := range l.mems {
		for _, b := range m.Records {
			sink += b.PC
			if b.Taken {
				sink++
			}
		}
	}
	l.add("base."+cfgName, time.Since(start))
	ladderSink += sink

	// The raw predictor gets the estimator's own automaton (same seeded
	// randomness), so its predictions must match the estimator's.
	preds := make([]*tage.Predictor, len(l.mems))
	for i, e := range fresh() {
		preds[i] = tage.NewWithAutomaton(cfg, e.Predictor().Automaton())
	}
	var missTage uint64
	runtime.GC()
	start = time.Now()
	for i, m := range l.mems {
		p := preds[i]
		for _, b := range m.Records {
			if p.Predict(b.PC).Pred != b.Taken {
				missTage++
			}
			p.Update(b.PC, b.Taken)
		}
	}
	l.add("tage."+cfgName, time.Since(start))

	ests := fresh()
	var missEst uint64
	runtime.GC()
	start = time.Now()
	for i, m := range l.mems {
		e := ests[i]
		for _, b := range m.Records {
			if pred, _, _ := e.Predict(b.PC); pred != b.Taken {
				missEst++
			}
			e.Update(b.PC, b.Taken)
		}
	}
	l.add("estimator."+cfgName, time.Since(start))
	if missEst != missTage {
		return fmt.Errorf("%s: estimator mispredicted %d times, raw TAGE %d", cfgName, missEst, missTage)
	}

	ests = fresh()
	results := make([]sim.Result, len(l.mems))
	runtime.GC()
	start = time.Now()
	for i, m := range l.mems {
		if results[i], err = sim.Run(ests[i], m, 0); err != nil {
			return err
		}
	}
	l.add("sim."+cfgName, time.Since(start))
	var missSim uint64
	for _, r := range results {
		l.ops++
		if err := l.g.check(specName(cfg, servedOpts.Mode), r); err != nil {
			return err
		}
		missSim += r.Total.Misps
	}
	if missSim != missEst {
		return fmt.Errorf("%s: sim.Run mispredicted %d times, estimator %d", cfgName, missSim, missEst)
	}
	return nil
}

// serving runs the per-batch serving rungs at one batch size: the
// engine-side session step, each codec half, and the loopback round trip.
func (l *ladder) serving(batchSize int) error {
	label := batchLabel(batchSize)
	name := func(layer string) string { return "serve." + layer + "." + label }
	sessName, encName, sdecName, sencName, cdecName, rttName :=
		name("session"), name("client_encode"), name("server_decode"), name("server_encode"), name("client_decode"), name("rtt")
	cfg, err := tage.ConfigByName(ladderConfig)
	if err != nil {
		return err
	}
	spec := specName(cfg, servedOpts.Mode)

	eng := serve.NewEngine(serve.EngineConfig{})
	var sess, enc, sdec, senc, cdec, rtt time.Duration
	var grades, frame, pframe, buf []byte
	var recs []trace.Branch
	var decoded []serve.Grade
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(rd, 64*1024)
	runtime.GC()
	readFrame := func(src []byte, want byte) ([]byte, error) {
		rd.Reset(src)
		br.Reset(rd)
		typ, payload, nb, err := serve.ReadFrame(br, buf)
		buf = nb
		if err == nil && typ != want {
			err = fmt.Errorf("frame type %#x, want %#x", typ, want)
		}
		return payload, err
	}
	for _, m := range l.mems {
		s, err := eng.Open(serve.OpenRequest{Config: ladderConfig, Options: servedOpts}, 0)
		if err != nil {
			return err
		}
		id := s.ID()
		for off := 0; off < len(m.Records); off += batchSize {
			batch := m.Records[off:min(off+batchSize, len(m.Records))]

			sp := l.tr.begin(sessName, 0)
			ss, ok := eng.Lookup(id)
			if !ok || !eng.AcquireBatch() {
				return fmt.Errorf("session %d not servable", id)
			}
			grades, ok = ss.Serve(batch, grades, 0)
			eng.ReleaseBatch()
			sess += sp.end()
			if !ok {
				return fmt.Errorf("session %d retired mid-trace", id)
			}

			sp = l.tr.begin(encName, 0)
			frame = serve.AppendBatch(frame[:0], id, batch)
			enc += sp.end()

			sp = l.tr.begin(sdecName, 0)
			payload, err := readFrame(frame, serve.FrameBatch)
			if err == nil {
				_, recs, err = serve.DecodeBatch(payload, recs)
			}
			sdec += sp.end()
			if err != nil || len(recs) != len(batch) {
				return fmt.Errorf("decode batch: %v (%d of %d records)", err, len(recs), len(batch))
			}

			sp = l.tr.begin(sencName, 0)
			pframe = serve.AppendPredictions(pframe[:0], id, grades)
			senc += sp.end()

			sp = l.tr.begin(cdecName, 0)
			payload, err = readFrame(pframe, serve.FramePredictions)
			if err == nil {
				_, decoded, err = serve.DecodePredictions(payload, decoded)
			}
			cdec += sp.end()
			if err != nil || len(decoded) != len(batch) {
				return fmt.Errorf("decode predictions: %v (%d of %d grades)", err, len(decoded), len(batch))
			}
		}
		res, err := eng.Close(id)
		if err != nil {
			return err
		}
		res.Trace = m.Name()
		l.ops++
		if err := l.g.check(spec, res); err != nil {
			return err
		}

		cs, err := l.client.Open(ladderConfig, servedOpts)
		if err != nil {
			return err
		}
		for off := 0; off < len(m.Records); off += batchSize {
			batch := m.Records[off:min(off+batchSize, len(m.Records))]
			sp := l.tr.begin(rttName, 0)
			_, err := cs.Predict(batch)
			rtt += sp.end()
			if err != nil {
				return err
			}
		}
		if res, err = cs.Close(); err != nil {
			return err
		}
		res.Trace = m.Name()
		l.ops++
		if err := l.g.check(spec, res); err != nil {
			return err
		}
	}
	l.add(sessName, sess)
	l.add(encName, enc)
	l.add(sdecName, sdec)
	l.add(sencName, senc)
	l.add(cdecName, cdec)
	l.add(rttName, rtt)
	return nil
}

// parallel runs the ladder traces at 64K through sim.SuiteRunner with one
// worker and with the run's worker count.
func (l *ladder) parallel() error {
	cfg, err := tage.ConfigByName(ladderConfig)
	if err != nil {
		return err
	}
	jobs := make([]sim.Job, len(l.mems))
	for i, m := range l.mems {
		jobs[i] = sim.Job{Cfg: cfg, Opts: servedOpts, Trace: m}
	}
	var took [2]time.Duration
	for i, w := range []int{1, l.c.workers} {
		runtime.GC()
		start := time.Now()
		results, err := sim.SuiteRunner{Workers: w}.RunJobs(jobs)
		took[i] = time.Since(start)
		if err != nil {
			return err
		}
		for _, r := range results {
			l.ops++
			if err := l.g.check(specName(cfg, servedOpts.Mode), r); err != nil {
				return err
			}
		}
	}
	l.speedups = append(l.speedups, took[0].Seconds()/took[1].Seconds())
	return nil
}

// result turns the rung samples into layer costs: each layer is its rung
// minus the rung below.
func (l *ladder) result() ladderResult {
	m := map[string]float64{
		"workload.generate_ns_per_branch": l.med("workload.generate"),
		"sim.tally_ns_per_branch":         l.med("sim."+ladderConfig) - l.med("estimator."+ladderConfig),
		"sim.parallel_speedup":            median(l.speedups),
	}
	// Each pair is (rung, rung below it).
	var stacked [][2]string
	for _, cfg := range ladderConfigs {
		m["tage.predict_update_ns_per_branch."+cfg] = l.med("tage."+cfg) - l.med("base."+cfg)
		m["core.estimator_ns_per_branch."+cfg] = l.med("estimator."+cfg) - l.med("tage."+cfg)
		m["sim.ladder_total_ns_per_branch."+cfg] = l.med("sim." + cfg)
		stacked = append(stacked,
			[2]string{"tage." + cfg, "base." + cfg},
			[2]string{"estimator." + cfg, "tage." + cfg},
			[2]string{"sim." + cfg, "estimator." + cfg})
	}
	for _, b := range ladderBatches {
		label := batchLabel(b)
		rung := func(layer string) float64 { return l.med("serve." + layer + "." + label) }
		inProcess := rung("session") + rung("client_encode") + rung("server_decode") + rung("server_encode") + rung("client_decode")
		m["serve.session_ns_per_branch."+label] = rung("session") - l.med("sim."+ladderConfig)
		for _, layer := range []string{"client_encode", "server_decode", "server_encode", "client_decode"} {
			m["serve."+layer+"_ns_per_branch."+label] = rung(layer)
		}
		m["serve.socket_ns_per_branch."+label] = rung("rtt") - inProcess
		m["serve.ladder_total_ns_per_branch."+label] = rung("rtt")
		stacked = append(stacked,
			[2]string{"serve.session." + label, "sim." + ladderConfig},
			[2]string{"serve.rtt." + label, "serve.session." + label})
	}
	inversions := 0
	for _, p := range stacked {
		upper := l.samples[p[0]]
		if spread := quantile(upper, 1) - quantile(upper, 0); median(upper) < l.med(p[1])-spread {
			inversions++
		}
	}
	m["bench.ladder_inversions"] = float64(inversions)

	res := ladderResult{metrics: m, attempted: l.ops}
	for _, name := range l.order {
		s := l.samples[name]
		res.rungs = append(res.rungs, rungResult{Name: name, Median: median(s), Min: quantile(s, 0), Max: quantile(s, 1), Reps: len(s)})
	}
	return res
}
