// Package repro is a from-scratch Go reproduction of André Seznec's
// "Storage Free Confidence Estimation for the TAGE branch predictor"
// (INRIA RR-7371, 2010 / HPCA 2011).
//
// The package is a facade over the implementation packages in internal/:
// the backend-agnostic predictor layer (internal/predictor), the TAGE
// predictor (internal/tage), the storage-free confidence estimator
// (internal/core), the synthetic CBP-1/CBP-2 workload suites
// (internal/workload), the simulation drivers (internal/sim) and the
// paper's experiments (internal/experiments, cmd/reprotables).
//
// # Quickstart
//
// A predictor is named by a backend spec — family, optional variant,
// optional parameters — and built with New, the one constructor:
//
//	est, err := repro.New("tage-64K?mode=probabilistic")
//	for each branch {
//	    pred, class, level := est.Predict(pc)
//	    ...
//	    est.Update(pc, taken)
//	}
//
// Level is High, Medium or Low with the paper's headline behavior: the
// high-confidence class mispredicts below ~1%, medium ~5-10%, low ~30%.
// Every registered predictor family builds the same way — "bimodal-64K",
// "perceptron", "ogehl", "jrs-16K?enhanced=true", "ltage-64K", ... (see
// Backends for the registry) — and runs through the same drivers:
//
//	res, err := repro.RunSpec("bimodal-64K", tr, 0)
//	cbp1, err := repro.Suite("cbp1")
//	sr, err := repro.RunSuiteSpec("perceptron", cbp1, 0)
//
// TAGE specs take the paper's configurations as variants (16K, 64K,
// 256K) and the estimator's settings as parameters: mode, denomlog,
// window, mkp and awindow, plus the structural fields name, bl, tl,
// tag, hist, ctr, u, path, urp, seed and noalt (variant "custom" spells
// out a full configuration). A TAGE backend is an *Estimator; assert to
// it for the paper-specific accessors such as the §6.2 controller:
//
//	b, err := repro.New("tage-16K?mode=adaptive")
//	ctl := b.(*repro.Estimator).Controller()
//
// See the examples/ directory for runnable programs and cmd/reprotables
// for regenerating every table and figure of the paper.
//
// # Serving mode
//
// The estimator is also available as an online service (internal/serve,
// cmd/tageserved): a server hosts many concurrent predictor sessions
// behind a compact binary wire protocol, and clients stream branch
// batches in and get (prediction, class, level) grades back live —
// bit-identical to an offline Run over the same stream.
//
//	srv := repro.NewServer(repro.ServeConfig{Addr: ":7421"})
//	go srv.ListenAndServe()
//	...
//	c, _ := repro.DialServer("localhost:7421")
//	sess, _ := c.OpenSession(repro.ServeOpenRequest{Spec: "tage-64K?mode=probabilistic"})
//	grades, _ := sess.Predict(batch) // []Grade: Pred, Class, Level
//	res, _ := sess.Close()           // per-class tallies == offline Run
//
// Sessions are heterogeneous: each open request names its backend by
// spec ("bimodal-64K" next to TAGE next to "perceptron" on one server),
// the spec is the only predictor field on the wire, and /metrics
// reports per-backend counters.
//
// cmd/tageload is the matching load generator (throughput, tail latency,
// per-level breakdown over the workload suites); the server exposes
// per-level hit/misprediction counters on /metrics.
package repro

import (
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Estimator bundles a TAGE predictor with the paper's confidence
// classifier (see core.Estimator): the Backend New builds for every
// "tage-..." spec.
type Estimator = core.Estimator

// Class is one of the paper's seven prediction classes.
type Class = core.Class

// Level is one of the three aggregate confidence levels.
type Level = core.Level

// Branch is one dynamic conditional branch of a trace.
type Branch = trace.Branch

// Trace is a named, replayable branch trace.
type Trace = trace.Trace

// Result carries per-class simulation statistics (see sim.Result).
type Result = sim.Result

// SuiteResult bundles per-trace results with their aggregate.
type SuiteResult = sim.SuiteResult

// The seven prediction classes (§5 of the paper).
const (
	LowConfBim    = core.LowConfBim
	MediumConfBim = core.MediumConfBim
	HighConfBim   = core.HighConfBim
	Wtag          = core.Wtag
	NWtag         = core.NWtag
	NStag         = core.NStag
	Stag          = core.Stag
	NumClasses    = core.NumClasses
)

// The three confidence levels (§6.1).
const (
	Low       = core.Low
	Medium    = core.Medium
	High      = core.High
	NumLevels = core.NumLevels
)

// Suite returns a synthetic suite by name: "cbp1" or "cbp2" (20 traces
// each, the stand-ins for the CBP-1 and CBP-2 trace sets) or "all".
func Suite(name string) ([]Trace, error) { return workload.Suite(name) }

// TraceByName returns one of the 40 named traces.
func TraceByName(name string) (Trace, error) { return workload.ByName(name) }

// Run simulates a backend over a trace (limit 0 = full trace),
// collecting per-class statistics. Any Backend works (a *Estimator is
// one).
func Run(b Backend, tr Trace, limit uint64) (Result, error) {
	return sim.Run(b, tr, limit)
}

// Classes lists the seven classes in display order.
func Classes() []Class { return core.Classes() }

// Levels lists the three levels in rising-confidence order.
func Levels() []Level { return core.Levels() }

// ServeConfig configures an online prediction server (see serve.Config).
type ServeConfig = serve.Config

// ServeEngineConfig sizes the server's session engine: registry shards,
// max sessions, default predictor (see serve.EngineConfig).
type ServeEngineConfig = serve.EngineConfig

// Server is the online prediction server (see serve.Server).
type Server = serve.Server

// ServeClient speaks the serving wire protocol (see serve.Client).
type ServeClient = serve.Client

// ServeSession is one open session on a server (see serve.ClientSession).
type ServeSession = serve.ClientSession

// Grade is one served prediction: direction plus confidence class and
// level (see serve.Grade).
type Grade = serve.Grade

// NewServer builds an online prediction server.
func NewServer(cfg ServeConfig) *Server { return serve.NewServer(cfg) }

// DialServer connects a client to a server's wire-protocol address.
func DialServer(addr string) (*ServeClient, error) { return serve.Dial(addr) }

// CheckpointStore persists keyed serving sessions as atomic per-session
// checkpoint files; attach one through ServeConfig.StateDir to make a
// server's keyed sessions survive restarts and crashes (see
// serve.CheckpointStore).
type CheckpointStore = serve.CheckpointStore

// OpenCheckpointStore opens (creating if needed) a checkpoint directory.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	return serve.OpenCheckpointStore(dir)
}

// ServeOpenRequest names the backend (and optional durable key) a
// session open carries (see serve.OpenRequest).
type ServeOpenRequest = serve.OpenRequest
