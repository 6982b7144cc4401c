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
// optional parameters — and built with New:
//
//	est, err := repro.New("tage-64K", repro.WithMode(repro.ModeProbabilistic))
//	// equivalently: repro.New("tage-64K?mode=probabilistic")
//	for each branch {
//	    pred, class, level := est.Predict(pc)
//	    ...
//	    est.Update(pc, taken)
//	}
//
// Level is High, Medium or Low with the paper's headline behavior: the
// high-confidence class mispredicts below ~1%, medium ~5-10%, low ~30%.
// Every registered predictor family builds the same way — "gshare-64K",
// "perceptron", "ogehl", "jrs-16K?enhanced=true", "ltage-64K", ... (see
// Backends for the registry) — and runs through the same drivers:
//
//	res, err := repro.RunSpec("gshare-64K", tr, 0)
//	sr, err := repro.RunSuiteSpec("perceptron", repro.CBP1(), 0)
//
// See the examples/ directory for runnable programs and cmd/reprotables
// for regenerating every table and figure of the paper.
//
// # Config+Options as spec builders
//
// A spec is the one construction path. The typed Config+Options
// constructors remain as builders over it and stay bit-identical:
//
//	NewEstimator(Medium64K(), Options{})                      → New("tage-64K")
//	NewEstimator(Small16K(), Options{Mode: ModeProbabilistic}) → New("tage-16K?mode=probabilistic")
//	NewEstimator(Large256K(), Options{Mode: ModeAdaptive,
//	    TargetMKP: 4})                                         → New("tage-256K?mkp=4&mode=adaptive")
//	NewEstimator(cfg, Options{BimWindow: -1})                  → New("tage-64K?window=-1")
//	NewPredictor(cfg) (raw TAGE, no confidence)                → unchanged
//
// Options map to spec parameters: Mode→mode, DenomLog→denomlog,
// BimWindow→window, TargetMKP→mkp, AdaptiveWindow→awindow; Config
// structural fields to name, bl, tl, tag, hist, ctr, u, path, urp, seed
// and noalt (variant "custom" spells out a full configuration).
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
// spec ("gshare-64K" next to TAGE next to "perceptron" on one server),
// the spec is the only predictor field on the wire, and /metrics
// reports per-backend counters.
//
// cmd/tageload is the matching load generator (throughput, tail latency,
// per-level breakdown over the workload suites); the server exposes
// per-level hit/misprediction counters on /metrics.
package repro

import (
	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes a TAGE predictor instance (see tage.Config).
type Config = tage.Config

// Observation is the per-prediction component observation the storage-free
// estimator grades (see tage.Observation).
type Observation = tage.Observation

// Predictor is the TAGE predictor (see tage.Predictor).
type Predictor = tage.Predictor

// Estimator bundles a TAGE predictor with the paper's confidence
// classifier (see core.Estimator).
type Estimator = core.Estimator

// Options configures an Estimator (see core.Options).
type Options = core.Options

// Class is one of the paper's seven prediction classes.
type Class = core.Class

// Level is one of the three aggregate confidence levels.
type Level = core.Level

// AutomatonMode selects the tagged-counter update automaton.
type AutomatonMode = core.AutomatonMode

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

// Automaton modes.
const (
	// ModeStandard runs the unmodified TAGE automaton (§5).
	ModeStandard = core.ModeStandard
	// ModeProbabilistic installs the §6 modified automaton (probability
	// 1/128 by default), making saturated counters high confidence.
	ModeProbabilistic = core.ModeProbabilistic
	// ModeAdaptive adds the §6.2 run-time probability controller.
	ModeAdaptive = core.ModeAdaptive
)

// Small16K returns the paper's 16 Kbit configuration (1+4 tables,
// histories 3..80).
func Small16K() Config { return tage.Small16K() }

// Medium64K returns the paper's 64 Kbit configuration (1+7 tables,
// histories 5..130).
func Medium64K() Config { return tage.Medium64K() }

// Large256K returns the paper's 256 Kbit configuration (1+8 tables,
// histories 5..300).
func Large256K() Config { return tage.Large256K() }

// StandardConfigs returns the three paper configurations in size order.
func StandardConfigs() []Config { return tage.StandardConfigs() }

// ConfigByName resolves "16K", "64K" or "256K".
func ConfigByName(name string) (Config, error) { return tage.ConfigByName(name) }

// NewEstimator builds a predictor plus storage-free confidence
// estimator from typed fields; New with the equivalent "tage-..." spec
// builds the identical estimator.
func NewEstimator(cfg Config, opts Options) *Estimator {
	return core.NewEstimator(cfg, opts)
}

// NewPredictor builds a bare TAGE predictor with the standard automaton
// (use NewEstimator for confidence estimation).
func NewPredictor(cfg Config) *Predictor { return tage.New(cfg) }

// CBP1 returns the 20-trace synthetic stand-in for the CBP-1 trace set.
func CBP1() []Trace { return workload.CBP1() }

// CBP2 returns the 20-trace synthetic stand-in for the CBP-2 trace set.
func CBP2() []Trace { return workload.CBP2() }

// Suite returns a suite by name ("cbp1" or "cbp2").
func Suite(name string) ([]Trace, error) { return workload.Suite(name) }

// TraceByName returns one of the 40 named traces.
func TraceByName(name string) (Trace, error) { return workload.ByName(name) }

// Run simulates a backend over a trace (limit 0 = full trace),
// collecting per-class statistics. Any Backend works (a *Estimator is
// one).
func Run(b Backend, tr Trace, limit uint64) (Result, error) {
	return sim.Run(b, tr, limit)
}

// RunSuite simulates a fresh estimator per trace and aggregates: a
// typed builder for RunSuiteSpec over predictor.TAGESpec(cfg, opts).
func RunSuite(cfg Config, opts Options, traces []Trace, limit uint64) (SuiteResult, error) {
	return sim.RunSuiteSpec(predictor.TAGESpec(cfg, opts), traces, limit)
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

// RouterConfig configures a failover-aware session router over a set of
// server nodes (see serve.RouterConfig).
type RouterConfig = serve.RouterConfig

// SessionRouter places keyed sessions on a cluster of servers by
// consistent hashing and transparently recovers them from node restarts
// and failures (see serve.Router).
type SessionRouter = serve.Router

// RoutedSession is a keyed session managed by a SessionRouter; its
// Replay survives node crashes, restarts and failovers with tallies
// bit-identical to an uninterrupted run (see serve.RouterSession).
type RoutedSession = serve.RouterSession

// RouterNodeStats is the per-node roll-up of sessions placed, retries
// and failovers (see serve.NodeStats).
type RouterNodeStats = serve.NodeStats

// NewSessionRouter builds a failover-aware session router.
func NewSessionRouter(cfg RouterConfig) (*SessionRouter, error) {
	return serve.NewRouter(cfg)
}
