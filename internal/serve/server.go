package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address for the wire protocol
	// (ListenAndServe; Serve takes an explicit listener).
	Addr string
	// MetricsAddr is the HTTP listen address for /metrics, the
	// liveness/readiness probes (/livez, /readyz) and /debug/events;
	// empty disables the endpoint.
	MetricsAddr string
	// DebugAddr is an opt-in HTTP listen address exposing net/http/pprof
	// profiles alongside the same /metrics and /debug/events handlers;
	// empty (the default) disables it. Kept separate from MetricsAddr so
	// profiling endpoints are never reachable from the scrape network by
	// accident.
	DebugAddr string
	// Engine sizes the session engine (max sessions, default predictor,
	// in-flight batch cap).
	Engine EngineConfig
	// IdleTimeout evicts sessions with no traffic for this long; 0
	// selects DefaultIdleTimeout, negative disables eviction.
	IdleTimeout time.Duration
	// StateDir, when non-empty, makes keyed sessions durable: Serve
	// opens (creating if needed) a checkpoint store there, restores
	// every stored checkpoint on boot (logging how many), and
	// checkpoints dirty sessions periodically and on shutdown.
	StateDir string
	// CheckpointInterval paces the background checkpoint loop; 0 selects
	// DefaultCheckpointInterval, negative disables the loop (checkpoints
	// are still written at eviction and shutdown).
	CheckpointInterval time.Duration
	// FrameTimeout bounds how long a peer may dawdle mid-frame: the
	// deadline arms when a frame's first header byte arrives and clears
	// when the frame is complete, so idle connections are unaffected but
	// a stalled or trickling peer is evicted as a slow reader. 0 selects
	// DefaultFrameTimeout, negative disables.
	FrameTimeout time.Duration
}

// DefaultIdleTimeout is the idle-session eviction horizon when none is
// configured.
const DefaultIdleTimeout = 5 * time.Minute

// DefaultCheckpointInterval is the checkpoint cadence when none is
// configured.
const DefaultCheckpointInterval = 10 * time.Second

// DefaultFrameTimeout is the mid-frame slow-reader deadline when none is
// configured.
const DefaultFrameTimeout = 30 * time.Second

// writeTimeout evicts a peer that stopped draining its socket, so a
// pipelining connection cannot park a handler forever.
const writeTimeout = 30 * time.Second

// Server runs the wire protocol over TCP: one goroutine per connection,
// many sessions per server (a connection may open several, and a session
// id remains addressable from any connection until closed or evicted).
type Server struct {
	cfg Config
	eng *Engine

	// Robustness counters (atomic: bumped on connection teardown paths,
	// read by scrapes).
	slowEvicted   atomic.Uint64
	corruptFrames atomic.Uint64

	// Observability: the metric registry backing /metrics, the flight
	// recorder backing /debug/events and eviction dumps, and the
	// serve/flush latency histograms fed from the batch hot path.
	reg       *obs.Registry
	rec       *obs.FlightRecorder
	serveHist *obs.Histogram
	flushHist *obs.Histogram
	logger    *slog.Logger

	// ready gates /readyz: false until Serve has restored state and is
	// accepting, false again once a drain begins, so load balancers stop
	// routing before the listener closes.
	ready   atomic.Bool
	connSeq atomic.Uint64

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	sweepEnd chan struct{}

	httpLn   net.Listener
	httpSrv  *http.Server
	debugLn  net.Listener
	debugSrv *http.Server

	// Connection handlers and sweep loops drain on wg; the HTTP
	// endpoints live on httpWg and outlive the drain, so /readyz keeps
	// answering 503 (and /metrics keeps scraping) while connections
	// finish.
	wg     sync.WaitGroup
	httpWg sync.WaitGroup
}

// NewServer builds a server. The engine is constructed from cfg.Engine.
func NewServer(cfg Config) *Server {
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = DefaultCheckpointInterval
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = DefaultFrameTimeout
	}
	s := &Server{
		cfg:      cfg,
		eng:      NewEngine(cfg.Engine),
		conns:    make(map[net.Conn]struct{}),
		sweepEnd: make(chan struct{}),
		logger:   slog.Default(),
		rec:      obs.NewFlightRecorder(0),
	}
	s.eng.SetEvents(s.rec)
	s.reg = obs.NewRegistry()
	s.serveHist = s.reg.Histogram("tage_serve_batch_serve_seconds",
		"Predictor time per served batch (lookup through grade encoding).")
	s.flushHist = s.reg.Histogram("tage_serve_batch_flush_seconds",
		"Response flush time per coalesced write to the peer.")
	s.reg.Collect(s.collectEngine)
	obs.RegisterRuntimeMetrics(s.reg)
	return s
}

// Engine exposes the server's session engine (metrics scrapes, tests).
func (s *Server) Engine() *Engine { return s.eng }

// Registry exposes the server's metric registry so embedders can add
// their own families to the same /metrics exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Events exposes the flight recorder.
func (s *Server) Events() *obs.FlightRecorder { return s.rec }

// Ready reports whether the server is accepting and routable traffic
// should flow — the /readyz answer.
func (s *Server) Ready() bool { return s.ready.Load() }

// Addr returns the bound wire-protocol address (after Serve/ListenAndServe).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// MetricsAddr returns the bound metrics address, or nil when disabled.
func (s *Server) MetricsAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

// DebugAddr returns the bound pprof/debug address, or nil when disabled.
func (s *Server) DebugAddr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.debugLn == nil {
		return nil
	}
	return s.debugLn.Addr()
}

// ListenAndServe binds cfg.Addr and serves until Shutdown.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown. It also binds the
// metrics endpoint (when configured) and starts the idle-eviction sweep.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		ln.Close()
		return errors.New("serve: server already shut down")
	}

	if err := s.startMetrics(); err != nil {
		ln.Close()
		return err
	}
	if err := s.startDebug(); err != nil {
		ln.Close()
		return err
	}
	if s.cfg.StateDir != "" {
		cs, err := OpenCheckpointStore(s.cfg.StateDir)
		if err != nil {
			ln.Close()
			return err
		}
		restored, err := s.eng.AttachStore(cs, time.Now().UnixNano())
		if err != nil {
			ln.Close()
			return err
		}
		s.logger.Info("serve: restored checkpointed sessions",
			"state_dir", s.cfg.StateDir, "restored", restored,
			"checkpoint_interval", s.cfg.CheckpointInterval)
	}
	// Publish the listener (Addr turns non-nil) only once checkpoints are
	// restored, so whoever waits on Addr sees the restored sessions. A
	// Shutdown that ran during startup found no listener to close.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	if s.cfg.StateDir != "" && s.cfg.CheckpointInterval > 0 {
		s.mu.Lock()
		if !s.closed {
			s.wg.Add(1)
			go s.checkpointLoop()
		}
		s.mu.Unlock()
	}
	if s.cfg.IdleTimeout > 0 {
		// Registered under the mutex so a Shutdown racing this startup
		// either sees the sweeper (closed=false here, so Shutdown's
		// close of sweepEnd happens after and stops it) or already
		// marked closed (and no sweeper starts).
		s.mu.Lock()
		if !s.closed {
			s.wg.Add(1)
			go s.sweepLoop()
		}
		s.mu.Unlock()
	}

	// State restored and loops running: the server is ready for routed
	// traffic. Shutdown flips this back before the listener
	// goes away.
	s.ready.Store(true)
	defer s.ready.Store(false)

	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Shutdown stops accepting, closes every connection, and waits for the
// handlers to drain (or ctx to expire). The HTTP endpoints close last —
// after the final checkpoint — so /readyz answers 503 and /metrics
// stays scrapeable throughout the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.ready.Store(false)
	s.closed = true
	close(s.sweepEnd)
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		// Graceful drain: with every handler stopped, write a final
		// checkpoint for every live keyed session, so a SIGTERM'd server
		// restarts exactly where its clients left it.
		s.eng.CheckpointDirty(time.Now().UnixNano(), true)
		s.mu.Lock()
		if s.httpSrv != nil {
			s.httpSrv.Close()
		}
		if s.debugSrv != nil {
			s.debugSrv.Close()
		}
		s.mu.Unlock()
		s.httpWg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) checkpointLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepEnd:
			return
		case now := <-t.C:
			s.eng.CheckpointDirty(now.UnixNano(), false)
		}
	}
}

func (s *Server) sweepLoop() {
	defer s.wg.Done()
	interval := s.cfg.IdleTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.sweepEnd:
			return
		case now := <-t.C:
			s.eng.SweepIdle(now.Add(-s.cfg.IdleTimeout).UnixNano())
		}
	}
}

// baseMux builds the observability handler set shared by the metrics
// and debug listeners: health probes, the registry exposition, and the
// flight-recorder dump.
func (s *Server) baseMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/livez", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.ContentType)
		if err := s.reg.WriteText(w); err != nil {
			s.logger.Warn("serve: metrics scrape", "err", err)
		}
	})
	mux.HandleFunc("/debug/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		s.rec.WriteText(w)
	})
	return mux
}

func (s *Server) startMetrics() error {
	ln, srv, err := s.startHTTP(s.cfg.MetricsAddr, s.baseMux())
	if err == nil && ln != nil {
		s.mu.Lock()
		s.httpLn, s.httpSrv = ln, srv
		s.mu.Unlock()
	}
	return err
}

// startDebug binds the opt-in pprof listener: the full profile suite
// plus the same metrics/events handlers, on an address the operator
// chose to expose.
func (s *Server) startDebug() error {
	if s.cfg.DebugAddr == "" {
		return nil
	}
	mux := s.baseMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, srv, err := s.startHTTP(s.cfg.DebugAddr, mux)
	if err == nil && ln != nil {
		s.mu.Lock()
		s.debugLn, s.debugSrv = ln, srv
		s.mu.Unlock()
	}
	return err
}

// startHTTP binds addr and serves mux on the httpWg side of the drain
// order. Returns a nil listener when addr is empty or Shutdown already
// won the startup race.
func (s *Server) startHTTP(addr string, mux *http.ServeMux) (net.Listener, *http.Server, error) {
	if addr == "" {
		return nil, nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: mux}
	s.mu.Lock()
	if s.closed {
		// Shutdown won the race with this startup: it cannot have seen
		// the server, so close the endpoint here instead of leaking it
		// (and never wg.Add after Shutdown may already be waiting).
		s.mu.Unlock()
		ln.Close()
		return nil, nil, nil
	}
	s.httpWg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.httpWg.Done()
		srv.Serve(ln)
	}()
	return ln, srv, nil
}

// collectEngine renders the engine snapshot into the exposition:
// session gauges plus per-level, per-class and per-backend counters
// aggregated over live and retired sessions. Metric names predate the
// registry (the CI serve-smoke job and dashboards key on them), so this
// collector preserves them exactly.
//
//repro:deterministic
func (s *Server) collectEngine(tw *obs.TextWriter) {
	snap := s.eng.Snapshot()
	counter := func(name, help string, v uint64) {
		tw.Family(name, "counter", help)
		tw.Value(float64(v))
	}
	gauge := func(name, help string, v float64) {
		tw.Family(name, "gauge", help)
		tw.Value(v)
	}
	gauge("tage_serve_sessions_live", "Live sessions.", float64(snap.LiveSessions))
	counter("tage_serve_sessions_opened_total", "Sessions ever opened.", snap.OpenedSessions)
	counter("tage_serve_sessions_evicted_total", "Sessions evicted idle.", snap.EvictedSessions)
	counter("tage_serve_branches_total", "Branches served.", snap.Branches)
	counter("tage_serve_instructions_total", "Instructions covered by served branches.", snap.Instructions)
	counter("tage_serve_predictions_total", "Predictions served.", snap.Total.Preds)
	counter("tage_serve_mispredictions_total", "Mispredictions served.", snap.Total.Misps)

	tw.Family("tage_serve_level_predictions_total", "counter", "Predictions by provider level.")
	for _, l := range core.Levels() {
		tw.ValueL(float64(snap.Level(l).Preds), "level", l.String())
	}
	tw.Family("tage_serve_level_mispredictions_total", "counter", "Mispredictions by provider level.")
	for _, l := range core.Levels() {
		tw.ValueL(float64(snap.Level(l).Misps), "level", l.String())
	}
	tw.Family("tage_serve_class_predictions_total", "counter", "Predictions by confidence class.")
	for _, cl := range core.Classes() {
		tw.ValueL(float64(snap.Class[cl].Preds), "class", cl.String())
	}
	tw.Family("tage_serve_class_mispredictions_total", "counter", "Mispredictions by confidence class.")
	for _, cl := range core.Classes() {
		tw.ValueL(float64(snap.Class[cl].Misps), "class", cl.String())
	}
	if len(snap.Backends) > 0 {
		tw.Family("tage_serve_backend_sessions_opened_total", "counter", "Sessions opened by backend spec.")
		for _, bc := range snap.Backends {
			tw.ValueL(float64(bc.Opened), "backend", bc.Label)
		}
		tw.Family("tage_serve_backend_branches_total", "counter", "Branches served by backend spec.")
		for _, bc := range snap.Backends {
			tw.ValueL(float64(bc.Branches), "backend", bc.Label)
		}
		tw.Family("tage_serve_backend_predictions_total", "counter", "Predictions served by backend spec.")
		for _, bc := range snap.Backends {
			tw.ValueL(float64(bc.Total.Preds), "backend", bc.Label)
		}
		tw.Family("tage_serve_backend_mispredictions_total", "counter", "Mispredictions served by backend spec.")
		for _, bc := range snap.Backends {
			tw.ValueL(float64(bc.Total.Misps), "backend", bc.Label)
		}
	}
	counter("tage_serve_shed_total", "Batches shed by admission control.", snap.ShedBatches)
	gauge("tage_serve_inflight_batches", "Batches currently in flight.", float64(snap.InflightBatches))
	counter("tage_serve_slow_peer_evictions_total", "Connections evicted as slow readers or writers.", s.slowEvicted.Load())
	counter("tage_serve_corrupt_frames_total", "Frames rejected as corrupt: checksum mismatch or out-of-range length.", s.corruptFrames.Load())
	counter("tage_serve_checkpoints_written_total", "Checkpoints written.", snap.CheckpointsWritten)
	counter("tage_serve_checkpoint_bytes_total", "Checkpoint bytes written.", snap.CheckpointBytes)
	counter("tage_serve_checkpoint_restores_total", "Sessions restored from checkpoints.", snap.CheckpointRestores)
	counter("tage_serve_checkpoint_restore_failures_total", "Checkpoint restore failures.", snap.CheckpointRestoreFailures)
	counter("tage_serve_checkpoint_write_failures_total", "Checkpoint write failures.", snap.CheckpointWriteFailures)
	if snap.LastCheckpointUnixNano != 0 {
		//repro:order-insensitive checkpoint age is a wall-clock freshness gauge by design; it feeds dashboards and alerts, never reproduced tables
		age := float64(time.Now().UnixNano()-snap.LastCheckpointUnixNano) / 1e9
		if age < 0 {
			age = 0
		}
		gauge("tage_serve_checkpoint_last_age_seconds", "Seconds since the last checkpoint write.", age)
	}
}

// connState is the per-connection scratch reused across frames, which is
// what keeps the per-branch serving path allocation-free in steady
// state.
type connState struct {
	frame   []byte         // frame read buffer
	out     []byte         // response write buffer
	records []trace.Branch // decoded batch
	grades  []byte         // encoded responses
	holding bool           // an admission slot is held until the response ships

	// Flight-recorder context. conn is this connection's sequence
	// number; sess/key/backend remember the last served batch so an
	// eviction event carries the victim's identity; ev is the pending
	// batch event, completed with the flush duration and recorded once
	// the response ships (evPend). arrived timestamps the frame read
	// for the queue-delay component. All reused, never allocated, per
	// frame.
	conn    uint64
	sess    uint64
	key     string
	backend string
	arrived time.Time
	ev      obs.Event
	evPend  bool
}

// release frees the connection's held admission slot, if any.
func (s *Server) release(st *connState) {
	if st.holding {
		s.eng.ReleaseBatch()
		st.holding = false
	}
}

// armWrite arms the slow-writer deadline before a response write or
// flush; writeFailed classifies the resulting error (deadline → slow-peer
// eviction).
func (s *Server) armWrite(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
}

func (s *Server) writeFailed(st *connState, err error) {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		s.slowEvicted.Add(1)
		s.evictSlowPeer(st, "write stall past the write timeout")
	}
}

// evictDumpTail bounds the context attached to an eviction log line.
const evictDumpTail = 32

// evictSlowPeer records the eviction in the flight recorder and dumps
// the recorder's tail to the structured log, so the eviction arrives
// with its last-N-events context instead of a bare counter bump.
func (s *Server) evictSlowPeer(st *connState, cause string) {
	s.rec.Record(obs.Event{
		UnixNano: time.Now().UnixNano(),
		Kind:     obs.EvSlowPeerEvict,
		Conn:     st.conn,
		Session:  st.sess,
		Key:      st.key,
		Backend:  st.backend,
		Cause:    cause,
	})
	var b strings.Builder
	s.rec.WriteTail(&b, evictDumpTail)
	s.logger.Warn("serve: slow peer evicted",
		"conn", st.conn, "session", st.sess, "key", st.key, "cause", cause,
		"recent_events", b.String())
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64*1024)
	bw := bufio.NewWriterSize(conn, 64*1024)
	st := &connState{
		frame:   make([]byte, 4096),
		out:     make([]byte, 0, 4096),
		records: make([]trace.Branch, 0, 1024),
		grades:  make([]byte, 0, 1024),
		conn:    s.connSeq.Add(1),
	}
	// The slow-reader deadline arms once a frame has started (first
	// header byte read) and clears when it completes: a connection may
	// idle between frames indefinitely (the session sweeper governs
	// that), but mid-frame progress is owed within FrameTimeout.
	var armRead func()
	if s.cfg.FrameTimeout > 0 {
		armRead = func() { conn.SetReadDeadline(time.Now().Add(s.cfg.FrameTimeout)) }
	}
	for {
		typ, payload, frame, err := readFrame(br, st.frame, armRead)
		st.frame = frame
		st.arrived = time.Now()
		if armRead != nil {
			conn.SetReadDeadline(time.Time{})
		}
		if err != nil {
			// Clean EOF between frames is a client hanging up; a stalled
			// peer is evicted and counted; a corrupt frame is answered
			// with ErrCodeCorrupt (the stream is unrecoverable — nothing
			// after the mangled bytes can be trusted); any other framing
			// error is reported if the socket still accepts writes. All
			// of them drop the connection, never the sessions.
			if errors.Is(err, os.ErrDeadlineExceeded) {
				s.slowEvicted.Add(1)
				s.evictSlowPeer(st, "mid-frame read stall past FrameTimeout")
				return
			}
			if !errors.Is(err, ErrProtocol) {
				return
			}
			code := ErrCodeMalformed
			if errors.Is(err, ErrCorrupt) {
				s.corruptFrames.Add(1)
				s.rec.Record(obs.Event{
					UnixNano: time.Now().UnixNano(),
					Kind:     obs.EvCorrupt,
					Conn:     st.conn,
					Session:  st.sess,
					Key:      st.key,
					Cause:    err.Error(),
				})
				code = ErrCodeCorrupt
			}
			st.out = AppendError(st.out[:0], code, err.Error())
			s.armWrite(conn)
			bw.Write(st.out)
			bw.Flush()
			return
		}
		st.out = st.out[:0]
		fatal := s.handleFrame(st, typ, payload)
		if len(st.out) > 0 {
			s.armWrite(conn)
			if _, err := bw.Write(st.out); err != nil {
				s.release(st)
				s.writeFailed(st, err)
				return
			}
		}
		// Coalesce responses to pipelined requests: flush only when no
		// further request is already buffered.
		if br.Buffered() == 0 {
			s.armWrite(conn)
			flushStart := time.Now()
			if err := bw.Flush(); err != nil {
				s.release(st)
				s.writeFailed(st, err)
				return
			}
			flushed := time.Since(flushStart)
			s.flushHist.Observe(flushed)
			if st.evPend {
				st.ev.FlushNS = flushed.Nanoseconds()
			}
		}
		// The batch event is recorded only after its response shipped, so
		// the flight recorder shows completed batches in delivery order
		// with the flush cost included.
		if st.evPend {
			s.rec.Record(st.ev)
			st.evPend = false
		}
		// The batch's admission slot is freed only now: the response has
		// shipped (or at least left st.out), so MaxInflight bounds batches
		// in flight end to end, response delivery included.
		s.release(st)
		if fatal {
			bw.Flush()
			return
		}
	}
}

// handleFrame serves one request, appending response frames to st.out.
// It reports whether the connection must close (payload-level errors are
// answered in-band and keep the connection alive).
func (s *Server) handleFrame(st *connState, typ byte, payload []byte) (fatal bool) {
	now := time.Now().UnixNano()
	switch typ {
	case FrameOpen:
		req, err := DecodeOpen(payload)
		if err != nil {
			st.out = AppendError(st.out, ErrCodeMalformed, err.Error())
			return false
		}
		sess, err := s.eng.Open(req, now)
		if err != nil {
			st.out = appendRemoteError(st.out, err)
			return false
		}
		st.out = AppendOpened(st.out, sess.opened())
	case FrameBatch:
		id, records, err := DecodeBatch(payload, st.records)
		st.records = records[:0]
		if err != nil {
			st.out = AppendError(st.out, ErrCodeMalformed, err.Error())
			return false
		}
		sess, ok := s.eng.Lookup(id)
		if ok {
			// Admission control sits after the session lookup (an unknown
			// session is that error regardless of load) and brackets the
			// batch from serve through response delivery — handleConn
			// releases the slot once the predictions are written and
			// flushed, so a batch whose response is still draining toward
			// a slow peer keeps counting against MaxInflight. A shed batch
			// was not applied: the client retries the same bytes after
			// backing off.
			if !s.eng.AcquireBatch() {
				s.rec.Record(obs.Event{
					UnixNano: now,
					Kind:     obs.EvShed,
					Conn:     st.conn,
					Session:  id,
					Key:      sess.Key(),
					Backend:  sess.ConfigName(),
					Frame:    typ,
					Batch:    len(records),
					Cause:    "admission: MaxInflight reached",
				})
				st.out = AppendBusy(st.out, id, 0)
				return false
			}
			st.holding = true
			serveStart := time.Now()
			st.grades, ok = sess.Serve(records, st.grades, now)
			if ok {
				served := time.Since(serveStart)
				s.serveHist.Observe(served)
				st.sess, st.key, st.backend = id, sess.Key(), sess.ConfigName()
				st.ev = obs.Event{
					UnixNano: now,
					Kind:     obs.EvBatch,
					Conn:     st.conn,
					Session:  id,
					Key:      st.key,
					Backend:  st.backend,
					Frame:    typ,
					Batch:    len(records),
					QueueNS:  serveStart.Sub(st.arrived).Nanoseconds(),
					ServeNS:  served.Nanoseconds(),
				}
				st.evPend = true
			}
		}
		if !ok {
			st.out = AppendError(st.out, ErrCodeUnknownSession,
				fmt.Sprintf("unknown session %d", id))
			return false
		}
		st.out = AppendPredictions(st.out, id, st.grades)
	case FrameClose:
		id, err := DecodeClose(payload)
		if err != nil {
			st.out = AppendError(st.out, ErrCodeMalformed, err.Error())
			return false
		}
		res, err := s.eng.Close(id)
		if err != nil {
			st.out = appendRemoteError(st.out, err)
			return false
		}
		st.out = AppendStats(st.out, id, res)
	case FrameSnapGet:
		id, err := DecodeSnapGet(payload)
		if err != nil {
			st.out = AppendError(st.out, ErrCodeMalformed, err.Error())
			return false
		}
		sess, ok := s.eng.Lookup(id)
		if !ok {
			st.out = AppendError(st.out, ErrCodeUnknownSession,
				fmt.Sprintf("unknown session %d", id))
			return false
		}
		// The snapshot is encoded straight into the response frame.
		start := len(st.out)
		out, err := sess.AppendSnapshot(beginSnap(st.out, id))
		if err != nil {
			st.out = AppendError(out[:start], ErrCodeSnapshot, err.Error())
			return false
		}
		st.out = endSnap(out, start)
		// A blob the frame cannot carry answers with a clean error
		// instead of a connection-fatal oversized frame.
		if n := len(st.out) - start - 4; n > MaxFrame {
			st.out = AppendError(st.out[:start], ErrCodeSnapshot,
				fmt.Sprintf("snapshot frame of %d bytes exceeds frame limit", n))
			return false
		}
	default:
		// Unknown frame types are unrecoverable: a future peer speaking
		// a newer protocol would race our misinterpretation of its
		// stream.
		st.out = AppendError(st.out, ErrCodeMalformed,
			fmt.Sprintf("unknown frame type %#02x", typ))
		return true
	}
	return false
}

func appendRemoteError(dst []byte, err error) []byte {
	var re *RemoteError
	if errors.As(err, &re) {
		return AppendError(dst, re.Code, re.Message)
	}
	return AppendError(dst, ErrCodeMalformed, err.Error())
}
