package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/predictor"
	"repro/internal/sim"
)

// Engine hosts the session registry plus the service-wide counters. It
// is the transport-free heart of the server: the TCP layer decodes
// frames and calls Open/Lookup/Close, and tests (allocation pins, race
// tests, benchmarks) drive it directly.
type Engine struct {
	reg *registry

	// defaultSpec serves open requests that resolve to no spec: a
	// minimal client gets the operator-chosen predictor.
	defaultSpec string

	opened  atomic.Uint64
	evicted atomic.Uint64

	// Admission control: maxInflight caps concurrently-served batches
	// engine-wide (0 = unlimited, negative = admit nothing — the
	// shed-everything test configuration); inflight is the live count and
	// shed tallies rejected batches (answered with FrameBusy upstream).
	maxInflight int64
	inflight    atomic.Int64
	shed        atomic.Uint64

	// Checkpoint counters (atomic: bumped on cold paths, read by
	// scrapes).
	ckptWritten         atomic.Uint64
	ckptBytes           atomic.Uint64
	ckptRestores        atomic.Uint64
	ckptRestoreFailures atomic.Uint64
	ckptWriteFailures   atomic.Uint64
	lastCkptNano        atomic.Int64

	// events receives cold-path lifecycle events (idle evictions,
	// checkpoint failures, restores) when a recorder is attached; a nil
	// recorder records nothing, so no call site needs a guard.
	events *obs.FlightRecorder

	// keyMu guards the durable-session namespace: the key→session-id
	// index, the parked tallies of evicted keyed sessions, and the
	// checkpoint store pointer. It is held across a whole keyed open,
	// close, sweep, or checkpoint pass, so a key can never race itself
	// (e.g. an eviction writing a final checkpoint while an open adopts
	// the previous one). Lock order: keyMu → registry mu → session mu
	// → retiredMu.
	keyMu  sync.Mutex
	keys   map[string]uint64
	parked map[string]sim.Result
	store  *CheckpointStore
	// ckptBuf is the one encode buffer every checkpoint write reuses:
	// the store copies it to disk before the next session encodes.
	ckptBuf []byte //repro:guardedby keyMu

	// retired accumulates the tallies of closed and evicted sessions so
	// service-wide counters never lose history when a session goes away;
	// retiredBy splits the same history per backend label, and openedBy
	// counts session opens per backend label. All three share retiredMu
	// (updates happen on the open/close/evict cold paths only).
	retiredMu sync.Mutex
	retired   sim.Result
	retiredBy map[string]BackendCounts
	openedBy  map[string]uint64
}

// EngineConfig sizes an Engine.
type EngineConfig struct {
	// MaxSessions caps live sessions (0 = unlimited). Opens beyond the
	// cap fail with ErrCodeSessionLimit.
	MaxSessions int
	// DefaultSpec serves open requests with no Spec, Config or Options
	// (empty selects "tage-64K"). It may name any registered
	// backend family, so a server can default to a non-TAGE predictor.
	// It is not validated here: an invalid spec surfaces as
	// ErrCodeBadConfig on open, and tageserved builds a probe at startup.
	DefaultSpec string
	// MaxInflight caps batches being served concurrently across the whole
	// engine (0 = unlimited; negative admits nothing, for tests). A batch
	// arriving with the budget exhausted is shed: the TCP layer answers
	// FrameBusy and the client retries with backoff, so overload degrades
	// into explicit, retryable rejections instead of unbounded queueing.
	MaxInflight int
}

// defaultBackendSpec is the backend an engine serves to requests that
// name none when EngineConfig.DefaultSpec is empty.
const defaultBackendSpec = "tage-64K"

// NewEngine builds an engine.
func NewEngine(cfg EngineConfig) *Engine {
	def := cfg.DefaultSpec
	if def == "" {
		def = defaultBackendSpec
	}
	return &Engine{
		reg:         newRegistry(cfg.MaxSessions),
		defaultSpec: def,
		maxInflight: int64(cfg.MaxInflight),
		retiredBy:   make(map[string]BackendCounts),
		openedBy:    make(map[string]uint64),
		keys:        make(map[string]uint64),
		parked:      make(map[string]sim.Result),
	}
}

// SetEvents attaches a flight recorder for cold-path lifecycle events.
// Call before serving traffic (the field is not synchronized against
// in-flight recordings).
func (e *Engine) SetEvents(rec *obs.FlightRecorder) { e.events = rec }

// AcquireBatch claims one inflight-batch slot, reporting false — and
// counting a shed — when the engine-wide budget is exhausted. Callers
// that get true must ReleaseBatch once the batch's response has shipped
// (the server holds the slot from serve through response flush, so
// MaxInflight bounds batches in flight end to end). It is on the
// per-batch hot path and performs no allocation.
//
//repro:hotpath
func (e *Engine) AcquireBatch() bool {
	limit := e.maxInflight
	if limit == 0 {
		return true
	}
	if limit < 0 {
		e.shed.Add(1)
		return false
	}
	if e.inflight.Add(1) > limit {
		e.inflight.Add(-1)
		e.shed.Add(1)
		return false
	}
	return true
}

// ReleaseBatch returns the slot claimed by a successful AcquireBatch.
//
//repro:hotpath
func (e *Engine) ReleaseBatch() {
	if e.maxInflight > 0 {
		e.inflight.Add(-1)
	}
}

// Open creates (or, for keyed requests, resumes) a session for the
// request. Failures carry a RemoteError whose code the TCP layer
// forwards verbatim.
//
// Every session is built by predictor.New from the request's spec
// (OpenRequest.spec: Spec, or the TAGE spec Config and Options build),
// or from the engine's default spec when the request names none.
//
// Keyed requests resolve in durability order: a live session holding the
// key is resumed as-is under a new session id (see reopenLocked; the
// request's predictor fields are ignored — the key is the identity);
// else a stored checkpoint for the key is restored; else a fresh keyed
// session is created. An unreadable or corrupt checkpoint is counted as
// a restore failure and falls back to a fresh session rather than
// failing the open.
func (e *Engine) Open(req OpenRequest, now int64) (*Session, error) {
	spec := req.spec()
	if req.Key == "" {
		return e.openFresh(spec, "", now)
	}
	if len(req.Key) > maxSessionKey {
		return nil, &RemoteError{Code: ErrCodeMalformed,
			Message: fmt.Sprintf("session key length %d exceeds %d", len(req.Key), maxSessionKey)}
	}
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if id, ok := e.keys[req.Key]; ok {
		if s, ok := e.reg.get(id); ok {
			return e.reopenLocked(s, now), nil
		}
		// Unreachable today: every path that retires a keyed session
		// holds keyMu and deletes the index entry first. Self-heal
		// anyway.
		delete(e.keys, req.Key)
	}
	if e.store != nil {
		blob, err := e.store.Read(req.Key)
		switch {
		case err == nil:
			s, aerr := e.adoptLocked(req.Key, blob, now)
			if aerr == nil {
				return s, nil
			}
			var re *RemoteError
			if errors.As(aerr, &re) {
				// Resource-level failures (session cap) are the caller's
				// problem, not the checkpoint's.
				return nil, aerr
			}
			e.ckptRestoreFailures.Add(1)
			e.events.Record(obs.Event{UnixNano: now, Kind: obs.EvRestoreFail, Key: req.Key, Cause: aerr.Error()})
		case !notExist(err):
			e.ckptRestoreFailures.Add(1)
			e.events.Record(obs.Event{UnixNano: now, Kind: obs.EvRestoreFail, Key: req.Key, Cause: err.Error()})
		}
	}
	s, err := e.openFresh(spec, req.Key, now)
	if err != nil {
		return nil, err
	}
	e.keys[req.Key] = s.id
	return s, nil
}

// adoptLocked restores the stored checkpoint blob as a live session for
// key and publishes it under the key, subtracting any tallies this
// engine parked for the key at eviction time so every branch stays
// counted exactly once across evict/restore cycles. Caller holds keyMu.
func (e *Engine) adoptLocked(key string, blob []byte, now int64) (*Session, error) {
	snap, err := DecodeSessionSnapshot(blob)
	if err != nil {
		return nil, err
	}
	if snap.Key != key {
		return nil, fmt.Errorf("%w: checkpoint key %q stored under %q", predictor.ErrSnapshot, snap.Key, key)
	}
	id, ok := e.reg.reserve()
	if !ok {
		return nil, &RemoteError{
			Code:    ErrCodeSessionLimit,
			Message: fmt.Sprintf("session limit %d reached", e.reg.max),
		}
	}
	bk, err := predictor.RestoreSnapshot(snap.Predictor)
	if err != nil {
		e.reg.release()
		return nil, err
	}
	s := newSession(id, bk, snap.Res.Config, snap.Res.Mode, now)
	s.key = key
	s.res = snap.Res
	s.ckptBranches = snap.Res.Branches
	if parked, ok := e.parked[key]; ok {
		e.unfold(parked)
		delete(e.parked, key)
	}
	e.keys[key] = id
	e.reg.insert(s)
	e.opened.Add(1)
	e.ckptRestores.Add(1)
	e.retiredMu.Lock()
	e.openedBy[e.labelKeyLocked(snap.Res.Config)]++
	e.retiredMu.Unlock()
	e.events.Record(obs.Event{
		UnixNano: now,
		Kind:     obs.EvRestore,
		Session:  id,
		Key:      key,
		Backend:  snap.Res.Config,
	})
	return s, nil
}

// reopenLocked moves a live keyed session to a new id, under its lock,
// and retires the old id without folding its tallies. A batch still in
// flight on a connection the client abandoned names the old id, so it
// cannot be served again after the reopen handed the client its
// cursor. Caller holds keyMu, as every keyed retire path does.
func (e *Engine) reopenLocked(old *Session, now int64) *Session {
	old.mu.Lock()
	s := &Session{
		id:           e.reg.nextID.Add(1),
		key:          old.key,
		bk:           old.bk,
		res:          old.res,
		ckptBranches: old.ckptBranches,
		spec:         old.spec,
	}
	old.retired = true
	old.mu.Unlock()
	s.lastUsed.Store(now)
	// The live-session slot passes from the old id to the new one.
	e.reg.remove(old.id)
	e.reg.insert(s)
	e.keys[s.key] = s.id
	return s
}

// openFresh builds a brand-new session from spec ("" selects the
// engine's default spec) under key ("" for anonymous).
func (e *Engine) openFresh(spec, key string, now int64) (*Session, error) {
	if spec == "" {
		spec = e.defaultSpec
	}
	// Reserve the cap slot before building: a rejected open must not
	// construct (and immediately discard) a full predictor.
	id, ok := e.reg.reserve()
	if !ok {
		return nil, &RemoteError{
			Code:    ErrCodeSessionLimit,
			Message: fmt.Sprintf("session limit %d reached", e.reg.max),
		}
	}
	bk, _, err := predictor.New(spec)
	if err != nil {
		e.reg.release()
		return nil, &RemoteError{Code: ErrCodeBadConfig, Message: err.Error()}
	}
	label := bk.Label()
	s := newSession(id, bk, label, predictor.ModeOf(bk), now)
	s.key = key
	e.reg.insert(s)
	e.opened.Add(1)
	e.retiredMu.Lock()
	e.openedBy[e.labelKeyLocked(label)]++
	e.retiredMu.Unlock()
	return s, nil
}

// maxBackendLabels bounds the per-backend counter cardinality: spec
// strings are client-controlled (a loop over distinct seeds could mint
// unbounded labels), so beyond the cap further labels aggregate under
// labelOverflow instead of growing server memory and /metrics output
// without bound.
const (
	maxBackendLabels = 64
	labelOverflow    = "other"
)

// labelKeyLocked maps a session label onto its counter bucket: itself
// while the label table has room (or the label is already tracked),
// labelOverflow past the cap. Caller holds retiredMu.
func (e *Engine) labelKeyLocked(label string) string {
	if _, ok := e.openedBy[label]; ok {
		return label
	}
	if len(e.openedBy) < maxBackendLabels {
		return label
	}
	return labelOverflow
}

// Lookup returns the live session with the given id. It is on the
// per-batch hot path and performs no allocation.
func (e *Engine) Lookup(id uint64) (*Session, bool) { return e.reg.get(id) }

// Close retires a session and returns its final tallies. Closing a
// keyed session consumes it: the key is released and its checkpoint
// deleted — an explicit close is the client saying the stream is
// complete, so there is nothing left to recover.
func (e *Engine) Close(id uint64) (sim.Result, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	s, ok := e.reg.remove(id)
	if !ok {
		return sim.Result{}, &RemoteError{
			Code:    ErrCodeUnknownSession,
			Message: fmt.Sprintf("unknown session %d", id),
		}
	}
	res, first := s.retire()
	if !first {
		// Defensive: retire() is only ever called by whichever side
		// exclusively removed the session from the registry (here, or the
		// evictor in SweepIdle), so the remover always retires first and
		// this branch is unreachable today. Release the cap slot anyway
		// — if a future refactor made retirement lose a race, skipping
		// release would leak one max-sessions slot per occurrence.
		e.reg.release()
		return sim.Result{}, &RemoteError{
			Code:    ErrCodeUnknownSession,
			Message: fmt.Sprintf("session %d already retired", id),
		}
	}
	if s.key != "" {
		delete(e.keys, s.key)
		delete(e.parked, s.key)
		if e.store != nil {
			e.store.Delete(s.key)
		}
	}
	e.fold(res)
	e.reg.release()
	return res, nil
}

// SweepIdle retires every session idle since before cutoff and returns
// how many it evicted. An evicted keyed session is not lost: its final
// state is checkpointed (when a store is attached) and its already-folded
// tallies parked, so a later open with the same key restores the session
// and the parked amount is subtracted — every branch counted exactly
// once whether or not the session bounced through eviction.
func (e *Engine) SweepIdle(cutoff int64) int {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	n := 0
	now := cutoff
	for _, s := range e.reg.sweepIdle(cutoff) {
		if res, first := s.retire(); first {
			if s.key != "" {
				delete(e.keys, s.key)
				if e.store != nil {
					blob, err := s.appendRetiredSnapshot(e.ckptBuf[:0])
					e.ckptBuf = blob
					if err == nil {
						e.writeBlobLocked(s.key, blob, now)
						e.parked[s.key] = res
					}
				}
			}
			e.fold(res)
			e.reg.release()
			e.evicted.Add(1)
			e.events.Record(obs.Event{
				UnixNano: now,
				Kind:     obs.EvIdleEvict,
				Session:  s.id,
				Key:      s.key,
				Backend:  res.Config,
				Cause:    "idle past IdleTimeout",
			})
			n++
		}
	}
	return n
}

// CheckpointDirty writes a checkpoint for every keyed session whose
// branch count moved since its last checkpoint (every keyed session,
// when force is set — the shutdown drain). It returns how many it
// wrote. No-op without an attached store.
func (e *Engine) CheckpointDirty(now int64, force bool) int {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.store == nil {
		return 0
	}
	n := 0
	e.reg.forEach(func(s *Session) {
		if e.checkpointLocked(s, now, force) {
			n++
		}
	})
	return n
}

// checkpointLocked encodes one session's checkpoint into the reused
// ckptBuf and writes it, reporting whether a checkpoint was written.
// Caller holds keyMu and has checked that a store is attached.
func (e *Engine) checkpointLocked(s *Session, now int64, force bool) bool {
	blob, ok, err := s.appendCheckpoint(e.ckptBuf[:0], force)
	e.ckptBuf = blob
	if err != nil {
		e.ckptWriteFailures.Add(1)
		return false
	}
	return ok && e.writeBlobLocked(s.key, blob, now)
}

// writeBlobLocked persists one encoded checkpoint and bumps the
// counters. Caller holds keyMu.
func (e *Engine) writeBlobLocked(key string, blob []byte, now int64) bool {
	if err := e.store.Write(key, blob); err != nil {
		e.ckptWriteFailures.Add(1)
		e.events.Record(obs.Event{
			UnixNano: now,
			Kind:     obs.EvCheckpointFail,
			Key:      key,
			Cause:    err.Error(),
		})
		return false
	}
	e.ckptWritten.Add(1)
	e.ckptBytes.Add(uint64(len(blob)))
	e.lastCkptNano.Store(now)
	return true
}

// AttachStore wires a checkpoint store into the engine and eagerly
// restores every stored checkpoint as a live session — the WAL-free
// warm-start path: a restarted server answers keyed opens from restored
// state immediately, with no per-branch replay log. Corrupt or
// unrestorable checkpoints are counted and skipped, never fatal.
// It returns how many sessions were restored.
func (e *Engine) AttachStore(cs *CheckpointStore, now int64) (int, error) {
	e.keyMu.Lock()
	defer e.keyMu.Unlock()
	if e.store != nil {
		return 0, fmt.Errorf("serve: checkpoint store already attached")
	}
	e.store = cs
	keys, err := cs.Keys()
	if err != nil {
		return 0, err
	}
	restored := 0
	for _, key := range keys {
		if _, live := e.keys[key]; live {
			continue
		}
		blob, err := cs.Read(key)
		if err != nil {
			e.ckptRestoreFailures.Add(1)
			e.events.Record(obs.Event{UnixNano: now, Kind: obs.EvRestoreFail, Key: key, Cause: err.Error()})
			continue
		}
		if _, err := e.adoptLocked(key, blob, now); err != nil {
			e.ckptRestoreFailures.Add(1)
			e.events.Record(obs.Event{UnixNano: now, Kind: obs.EvRestoreFail, Key: key, Cause: err.Error()})
			continue
		}
		restored++
	}
	return restored, nil
}

func (e *Engine) fold(res sim.Result) {
	e.retiredMu.Lock()
	e.retired.Add(res)
	key := e.labelKeyLocked(res.Config)
	bc := e.retiredBy[key]
	bc.Branches += res.Branches
	bc.Total.Add(res.Total)
	e.retiredBy[key] = bc
	e.retiredMu.Unlock()
}

// unfold reverses a fold: when a keyed session parked at eviction time
// comes back to life, the tallies folded then are subtracted so the live
// session (which re-reports them) does not double-count. Clamped at
// zero, like metrics.Counts.Sub, so a logic slip can never wrap the
// service counters.
func (e *Engine) unfold(res sim.Result) {
	sub := func(a *uint64, b uint64) {
		if *a < b {
			*a = 0
			return
		}
		*a -= b
	}
	e.retiredMu.Lock()
	sub(&e.retired.Branches, res.Branches)
	sub(&e.retired.Instructions, res.Instructions)
	e.retired.Total.Sub(res.Total)
	for i := range res.Class {
		e.retired.Class[i].Sub(res.Class[i])
	}
	key := e.labelKeyLocked(res.Config)
	bc := e.retiredBy[key]
	sub(&bc.Branches, res.Branches)
	bc.Total.Sub(res.Total)
	e.retiredBy[key] = bc
	e.retiredMu.Unlock()
}

// BackendCounts are the per-backend service counters: sessions opened
// under the backend label plus its branch tallies aggregated over live
// and retired sessions.
type BackendCounts struct {
	Label    string
	Opened   uint64
	Branches uint64
	Total    metrics.Counts
}

// Snapshot is a point-in-time view of the service-wide counters:
// sessions plus branch tallies aggregated over live and retired
// sessions, broken down per backend label in Backends.
type Snapshot struct {
	LiveSessions    int64
	OpenedSessions  uint64
	EvictedSessions uint64
	// Result holds the branch tallies (Branches, Instructions, Total,
	// Class; Level aggregates them). Its Trace, Config, Mode and
	// FinalProbability name no single session and are left zero.
	sim.Result
	// Backends carries the per-backend counters sorted by label.
	Backends []BackendCounts
	// ShedBatches counts batches rejected by admission control
	// (FrameBusy); InflightBatches is the instantaneous count being
	// served (always 0 when MaxInflight is unlimited — the budget is not
	// tracked then, to keep the hot path to a single branch).
	ShedBatches     uint64
	InflightBatches int64
	// Checkpoint counters (all zero when no store is attached).
	CheckpointsWritten        uint64
	CheckpointBytes           uint64
	CheckpointRestores        uint64
	CheckpointRestoreFailures uint64
	CheckpointWriteFailures   uint64
	// LastCheckpointUnixNano is the engine-clock time of the most recent
	// successful checkpoint write (0 = never).
	LastCheckpointUnixNano int64
}

// Snapshot aggregates the engine's counters. Live sessions are snapshot
// one at a time under their own lock, so a scrape never blocks the whole
// service; the view is per-session consistent, not globally atomic.
//
//repro:deterministic
func (e *Engine) Snapshot() Snapshot {
	e.retiredMu.Lock()
	agg := e.retired
	labels := make([]string, 0, len(e.openedBy))
	for label := range e.openedBy {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	per := make(map[string]BackendCounts, len(labels))
	for _, label := range labels {
		bc := e.retiredBy[label]
		bc.Label = label
		bc.Opened = e.openedBy[label]
		per[label] = bc
	}
	e.retiredMu.Unlock()
	e.reg.forEach(func(s *Session) {
		res, ok := s.liveStats()
		if !ok {
			// Retired between the registry snapshot and here; it is (or is
			// about to be) folded into the retired aggregate and will be
			// fully visible at the next scrape.
			return
		}
		agg.Add(res)
		// Bucket live sessions exactly as their open did: a label the
		// table admitted counts under itself, overflow labels under the
		// shared bucket.
		key := res.Config
		if _, tracked := per[key]; !tracked {
			key = labelOverflow
		}
		bc := per[key]
		bc.Label = key
		bc.Branches += res.Branches
		bc.Total.Add(res.Total)
		per[key] = bc
	})
	backends := make([]BackendCounts, 0, len(per))
	for _, bc := range per {
		backends = append(backends, bc)
	}
	sort.Slice(backends, func(i, j int) bool { return backends[i].Label < backends[j].Label })
	agg.Trace, agg.Config, agg.FinalProbability = "", "", 0
	return Snapshot{
		LiveSessions:              e.reg.count(),
		OpenedSessions:            e.opened.Load(),
		EvictedSessions:           e.evicted.Load(),
		Result:                    agg,
		Backends:                  backends,
		ShedBatches:               e.shed.Load(),
		InflightBatches:           e.inflight.Load(),
		CheckpointsWritten:        e.ckptWritten.Load(),
		CheckpointBytes:           e.ckptBytes.Load(),
		CheckpointRestores:        e.ckptRestores.Load(),
		CheckpointRestoreFailures: e.ckptRestoreFailures.Load(),
		CheckpointWriteFailures:   e.ckptWriteFailures.Load(),
		LastCheckpointUnixNano:    e.lastCkptNano.Load(),
	}
}
