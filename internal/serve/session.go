package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/statecodec"
	"repro/internal/trace"
)

// Session is one live predictor instance: a predictor.Backend (a TAGE
// core.Estimator by default, any registry family via an Open spec) plus
// the running per-class tallies, updated branch by branch by the same
// sim.Result.Step the offline driver (sim.Run) loops over — which is what
// makes the server-side stats bit-identical to an offline run over the
// same stream.
//
// A session is exclusive while serving: Serve and Stats take the session
// lock, so concurrent batches for the same session serialize (and
// batches for different sessions don't contend).
type Session struct {
	id uint64
	// key is the session's durable identity; empty for anonymous
	// sessions, which are never checkpointed. Immutable after
	// construction.
	key string

	mu      sync.Mutex
	bk      predictor.Backend //repro:guardedby mu
	res     sim.Result        //repro:guardedby mu
	retired bool              //repro:guardedby mu
	// ckptBranches is the branch count at the last written checkpoint —
	// the dirty bit: the checkpoint loop skips sessions whose count has
	// not moved since.
	ckptBranches uint64 //repro:guardedby mu
	// spec is the backend's canonical snapshot spec string, resolved on
	// the first snapshot so later ones allocate nothing.
	spec string //repro:guardedby mu

	// lastUsed is the engine-clock nanosecond of the last Open/Serve,
	// read by the idle evictor without taking the session lock.
	lastUsed atomic.Int64
}

// newSession builds a session around a freshly built backend. label is
// the backend's result/metrics key (the configuration name for TAGE
// estimators, the canonical spec string otherwise) and mode the
// automaton mode the backend reports.
func newSession(id uint64, bk predictor.Backend, label string, mode core.AutomatonMode, now int64) *Session {
	s := &Session{
		id:  id,
		bk:  bk,
		res: sim.Result{Config: label, Mode: mode},
	}
	s.lastUsed.Store(now)
	return s
}

// ID returns the registry-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Key returns the session's durable key ("" for anonymous sessions).
func (s *Session) Key() string { return s.key }

// Branches returns the session's served branch count — the replay cursor
// a resumed client continues from.
func (s *Session) Branches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.res.Branches
}

// ConfigName returns the session's backend label (the resolved predictor
// configuration name, or the canonical backend spec). It is immutable
// after construction, so reading it takes no lock.
//
//repro:locked res.Config is immutable after construction; audited lock-free read
func (s *Session) ConfigName() string { return s.res.Config }

// opened is the FrameOpened acknowledgement for the session: its tallies
// and labels, read under the session lock in one Stats call, so the
// tallies are exactly those at the branch cursor they carry.
func (s *Session) opened() Opened {
	return Opened{ID: s.id, Res: s.Stats()}
}

// step serves one branch through sim.Result.Step — the same per-branch
// step sim.Run loops over — and returns the encoded grade byte. Caller
// holds s.mu.
//
//repro:hotpath
//repro:locked caller holds s.mu (Serve/batch loop)
func (s *Session) step(b trace.Branch) byte {
	return EncodeGrade(s.res.Step(s.bk, b))
}

// Serve runs one branch batch through the session, appending one grade
// byte per branch into grades[:0] (pass a reused buffer: the per-branch
// path allocates nothing). It reports ok=false when the session has
// already been retired by Close or the idle evictor — the tallies of a
// retired session are frozen, so no branch is ever half-counted.
//
//repro:hotpath
func (s *Session) Serve(records []trace.Branch, grades []byte, now int64) (out []byte, ok bool) {
	s.lastUsed.Store(now)
	s.mu.Lock()
	if s.retired {
		s.mu.Unlock()
		return grades[:0], false
	}
	out = grades[:0]
	for _, b := range records {
		out = append(out, s.step(b))
	}
	s.mu.Unlock()
	return out, true
}

// Stats snapshots the session's tallies (with the backend's current
// saturation probability filled in, as sim.Run does at end of run).
func (s *Session) Stats() sim.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

//repro:deterministic
func (s *Session) statsLocked() sim.Result {
	s.res.FinalProbability = predictor.SaturationProbabilityOf(s.bk)
	return s.res
}

// liveStats snapshots the tallies unless the session has been retired.
// Scrapes use it so a session racing with Close/eviction is counted
// either in the live pass or in the retired aggregate, never in both.
//
//repro:deterministic
func (s *Session) liveStats() (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return sim.Result{}, false
	}
	return s.statsLocked(), true
}

// appendSnapshotLocked is the session snapshot encoder: it appends the
// AppendSessionSnapshot layout to dst with the predictor envelope
// encoded in place, so a reused dst makes it allocation-free. On error
// dst comes back unextended. Caller holds s.mu, which is what makes the
// cut exact: Serve holds the lock for the whole batch, so a snapshot
// always lands on a batch boundary where the backend is between a
// resolved Update and the next Predict and every served branch is
// tallied exactly once.
func (s *Session) appendSnapshotLocked(dst []byte) ([]byte, error) {
	if s.spec == "" {
		sp, err := predictor.SnapshotSpec(s.bk)
		if err != nil {
			return dst, err
		}
		s.spec = sp.String()
	}
	start := len(dst)
	dst = appendSessionHead(dst, s.key, &s.res)
	blob := len(dst)
	dst = statecodec.BeginBlob(dst)
	dst, err := predictor.AppendSnapshotSpec(dst, s.bk, s.spec)
	if err != nil {
		return dst[:start], err
	}
	dst = statecodec.EndBlob(dst, blob)
	return sealSessionSnapshot(dst, start), nil
}

// AppendSnapshot appends the session's durable snapshot to dst
// (FrameSnapGet encodes it straight into the response frame). It fails
// once the session has been retired — the engine owns a retired
// session's final checkpoint.
func (s *Session) AppendSnapshot(dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key == "" {
		// An anonymous blob would fail the decoder's key check anyway;
		// reject it here so the client gets a meaningful error.
		return dst, fmt.Errorf("serve: session %d is anonymous (no durable key)", s.id)
	}
	if s.retired {
		return dst, fmt.Errorf("serve: session %d retired", s.id)
	}
	return s.appendSnapshotLocked(dst)
}

// appendCheckpoint appends the session snapshot for the background
// checkpoint loop, reporting ok=false (dst unextended) when there is
// nothing to write: the session is anonymous, already retired (its
// final checkpoint is the evictor's job), or — unless force — clean
// since the last checkpoint.
func (s *Session) appendCheckpoint(dst []byte, force bool) (out []byte, ok bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.key == "" || s.retired {
		return dst, false, nil
	}
	if !force && s.res.Branches == s.ckptBranches {
		return dst, false, nil
	}
	dst, err = s.appendSnapshotLocked(dst)
	if err != nil {
		return dst, false, err
	}
	s.ckptBranches = s.res.Branches
	return dst, true, nil
}

// appendRetiredSnapshot appends the snapshot of an already-retired
// session — the evictor's final checkpoint. Safe because retirement
// froze the tallies and no Serve can touch the backend again.
func (s *Session) appendRetiredSnapshot(dst []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendSnapshotLocked(dst)
}

// retire freezes the session and returns its final tallies. The second
// return reports whether this call was the one that retired it.
func (s *Session) retire() (sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return sim.Result{}, false
	}
	s.retired = true
	return s.statsLocked(), true
}
