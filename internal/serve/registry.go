package serve

import (
	"sort"
	"sync"
	"sync/atomic"
)

// registry is the session table: one map under one RWMutex. The common
// case — looking up an existing session — takes it in read mode.
type registry struct {
	mu sync.RWMutex
	m  map[uint64]*Session //repro:guardedby mu

	nextID atomic.Uint64
	live   atomic.Int64
	max    int64 // 0 = unlimited
}

// newRegistry builds a registry with the given live-session cap (0 =
// unlimited).
//
//repro:locked construction: the registry is not yet shared, no locking needed
func newRegistry(maxSessions int) *registry {
	return &registry{m: make(map[uint64]*Session), max: int64(maxSessions)}
}

// reserve claims a session slot against the cap, returning the new
// session id, or false when the cap is reached. A reservation must be
// followed by insert or release.
func (r *registry) reserve() (uint64, bool) {
	if r.max > 0 && r.live.Add(1) > r.max {
		r.live.Add(-1)
		return 0, false
	}
	if r.max <= 0 {
		r.live.Add(1)
	}
	return r.nextID.Add(1), true
}

// release returns a reserved or removed slot to the cap.
func (r *registry) release() { r.live.Add(-1) }

// insert publishes a session under its id.
func (r *registry) insert(s *Session) {
	r.mu.Lock()
	r.m[s.id] = s
	r.mu.Unlock()
}

// get looks a live session up by id.
func (r *registry) get(id uint64) (*Session, bool) {
	r.mu.RLock()
	s, ok := r.m[id]
	r.mu.RUnlock()
	return s, ok
}

// remove unpublishes a session, returning it if it was live. The caller
// must release() the slot after retiring the session.
func (r *registry) remove(id uint64) (*Session, bool) {
	r.mu.Lock()
	s, ok := r.m[id]
	if ok {
		delete(r.m, id)
	}
	r.mu.Unlock()
	return s, ok
}

// count returns the number of live sessions.
//
//repro:deterministic
func (r *registry) count() int64 { return r.live.Load() }

// forEach visits every live session in ascending id order. The visit
// runs outside the lock (on a snapshot of the table), so it may observe
// sessions being concurrently retired — callers handle that via the
// session lock. The id ordering makes scrape aggregation and
// checkpoint-write order deterministic for a given session population.
//
//repro:deterministic
func (r *registry) forEach(fn func(*Session)) {
	r.mu.RLock()
	snap := make([]*Session, 0, len(r.m))
	for _, s := range r.m {
		snap = append(snap, s)
	}
	r.mu.RUnlock()
	sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	for _, s := range snap {
		fn(s)
	}
}

// sweepIdle removes and returns every session whose lastUsed is strictly
// before cutoff (engine-clock nanoseconds).
func (r *registry) sweepIdle(cutoff int64) []*Session {
	var idle []*Session
	r.mu.Lock()
	for id, s := range r.m {
		if s.lastUsed.Load() < cutoff {
			delete(r.m, id)
			idle = append(idle, s)
		}
	}
	r.mu.Unlock()
	return idle
}
