package serve

import (
	"sort"
	"sync"
	"sync/atomic"
)

// registry is the lock-striped session table: sessions are spread over
// power-of-two shards by id, so concurrent connections serving different
// sessions contend only on their shard's RWMutex (and the common case —
// looking up an existing session — takes it in read mode).
type registry struct {
	shards []regShard
	mask   uint64

	nextID atomic.Uint64
	live   atomic.Int64
	max    int64 // 0 = unlimited
}

type regShard struct {
	mu sync.RWMutex
	m  map[uint64]*Session //repro:guardedby mu
}

// newRegistry builds a registry with the given shard count (rounded up
// to a power of two, minimum 1) and live-session cap (0 = unlimited).
//
//repro:locked construction: the registry is not yet shared, no locking needed
func newRegistry(shards, maxSessions int) *registry {
	n := 1
	for n < shards {
		n <<= 1
	}
	r := &registry{shards: make([]regShard, n), mask: uint64(n - 1), max: int64(maxSessions)}
	for i := range r.shards {
		r.shards[i].m = make(map[uint64]*Session)
	}
	return r
}

func (r *registry) shard(id uint64) *regShard { return &r.shards[id&r.mask] }

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
	sh := r.shard(s.id)
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
}

// get looks a live session up by id.
func (r *registry) get(id uint64) (*Session, bool) {
	sh := r.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// remove unpublishes a session, returning it if it was live. The caller
// must release() the slot after retiring the session.
func (r *registry) remove(id uint64) (*Session, bool) {
	sh := r.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	return s, ok
}

// count returns the number of live sessions.
//
//repro:deterministic
func (r *registry) count() int64 { return r.live.Load() }

// forEach visits every live session in ascending id order. The visit
// runs outside the shard locks (the snapshot is per shard), so it may
// observe sessions being concurrently retired — callers handle that via
// the session lock. The id ordering makes scrape aggregation and
// checkpoint-write order deterministic for a given session population.
//
//repro:deterministic
func (r *registry) forEach(fn func(*Session)) {
	var snap []*Session
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		snap = snap[:0]
		for _, s := range sh.m {
			snap = append(snap, s)
		}
		sh.mu.RUnlock()
		sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
		for _, s := range snap {
			fn(s)
		}
	}
}

// sweepIdle removes and returns every session whose lastUsed is strictly
// before cutoff (engine-clock nanoseconds).
func (r *registry) sweepIdle(cutoff int64) []*Session {
	var idle []*Session
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if s.lastUsed.Load() < cutoff {
				delete(sh.m, id)
				idle = append(idle, s)
			}
		}
		sh.mu.Unlock()
	}
	return idle
}
