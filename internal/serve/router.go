// Failover-aware session routing: a Router spreads durable (keyed)
// sessions across a cluster of serve nodes with a consistent-hash ring,
// and a RouterSession survives node crashes — it reconnects to the same
// node with capped exponential backoff, resynchronizes its replay cursor
// from the node's restored state, and when the node stays dead fails
// over to the next ring node carrying the last snapshot blob it fetched.
// Tally exactness is preserved across every recovery: the client rewinds
// its trace reader to the server's cursor and re-replays, so the final
// Result still matches an uninterrupted offline run bit for bit.
package serve

import (
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// Router defaults.
const (
	DefaultMaxRetries       = 6
	DefaultRetryBackoff     = 50 * time.Millisecond
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = time.Second
	maxRetryBackoff         = 2 * time.Second
	ringReplicas            = 64 // virtual nodes per node on the hash ring
	snapshotEvery           = 8  // batches between failover-token refreshes
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Nodes are the wire-protocol addresses of the cluster.
	Nodes []string
	// Client configures the per-node connections (deadlines, busy
	// retries). Its Seed also keys each session's recovery-backoff
	// jitter, decorrelated per session key.
	Client ClientConfig
	// MaxRetries bounds the consecutive recovery attempts (each attempt
	// tries every node once) before an operation gives up; 0 selects
	// DefaultMaxRetries.
	MaxRetries int
	// RetryBackoff is the initial backoff between recovery attempts; it
	// doubles per attempt, capped at 2s. 0 selects DefaultRetryBackoff.
	RetryBackoff time.Duration
	// BreakerThreshold opens a node's circuit breaker after this many
	// consecutive failed attempts, so the ring routes around a flapping
	// node instead of burning its retry budget hammering it. 0 or less
	// selects DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects a node before
	// one half-open probe is allowed through (success closes it, failure
	// re-opens it for another cooldown). 0 selects
	// DefaultBreakerCooldown.
	BreakerCooldown time.Duration
}

// NodeStats is one node's roll-up of router activity.
type NodeStats struct {
	Addr          string
	Sessions      uint64 // sessions currently placed on the node
	Retries       uint64 // failed connection/open attempts against the node
	Recoveries    uint64 // successful mid-stream recover-and-resync passes onto the node
	Failovers     uint64 // sessions that failed over onto the node
	BusyRetries   uint64 // load-shed (FrameBusy) retries against the node
	BreakerOpens  uint64 // closed→open breaker transitions
	BreakerCloses uint64 // open→closed breaker transitions (probe succeeded)
}

type vnode struct {
	hash uint64
	node int
}

// Router places session keys on cluster nodes with a consistent-hash
// ring. It is safe for concurrent use; each RouterSession owns its own
// connection.
type Router struct {
	cfg  RouterConfig
	ring []vnode
	rec  *obs.FlightRecorder

	mu       sync.Mutex
	stats    map[string]*NodeStats
	breakers map[string]*breakerState //repro:guardedby mu
}

// breakerState is one node's circuit breaker. Both the map and the
// pointed-to state are guarded by Router.mu (state is only ever touched
// through the nodeAvailable/nodeFailed/nodeOK accessors, which hold it).
type breakerState struct {
	fails     int       // consecutive failures since the last success
	open      bool      // breaker tripped
	openUntil time.Time // half-open probe allowed from here on
}

// NewRouter builds a router over the configured nodes.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("serve: router requires at least one node")
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultMaxRetries
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCooldown
	}
	r := &Router{
		cfg:      cfg,
		rec:      obs.NewFlightRecorder(0),
		stats:    make(map[string]*NodeStats),
		breakers: make(map[string]*breakerState),
	}
	r.mu.Lock()
	for i, node := range cfg.Nodes {
		r.stats[node] = &NodeStats{Addr: node}
		r.breakers[node] = &breakerState{}
		for rep := 0; rep < ringReplicas; rep++ {
			r.ring = append(r.ring, vnode{hash: ringHash(fmt.Sprintf("%s#%d", node, rep)), node: i})
		}
	}
	r.mu.Unlock()
	sort.Slice(r.ring, func(i, j int) bool { return r.ring[i].hash < r.ring[j].hash })
	return r, nil
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// NodeFor returns the primary node for a session key.
func (r *Router) NodeFor(key string) string { return r.nodesFor(key)[0] }

// nodesFor returns every distinct node in ring order starting at the
// key's position — the session's failover order.
func (r *Router) nodesFor(key string) []string {
	h := ringHash(key)
	start := sort.Search(len(r.ring), func(i int) bool { return r.ring[i].hash >= h })
	seen := make(map[int]bool, len(r.cfg.Nodes))
	order := make([]string, 0, len(r.cfg.Nodes))
	for i := 0; i < len(r.ring) && len(order) < len(r.cfg.Nodes); i++ {
		v := r.ring[(start+i)%len(r.ring)]
		if !seen[v.node] {
			seen[v.node] = true
			order = append(order, r.cfg.Nodes[v.node])
		}
	}
	return order
}

// Events returns the router's flight recorder: its retries, breaker
// transitions, failovers and recoveries.
func (r *Router) Events() *obs.FlightRecorder { return r.rec }

// Stats returns the per-node roll-up sorted by address.
func (r *Router) Stats() []NodeStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]NodeStats, 0, len(r.stats))
	for _, ns := range r.stats {
		out = append(out, *ns)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

func (r *Router) bump(node string, f func(*NodeStats)) {
	r.mu.Lock()
	if ns, ok := r.stats[node]; ok {
		f(ns)
	}
	r.mu.Unlock()
}

// nodeAvailable reports whether the node's breaker admits an attempt:
// closed, or open with the cooldown expired (the half-open probe — the
// next failure re-opens it, a success closes it).
func (r *Router) nodeAvailable(node string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[node]
	if !ok || !b.open {
		return true
	}
	return !time.Now().Before(b.openUntil)
}

// nodeFailed records a failed attempt against the node, opening (or
// re-opening, after a failed half-open probe) its breaker at the
// threshold.
func (r *Router) nodeFailed(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[node]
	if !ok {
		return
	}
	b.fails++
	if b.fails < r.cfg.BreakerThreshold {
		return
	}
	if !b.open {
		b.open = true
		if ns, ok := r.stats[node]; ok {
			ns.BreakerOpens++
		}
		r.rec.Record(obs.Event{
			UnixNano: time.Now().UnixNano(), Kind: obs.EvBreakerOpen, Backend: node,
			Cause: fmt.Sprintf("%d consecutive failures", b.fails),
		})
		// Dump the recorder tail with the warning: the events leading up
		// to a breaker trip are exactly what the ring exists to explain.
		var tail strings.Builder
		r.rec.WriteTail(&tail, evictDumpTail)
		slog.Warn("serve: router breaker opened",
			"node", node, "consecutive_failures", b.fails,
			"cooldown", r.cfg.BreakerCooldown, "recent_events", tail.String())
	}
	b.openUntil = time.Now().Add(r.cfg.BreakerCooldown)
}

// nodeOK records a successful attempt, closing the node's breaker.
func (r *Router) nodeOK(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[node]
	if !ok {
		return
	}
	if b.open {
		b.open = false
		if ns, ok := r.stats[node]; ok {
			ns.BreakerCloses++
		}
		r.rec.Record(obs.Event{
			UnixNano: time.Now().UnixNano(), Kind: obs.EvBreakerClose, Backend: node,
			Cause: "half-open probe succeeded",
		})
		slog.Info("serve: router breaker closed", "node", node)
	}
	b.fails = 0
}

// RouterSession is one durable session driven through the router. It is
// not safe for concurrent use.
type RouterSession struct {
	r   *Router
	key string
	req OpenRequest

	nodes   []string // failover order for the key, primary first
	nodeIdx int      // current node (index into nodes)

	c      *Client
	sess   *ClientSession
	snap   []byte      // last fetched snapshot blob — the failover token
	placed bool        // session counted in a node's Sessions roll-up
	rng    *xrand.Rand // recovery-backoff jitter (seeded per key: replayable, decorrelated)
}

// Open places (or resumes) the keyed session on its ring node. The key
// is required: anonymous sessions have no identity to recover.
func (r *Router) Open(key string, req OpenRequest) (*RouterSession, error) {
	if key == "" {
		return nil, fmt.Errorf("serve: router sessions require a key")
	}
	req.Key = key
	rs := &RouterSession{r: r, key: key, req: req, nodes: r.nodesFor(key), rng: jitterRand(r.cfg.Client.Seed, key)}
	if err := rs.establish(); err != nil {
		return nil, err
	}
	r.bump(rs.Node(), func(ns *NodeStats) { ns.Sessions++ })
	rs.placed = true
	return rs, nil
}

// Node returns the node currently hosting the session.
func (rs *RouterSession) Node() string { return rs.nodes[rs.nodeIdx] }

// Session returns the underlying client session (nil between a failed
// operation and its recovery).
func (rs *RouterSession) Session() *ClientSession { return rs.sess }

// recoverable classifies an error for the router: transport-level
// failures retry, and so does an unknown-session rejection — after a
// node restart or idle eviction the keyed re-open restores the session
// from its checkpoint.
//
// A corrupt frame (ErrCorrupt locally, ErrCodeCorrupt from the peer) is
// fatal for a plain client — the mangled exchange's fate is unknown, so
// resending the same bytes could double-apply — but recoverable here:
// the router drops the connection and resyncs its cursor and tallies
// from the server's authoritative snapshot instead of retrying bytes,
// preserving exactly-once.
func recoverable(err error) bool {
	if IsRetryable(err) {
		return true
	}
	if errors.Is(err, ErrCorrupt) {
		return true
	}
	var re *RemoteError
	return errors.As(err, &re) && (re.Code == ErrCodeUnknownSession || re.Code == ErrCodeCorrupt)
}

// harvestBusy folds the current connection's busy-retry count into the
// hosting node's roll-up. Called exactly once per connection, at the
// point the connection is dropped or retired.
func (rs *RouterSession) harvestBusy() {
	if rs.c == nil {
		return
	}
	if n := rs.c.BusyRetries(); n > 0 {
		rs.r.bump(rs.Node(), func(ns *NodeStats) { ns.BusyRetries += n })
	}
}

// dropConn tears down the session's connection (after harvesting its
// roll-ups); safe when no connection is held.
func (rs *RouterSession) dropConn() {
	if rs.c == nil {
		return
	}
	rs.harvestBusy()
	rs.c.Close()
	rs.c, rs.sess = nil, nil
}

// reconnect makes one pass over the nodes (current first, then the ring
// failover order): dial, then open the session — by key on the current
// node, from the held snapshot blob on a failover node. It reports the
// last failure when every node refused.
//
// The pass consults the per-node circuit breakers: nodes whose breaker
// is open (recent consecutive failures, cooldown not yet expired) are
// skipped, so a flapping node is routed around instead of hammered. If
// every node is skipped the pass fails open and retries them all anyway
// — with a single-node cluster (or a full outage) the breaker must
// degrade to plain capped-backoff retrying, never to giving up without
// trying.
func (rs *RouterSession) reconnect() error {
	err, attempted := rs.reconnectPass(true)
	if !attempted {
		// Every node was breaker-skipped without an attempt: fail open
		// and try them all.
		err, _ = rs.reconnectPass(false)
	}
	return err
}

// reconnectPass is one failover sweep. respectBreakers skips
// breaker-open nodes; attempted=false (always with err=nil) means every
// node was skipped.
func (rs *RouterSession) reconnectPass(respectBreakers bool) (err error, attempted bool) {
	var lastErr error
	for try := 0; try < len(rs.nodes); try++ {
		idx := (rs.nodeIdx + try) % len(rs.nodes)
		node := rs.nodes[idx]
		if respectBreakers && !rs.r.nodeAvailable(node) {
			continue
		}
		attempted = true
		c, err := DialConfig(node, rs.r.cfg.Client)
		var sess *ClientSession
		if err == nil {
			if sess, err = rs.openOn(c, idx); err != nil {
				c.Close()
				if !recoverable(err) {
					return err, true
				}
			}
		}
		if err != nil {
			lastErr = err
			rs.r.nodeFailed(node)
			rs.r.bump(node, func(ns *NodeStats) { ns.Retries++ })
			rs.r.rec.Record(obs.Event{
				UnixNano: time.Now().UnixNano(), Kind: obs.EvRetry,
				Key: rs.key, Backend: node, Cause: err.Error(),
			})
			continue
		}
		rs.r.nodeOK(node)
		if idx != rs.nodeIdx {
			rs.r.bump(node, func(ns *NodeStats) { ns.Failovers++ })
			rs.r.rec.Record(obs.Event{
				UnixNano: time.Now().UnixNano(), Kind: obs.EvFailover,
				Key: rs.key, Backend: node,
				Cause: "failed over from " + rs.nodes[rs.nodeIdx],
			})
			if rs.placed {
				// Move the placement roll-up with the session. A session
				// failing over during its initial Open is not counted yet
				// (Open bumps after establish succeeds) — transferring it
				// here would double-count it on the failover node.
				rs.r.bump(node, func(ns *NodeStats) { ns.Sessions++ })
				rs.r.bump(rs.nodes[rs.nodeIdx], func(ns *NodeStats) {
					if ns.Sessions > 0 {
						ns.Sessions--
					}
				})
			}
			rs.nodeIdx = idx
		}
		rs.c, rs.sess = c, sess
		return nil, true
	}
	return lastErr, attempted
}

func (rs *RouterSession) openOn(c *Client, idx int) (*ClientSession, error) {
	if idx != rs.nodeIdx && rs.snap != nil {
		// Failover: seed the replacement node with the last snapshot. If
		// the node already holds a live session for the key, the live
		// state wins server-side; either way the sync that follows reads
		// back the authoritative cursor.
		return c.OpenSnapshot(rs.snap)
	}
	return c.OpenSession(rs.req)
}

// retry runs op under the recovery policy: up to MaxRetries+1 attempts
// with the jittered, capped, doubling backoff between them. An error
// that recoverable rejects surfaces at once; an exhausted budget
// reports what failed.
func (rs *RouterSession) retry(what string, op func() error) error {
	cfg := rs.r.cfg
	bo := backoff{rng: rs.rng, base: cfg.RetryBackoff, max: maxRetryBackoff}
	var err error
	for attempt := 0; attempt <= cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			bo.sleep(0)
		}
		if err = op(); err == nil || !recoverable(err) {
			return err
		}
	}
	return fmt.Errorf("serve: session %q %s after %d attempts: %w", rs.key, what, cfg.MaxRetries+1, err)
}

// establish connects the session under the retry policy.
func (rs *RouterSession) establish() error {
	return rs.retry("found no reachable node", rs.reconnect)
}

// recoverAndSync is the full client-side recovery path: drop the broken
// connection, re-establish (same node, else failover), and resync local
// — tallies and replay cursor — from the server, all under the retry
// policy. The fetched snapshot becomes the new failover token.
//
// cause, the error that triggered the recovery, counts as a health
// strike against the hosting node's circuit breaker: a node whose
// connections keep dying mid-stream gets routed around like one that
// refuses dials. Overload (BusyError) is exempt — a shedding node is
// protecting itself, and opening its breaker would amplify load
// shedding into unavailability.
func (rs *RouterSession) recoverAndSync(cause error, local *sim.Result) error {
	var be *BusyError
	if !errors.As(cause, &be) {
		rs.r.nodeFailed(rs.Node())
	}
	err := rs.retry("is unrecoverable", func() error {
		rs.dropConn()
		if err := rs.reconnect(); err != nil {
			return err
		}
		return rs.sync(local)
	})
	if err != nil {
		return err
	}
	rs.r.bump(rs.Node(), func(ns *NodeStats) { ns.Recoveries++ })
	rs.r.rec.Record(obs.Event{
		UnixNano: time.Now().UnixNano(), Kind: obs.EvRecovery,
		Key: rs.key, Backend: rs.Node(), Cause: cause.Error(),
	})
	return nil
}

// sync adopts the server's tallies and cursor into local and keeps the
// snapshot blob they came from as the failover token.
func (rs *RouterSession) sync(local *sim.Result) error {
	blob, err := rs.sess.resync(local)
	if err != nil {
		return err
	}
	rs.snap = blob
	return nil
}

// Replay streams tr (truncated to limit records; 0 = full trace) through
// the routed session in batches of batchSize branches, surviving node
// crashes and failovers, and returns the final tallies labeled with the
// trace name — still bit-identical to an uninterrupted offline sim.Run
// over the same stream, because every recovery rewinds the reader to the
// server's cursor before continuing.
//
// Per-branch grades during a recovery window are re-served from the
// restored state (the tallies stay exact; a caller consuming grades live
// sees the affected batches again). When lat is non-nil one round-trip
// latency sample is recorded per served batch.
func (rs *RouterSession) Replay(tr trace.Trace, limit uint64, batchSize int, lat *obs.Histogram) (sim.Result, error) {
	local := sim.Result{Trace: tr.Name(), Config: rs.sess.Config(), Mode: rs.sess.mode}
	var err error
	if rs.sess.Resumed() > 0 {
		err = rs.sync(&local)
	}
	batch := newBatch(batchSize)
	batches := 0
	refresh := func() {
		batches++
		if batches%snapshotEvery == 0 {
			// Refresh the failover token. Best-effort: a failure here
			// means the connection is likely broken and the next Predict
			// runs the real recovery.
			if blob, serr := rs.sess.Snapshot(); serr == nil {
				rs.snap = blob
			}
		}
	}
	for {
		if err != nil {
			if !recoverable(err) {
				return sim.Result{}, err
			}
			if err := rs.recoverAndSync(err, &local); err != nil {
				return sim.Result{}, err
			}
		}
		var res sim.Result
		if res, err = rs.sess.stream(tr, limit, batch, lat, &local, refresh); err == nil {
			rs.dropConn()
			rs.r.bump(rs.Node(), func(ns *NodeStats) {
				if ns.Sessions > 0 {
					ns.Sessions--
				}
			})
			rs.placed = false
			return res, nil
		}
	}
}

// Close abandons the routed session client-side without retiring it on
// the server (Replay retires it on success). Safe to call after Replay.
func (rs *RouterSession) Close() error {
	if rs.c != nil {
		rs.harvestBusy()
		err := rs.c.Close()
		rs.c, rs.sess = nil, nil
		return err
	}
	return nil
}
