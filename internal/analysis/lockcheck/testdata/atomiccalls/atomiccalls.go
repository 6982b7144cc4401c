// Package atomiccalls is the lockcheck fixture for the sync/atomic
// rule: package-level atomic functions are reported however they are
// reached, and typed atomics are not.
package atomiccalls

import (
	"sync/atomic"
	at "sync/atomic"
)

type stats struct {
	n     int64
	typed atomic.Int64
	flag  atomic.Bool
}

func bump(s *stats) {
	atomic.AddInt64(&s.n, 1) // want "sync/atomic.AddInt64: keep shared values in typed atomics"
}

func read(s *stats) int64 {
	return at.LoadInt64(&s.n) // want "sync/atomic.LoadInt64"
}

// store takes the function as a value, which is as plain a route.
var store = atomic.StoreInt64 // want "sync/atomic.StoreInt64"

func typed(s *stats) int64 {
	s.typed.Add(1)
	s.flag.Store(true)
	var local atomic.Uint64
	local.Store(uint64(s.typed.Load()))
	return int64(local.Load())
}
