// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout the simulator.
//
// The repository deliberately avoids math/rand in simulation hot paths:
// every source of randomness (the TAGE allocation policy, the probabilistic
// counter automaton, the synthetic workload generators) is an explicitly
// seeded stream so that every experiment is bit-reproducible across runs,
// platforms and Go versions.
//
// Two generators are provided:
//
//   - SplitMix64: a tiny stateless-style mixer, mainly used to derive seeds
//     and to hash integers.
//   - Rand: an xorshift64* stream generator, the workhorse for simulation
//     randomness. In a hardware implementation this role would be played by
//     an LFSR; any reasonable uniform source is behaviorally equivalent.
package xrand

// SplitMix64 advances the given state and returns a well-mixed 64-bit value.
// It implements the splitmix64 algorithm (Steele, Lea, Flood 2014), which is
// the standard way to expand a single seed into multiple independent seeds.
//
//repro:hotpath
func SplitMix64(state *uint64) uint64 {
	*state += 0x9E3779B97F4A7C15
	z := *state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Mix64 hashes a 64-bit value through the splitmix64 finalizer. It is used
// to derive decorrelated per-component seeds from (seed, component-id) pairs.
//
//repro:hotpath
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Rand is a deterministic xorshift64* pseudo-random generator.
// The zero value is not valid; use New.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because the all-zero state is a fixed point of
// xorshift.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Derive returns a new generator whose stream is decorrelated from r's,
// keyed by id. It does not disturb r's own stream.
func (r *Rand) Derive(id uint64) *Rand {
	d := &Rand{}
	r.DeriveInto(id, d)
	return d
}

// DeriveInto reseeds dst to the exact stream Derive(id) would return,
// without allocating. It lets callers that hold generators by value (a
// slice of per-site streams, a struct field) derive them in place.
//
//repro:hotpath
func (r *Rand) DeriveInto(id uint64, dst *Rand) {
	dst.Seed(Mix64(r.state ^ Mix64(id+0x9E3779B97F4A7C15)))
}

// Seed resets the generator state.
//
//repro:hotpath
func (r *Rand) Seed(seed uint64) {
	s := seed
	// Run the seed through splitmix64 twice so that small consecutive seeds
	// (0, 1, 2, ...) yield well-separated streams.
	v := SplitMix64(&s)
	v ^= SplitMix64(&s)
	if v == 0 {
		v = 0x9E3779B97F4A7C15
	}
	r.state = v
}

// State returns the raw generator state, for snapshot codecs. Restoring
// it with SetState reproduces the stream bit for bit; Seed would not,
// because it mixes the seed before storing it.
//
//repro:hotpath
func (r *Rand) State() uint64 { return r.state }

// SetState restores a state captured by State. A zero state — never
// produced by a seeded generator, but possible in a corrupt snapshot —
// is remapped to the same non-zero constant Seed uses, because the
// all-zero state is a fixed point of xorshift.
//
//repro:hotpath
func (r *Rand) SetState(s uint64) {
	if s == 0 {
		s = 0x9E3779B97F4A7C15
	}
	r.state = s
}

// Uint64 returns the next 64 bits from the stream.
//
//repro:hotpath
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Uint32 returns the next 32 bits from the stream.
//
//repro:hotpath
func (r *Rand) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
//
//repro:hotpath
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
//
//repro:hotpath
func (r *Rand) Float64() float64 {
	// 53 high-quality bits -> [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
//
//repro:hotpath
func (r *Rand) Bool() bool {
	return r.Uint64()&1 == 1
}

// WithProbability returns true with probability p (clamped to [0,1]).
//
//repro:hotpath
func (r *Rand) WithProbability(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// OneIn returns true with probability 1/n. It panics if n <= 0.
// OneIn(1) always returns true. For power-of-two n this compiles down to a
// mask test, mirroring how cheap the hardware LFSR test would be.
//
//repro:hotpath
func (r *Rand) OneIn(n int) bool {
	if n <= 0 {
		panic("xrand: OneIn called with n <= 0")
	}
	if n == 1 {
		return true
	}
	if n&(n-1) == 0 {
		return r.Uint64()&uint64(n-1) == 0
	}
	return r.Intn(n) == 0
}
