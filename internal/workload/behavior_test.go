package workload

import (
	"math"
	"testing"

	"repro/internal/history"
	"repro/internal/xrand"
)

func newEnv(seed uint64) *Env {
	return &Env{Rand: xrand.New(seed), hist: history.NewBuffer(histCapacity)}
}

func run(inst Instance, env *Env, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = inst.Next(env)
		env.hist.Push(out[i])
	}
	return out
}

func TestConstBehavior(t *testing.T) {
	env := newEnv(1)
	for _, taken := range []bool{true, false} {
		inst := Const{Taken: taken}.New(env.Rand)
		for i, v := range run(inst, env, 50) {
			if v != taken {
				t.Fatalf("Const{%v} produced %v at step %d", taken, v, i)
			}
		}
	}
}

func TestLoopBehavior(t *testing.T) {
	env := newEnv(2)
	inst := Loop{Trip: 4}.New(env.Rand)
	got := run(inst, env, 12)
	want := []bool{true, true, true, false, true, true, true, false, true, true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Loop{4} step %d = %v, want %v (seq %v)", i, got[i], want[i], got)
		}
	}
}

func TestLoopTripOne(t *testing.T) {
	env := newEnv(3)
	inst := Loop{Trip: 1}.New(env.Rand)
	for i, v := range run(inst, env, 20) {
		if v {
			t.Fatalf("Loop{1} must never be taken; taken at %d", i)
		}
	}
}

func TestLoopTripZeroClamped(t *testing.T) {
	env := newEnv(4)
	inst := Loop{Trip: 0}.New(env.Rand)
	// Must not panic or divide by zero; behaves as Trip 1.
	for _, v := range run(inst, env, 10) {
		if v {
			t.Fatal("clamped Loop{0} should behave as never-taken")
		}
	}
}

func TestVarLoopTripsWithinBounds(t *testing.T) {
	env := newEnv(5)
	inst := VarLoop{Min: 3, Max: 7}.New(env.Rand)
	// Measure run lengths of consecutive takens between not-takens.
	runLen := 0
	seen := 0
	for i := 0; i < 5000; i++ {
		if inst.Next(env) {
			runLen++
		} else {
			trip := runLen + 1
			if trip < 3 || trip > 7 {
				t.Fatalf("observed trip %d outside [3,7]", trip)
			}
			runLen = 0
			seen++
		}
	}
	if seen < 100 {
		t.Fatalf("too few loop exits observed: %d", seen)
	}
}

func TestVarLoopDegenerateBounds(t *testing.T) {
	env := newEnv(6)
	inst := VarLoop{Min: 5, Max: 2}.New(env.Rand) // max < min -> fixed trip 5
	runLen := 0
	for i := 0; i < 100; i++ {
		if inst.Next(env) {
			runLen++
		} else {
			if runLen+1 != 5 {
				t.Fatalf("degenerate VarLoop trip = %d, want 5", runLen+1)
			}
			runLen = 0
		}
	}
}

func TestBiasedRate(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		env := newEnv(uint64(p * 1000))
		inst := Biased{P: p}.New(env.Rand)
		const n = 60000
		taken := 0
		for i := 0; i < n; i++ {
			if inst.Next(env) {
				taken++
			}
		}
		got := float64(taken) / n
		if math.Abs(got-p) > 0.02 {
			t.Errorf("Biased{%v} rate = %v", p, got)
		}
	}
}

func TestPatternPeriodicity(t *testing.T) {
	env := newEnv(7)
	bits := []bool{true, false, false, true, true}
	inst := Pattern{Bits: bits}.New(env.Rand)
	got := run(inst, env, 15)
	for i := range got {
		if got[i] != bits[i%5] {
			t.Fatalf("pattern mismatch at %d: %v", i, got)
		}
	}
}

func TestPatternEmptyDefaultsToTaken(t *testing.T) {
	env := newEnv(8)
	inst := Pattern{}.New(env.Rand)
	if !inst.Next(env) {
		t.Fatal("empty Pattern should default to a taken branch")
	}
}

func TestCorrelatedDeterministicXOR(t *testing.T) {
	env := newEnv(9)
	// Fill history with a known sequence: push outcomes manually.
	seq := []bool{true, false, true, true, false, false, true, false}
	for _, v := range seq {
		env.hist.Push(v)
	}
	// Lags 1 and 3: newest bit (false at lag 1... seq pushed in order, last
	// push = seq[7]=false) XOR bit at lag 3 (seq[5]=false) = false.
	inst := Correlated{Lags: []int{1, 3}}.New(env.Rand)
	got := inst.Next(env)
	want := seq[7] != seq[5]
	if got != want {
		t.Fatalf("Correlated XOR = %v, want %v", got, want)
	}
	// Inverted.
	instInv := Correlated{Lags: []int{1, 3}, Invert: true}.New(env.Rand)
	if instInv.Next(env) != !want {
		t.Fatal("Invert must flip the outcome")
	}
}

func TestCorrelatedIsLearnableFunctionOfHistory(t *testing.T) {
	// With zero noise, identical history windows must give identical
	// outcomes — the property that makes the branch predictable.
	envA := newEnv(10)
	envB := newEnv(11) // different rng — must not matter with Noise 0
	for _, v := range []bool{true, true, false, true} {
		envA.hist.Push(v)
		envB.hist.Push(v)
	}
	a := Correlated{Lags: []int{1, 2, 4}}.New(envA.Rand)
	b := Correlated{Lags: []int{1, 2, 4}}.New(envB.Rand)
	if a.Next(envA) != b.Next(envB) {
		t.Fatal("noise-free Correlated must be a pure function of history")
	}
}

func TestCorrelatedNoiseRate(t *testing.T) {
	env := newEnv(12)
	inst := Correlated{Lags: []int{1}, Noise: 0.25}.New(env.Rand)
	// With constant history (all not-taken), XOR = false; outcomes should be
	// taken ~25% of the time (noise flips).
	const n = 40000
	taken := 0
	for i := 0; i < n; i++ {
		if inst.Next(env) {
			taken++
		}
		// keep history all-false
		env.hist.Push(false)
	}
	got := float64(taken) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("noise rate = %v, want ~0.25", got)
	}
}

func TestCorrelatedDefaultLag(t *testing.T) {
	env := newEnv(13)
	env.hist.Push(true)
	inst := Correlated{}.New(env.Rand)
	if !inst.Next(env) {
		t.Fatal("default Correlated should mirror previous outcome")
	}
}

func TestPhasedSwitchesBehavior(t *testing.T) {
	env := newEnv(14)
	inst := Phased{
		Phases: []Behavior{Const{Taken: true}, Const{Taken: false}},
		Period: 10,
	}.New(env.Rand)
	got := run(inst, env, 40)
	for i := 0; i < 10; i++ {
		if !got[i] {
			t.Fatalf("phase 0 step %d should be taken", i)
		}
	}
	for i := 10; i < 20; i++ {
		if got[i] {
			t.Fatalf("phase 1 step %d should be not-taken", i)
		}
	}
	for i := 20; i < 30; i++ {
		if !got[i] {
			t.Fatalf("wrapped phase 0 step %d should be taken", i)
		}
	}
}

func TestPhasedEmptyPhases(t *testing.T) {
	env := newEnv(15)
	inst := Phased{Period: 5}.New(env.Rand)
	if !inst.Next(env) {
		t.Fatal("empty Phased should degrade to constant taken")
	}
}

func TestPhasedPeriodClamped(t *testing.T) {
	env := newEnv(16)
	inst := Phased{Phases: []Behavior{Const{true}, Const{false}}, Period: 0}.New(env.Rand)
	a, b := inst.Next(env), inst.Next(env)
	if a != true || b != false {
		t.Fatalf("period-0 clamps to 1: got %v,%v", a, b)
	}
}
