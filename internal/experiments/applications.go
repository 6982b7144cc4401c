package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/fetchgate"
	"repro/internal/multipath"
	"repro/internal/smtpolicy"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Applications runs the three §2.1 confidence applications — pipeline
// gating/throttling (Manne et al.; Aragón et al.), SMT fetch policy (Luo
// et al.) and selective dual-path execution (Klauser et al.) — on
// representative traces, demonstrating the downstream value of the
// storage-free three-level estimator.
type Applications struct {
	Gating    []GatingRow
	SMT       []SMTRow
	Multipath []MultipathRow
}

// GatingRow is one (trace, policy) gating measurement.
type GatingRow struct {
	Trace     string
	Policy    string
	Reduction float64
	Slowdown  float64
}

// SMTRow is one SMT policy measurement on the co-run pair.
type SMTRow struct {
	Policy     string
	Throughput float64
	WrongPath  float64
}

// MultipathRow is one fork-policy measurement.
type MultipathRow struct {
	Policy       string
	IPC          float64
	Wasted       float64
	ForkAccuracy float64
}

// ApplicationTraces are the workloads the application models run on: a
// misprediction-bound trace, a server trace and a predictable one.
var ApplicationTraces = []string{"300.twolf", "SERV-2", "252.eon"}

// RunApplications executes all three application studies.
func (r *Runner) RunApplications() (Applications, error) {
	var out Applications
	opts := core.Options{Mode: core.ModeProbabilistic}
	cfg := tage.Small16K()

	// Pipeline gating and throttling: the flat (trace × policy) matrix
	// fans out across the pool; rows merge in trace-major, policy-minor
	// order, matching the serial reference.
	policies := []struct {
		name string
		cfg  fetchgate.Config
	}{
		{"balanced gate", fetchgate.DefaultConfig()},
		{"aggressive gate", fetchgate.AggressiveConfig()},
		{"throttle", func() fetchgate.Config {
			c := fetchgate.AggressiveConfig()
			c.ThrottleWidth = 1
			return c
		}()},
	}
	gatingTraces := make([]trace.Trace, len(ApplicationTraces))
	for i, name := range ApplicationTraces {
		tr, err := workload.ByName(name)
		if err != nil {
			return out, err
		}
		gatingTraces[i] = tr
	}
	gating := make([]GatingRow, len(gatingTraces)*len(policies))
	if err := r.Pool.ForEach(len(gating), func(i int) error {
		ti, pi := i/len(policies), i%len(policies)
		gated, base, err := fetchgate.Compare(cfg, opts, policies[pi].cfg, gatingTraces[ti], r.Limit)
		if err != nil {
			return err
		}
		s := fetchgate.Evaluate(gated, base)
		gating[i] = GatingRow{
			Trace:     ApplicationTraces[ti],
			Policy:    policies[pi].name,
			Reduction: s.WrongPathReduction,
			Slowdown:  s.Slowdown,
		}
		return nil
	}); err != nil {
		return out, err
	}
	out.Gating = gating

	// SMT fetch policies on a predictable/unpredictable thread pair; the
	// policy arms are independent co-run simulations.
	var pair []trace.Trace
	for _, n := range []string{"255.vortex", "300.twolf"} {
		tr, err := workload.ByName(n)
		if err != nil {
			return out, err
		}
		pair = append(pair, tr)
	}
	smtPolicies := []smtpolicy.Policy{smtpolicy.RoundRobin, smtpolicy.ICount, smtpolicy.ConfidenceThrottle}
	smt := make([]SMTRow, len(smtPolicies))
	if err := r.Pool.ForEach(len(smtPolicies), func(i int) error {
		sc := smtpolicy.DefaultConfig()
		sc.Policy = smtPolicies[i]
		st, err := smtpolicy.Run(cfg, opts, sc, pair, r.Limit)
		if err != nil {
			return err
		}
		smt[i] = SMTRow{
			Policy:     smtPolicies[i].String(),
			Throughput: st.Throughput(),
			WrongPath:  st.WrongPathFraction(),
		}
		return nil
	}); err != nil {
		return out, err
	}
	out.SMT = smt

	// Dual-path fork policies on the misprediction-bound trace.
	tw, err := workload.ByName("300.twolf")
	if err != nil {
		return out, err
	}
	all, err := multipath.Compare(cfg, opts, multipath.DefaultConfig(), tw, r.Limit)
	if err != nil {
		return out, err
	}
	for _, p := range []multipath.ForkPolicy{
		multipath.ForkNever, multipath.ForkLowConfidence,
		multipath.ForkLowOrMedium, multipath.ForkAlways,
	} {
		st := all[p]
		out.Multipath = append(out.Multipath, MultipathRow{
			Policy:       p.String(),
			IPC:          st.IPC(),
			Wasted:       st.WastedFraction(),
			ForkAccuracy: st.ForkAccuracy(),
		})
	}
	return out, nil
}

// Render writes the three application tables.
//
//repro:deterministic
func (a Applications) Render(w io.Writer) {
	var rows [][]string
	for _, r := range a.Gating {
		rows = append(rows, []string{
			r.Trace, r.Policy,
			fmt.Sprintf("%.1f%%", 100*r.Reduction),
			fmt.Sprintf("%.1f%%", 100*r.Slowdown),
		})
	}
	textplot.Table(w, "Application: pipeline gating / throttling (16Kbits TAGE)",
		[]string{"trace", "policy", "wrong-path reduction", "slowdown"}, rows)
	fmt.Fprintln(w)

	rows = nil
	for _, r := range a.SMT {
		rows = append(rows, []string{
			r.Policy,
			fmt.Sprintf("%.3f", r.Throughput),
			fmt.Sprintf("%.3f", r.WrongPath),
		})
	}
	textplot.Table(w, "Application: SMT fetch policy (vortex + twolf co-run)",
		[]string{"policy", "throughput (IPC)", "wrong-path fraction"}, rows)
	fmt.Fprintln(w)

	rows = nil
	for _, r := range a.Multipath {
		rows = append(rows, []string{
			r.Policy,
			fmt.Sprintf("%.2f", r.IPC),
			fmt.Sprintf("%.1f%%", 100*r.Wasted),
			fmt.Sprintf("%.0f%%", 100*r.ForkAccuracy),
		})
	}
	textplot.Table(w, "Application: selective dual-path execution (300.twolf)",
		[]string{"fork policy", "IPC", "wasted fetch", "fork accuracy"}, rows)
}
