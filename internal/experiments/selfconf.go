package experiments

import (
	"fmt"
	"io"

	"repro/internal/bimodal"
	"repro/internal/metrics"
	"repro/internal/ogehl"
	"repro/internal/perceptron"
	"repro/internal/predictor"
	"repro/internal/sim"
	"repro/internal/tage"
	"repro/internal/textplot"
	"repro/internal/workload"
)

// SelfConfidence reproduces the related-work characterization of §2.2:
// storage-free self-confidence across predictor families. The paper quotes
// the O-GEHL self-confidence as having "quite good PVN" (about one third
// of low-confidence predictions mispredict) "but only limited SPEC" (only
// about half of mispredictions are classified low confidence); Smith's
// saturated-counter confidence on the bimodal predictor is the original
// storage-free scheme; the perceptron's |sum| >= θ is Jiménez & Lin's.
// The TAGE storage-free estimator (high level vs rest) is this paper's.
type SelfConfidence struct {
	Rows []SelfConfidenceRow
}

// SelfConfidenceRow is one (predictor, self-confidence scheme) pair
// evaluated over CBP-1.
type SelfConfidenceRow struct {
	Name      string
	Storage   int // predictor storage in bits
	MPKI      float64
	Confusion metrics.Binary
}

// RunSelfConfidence evaluates each scheme over CBP-1.
func (r *Runner) RunSelfConfidence() (SelfConfidence, error) {
	var out SelfConfidence
	traces, err := workload.Suite("cbp1")
	if err != nil {
		return out, err
	}

	// Each scheme is a registry backend whose High grade is its intrinsic
	// confidence estimate: a saturated 2-bit counter (Smith), |sum| >= θ
	// (perceptron, O-GEHL).
	schemes := []struct {
		name    string
		storage int
		spec    predictor.Spec
	}{
		{"bimodal saturation (Smith)", bimodal.New(13).StorageBits(), predictor.MustParse("bimodal-16K")},
		{"perceptron |sum|>=theta", perceptron.New(9, 24).StorageBits(), predictor.MustParse("perceptron?hist=24&log=9")},
		{"O-GEHL |sum|>=theta", ogehl.DefaultConfig().StorageBits(), predictor.MustParse("ogehl")},
	}

	// The last spec is the paper's TAGE storage-free estimator (64 Kbit,
	// the size class of the O-GEHL configuration above). Each trace is
	// read once for every spec (runSpecs); totals merge in spec-major,
	// trace-minor order.
	var specs []predictor.Spec
	for _, s := range schemes {
		specs = append(specs, s.spec)
	}
	specs = append(specs, predictor.MustParse("tage-64K?mode=probabilistic"))
	cells, err := r.runSpecs(specs, traces)
	if err != nil {
		return out, err
	}
	nt := len(traces)
	suite := func(si int) sim.Result {
		var agg sim.Result
		for _, c := range cells[si*nt : (si+1)*nt] {
			agg.Add(c)
		}
		return agg
	}
	for si, s := range schemes {
		agg := suite(si)
		out.Rows = append(out.Rows, SelfConfidenceRow{
			Name:      s.name,
			Storage:   s.storage,
			MPKI:      agg.MPKI(),
			Confusion: agg.Binary(),
		})
	}
	// The TAGE row leaves misp/KI empty ("-"): its accuracy is Table 1's,
	// and this table compares confidence schemes.
	out.Rows = append(out.Rows, SelfConfidenceRow{
		Name:      "TAGE storage-free (this paper)",
		Storage:   tage.Medium64K().StorageBits(),
		Confusion: suite(len(schemes)).Binary(),
	})
	return out, nil
}

// Render writes the comparison table.
//
//repro:deterministic
func (s SelfConfidence) Render(w io.Writer) {
	header := []string{"scheme", "predictor bits", "misp/KI", "SENS", "PVP", "SPEC", "PVN"}
	var rows [][]string
	for _, r := range s.Rows {
		mpki := "-"
		if r.MPKI > 0 {
			mpki = fmt.Sprintf("%.2f", r.MPKI)
		}
		rows = append(rows, []string{
			r.Name,
			fmt.Sprintf("%d", r.Storage),
			mpki,
			fmt.Sprintf("%.3f", r.Confusion.Sens()),
			fmt.Sprintf("%.3f", r.Confusion.PVP()),
			fmt.Sprintf("%.3f", r.Confusion.Spec()),
			fmt.Sprintf("%.3f", r.Confusion.PVN()),
		})
	}
	textplot.Table(w, "Self-confidence schemes across predictor families (§2.2; CBP-1)", header, rows)
}
