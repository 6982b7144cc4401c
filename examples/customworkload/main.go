// Custom workload: compose a synthetic program from branch-behavior
// archetypes, then inspect which confidence classes each kind of branch
// lands in — a direct view of the mechanism behind the paper's classes.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	// A small program with one branch of each character:
	//   - a constant guard            (never mispredicts -> high-conf-bim)
	//   - a trip-7 loop               (learned exactly -> Stag)
	//   - a period-12 pattern         (learned exactly -> Stag)
	//   - a 10%-noise pattern         (learned structure + residual -> NStag)
	//   - a 60/40 coin flip           (unlearnable -> weak tagged classes)
	//   - a phase-switching branch    (relearned at each switch -> medium/low)
	prog := workload.NewBuilder("custom", 2024).
		SetLength(400_000).
		Block(10, 40, 90,
			workload.S(workload.Const{Taken: true}),
			workload.S(workload.Loop{Trip: 7}),
		).
		Block(8, 24, 60,
			workload.S(workload.Pattern{Bits: []bool{true, true, false, true, false, true, true, true, false, true, true, false}}),
			workload.S(workload.Const{Taken: false}),
		).
		Block(6, 30, 70,
			workload.S(workload.Pattern{Bits: []bool{true, false, true, true, false, true, false}, Noise: 0.10}),
			workload.S(workload.Const{Taken: true}),
		).
		Block(3, 10, 25,
			workload.S(workload.Biased{P: 0.6}),
		).
		Block(4, 5, 15,
			workload.S(workload.Phased{
				Phases: []Behavior{workload.Biased{P: 0.95}, workload.Biased{P: 0.05}},
				Period: 6000,
			}),
			workload.S(workload.Const{Taken: true}),
		).
		MustBuild()

	est, err := repro.New("tage-16K?mode=probabilistic")
	if err != nil {
		log.Fatal(err)
	}
	reader := prog.Open()

	type tally struct {
		preds, misps uint64
		byClass      [repro.NumClasses]uint64
	}
	perSite := map[uint64]*tally{}
	for {
		b, err := reader.Next()
		if err != nil {
			break
		}
		pred, class, _ := est.Predict(b.PC)
		t := perSite[b.PC]
		if t == nil {
			t = &tally{}
			perSite[b.PC] = t
		}
		t.preds++
		if pred != b.Taken {
			t.misps++
		}
		t.byClass[class]++
		est.Update(b.PC, b.Taken)
	}

	fmt.Println("per-site dominant confidence class (16 Kbit TAGE, modified automaton)")
	fmt.Printf("%-4s %-10s %-10s %-9s %s\n", "site", "execs", "missrate", "dominant", "class distribution")
	for i, site := range prog.Sites {
		t := perSite[site.PC]
		if t == nil {
			continue
		}
		best := repro.Class(0)
		for c := repro.Class(1); c < repro.NumClasses; c++ {
			if t.byClass[c] > t.byClass[best] {
				best = c
			}
		}
		dist := ""
		for _, c := range repro.Classes() {
			if frac := float64(t.byClass[c]) / float64(t.preds); frac >= 0.05 {
				dist += fmt.Sprintf("%s=%.0f%% ", c, 100*frac)
			}
		}
		fmt.Printf("%-4d %-10d %-10.3f %-9s %s\n",
			i, t.preds, float64(t.misps)/float64(t.preds), best, dist)
	}
	if len(perSite) == 0 {
		log.Fatal("no sites executed")
	}
}

// Behavior re-exported for the composite literal above.
type Behavior = workload.Behavior
