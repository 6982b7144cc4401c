package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// gate is how one metric is judged.
type gate struct {
	better string
	bound  float64 // 0 = no regression bound (per-layer metrics)
}

func loadGates(path string) (map[string]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	gates := make(map[string]gate)
	for _, m := range bf.EndToEnd {
		gates[m.Name] = gate{better: m.Better, bound: m.Bound}
	}
	for _, m := range bf.PerLayer {
		gates[m.Name] = gate{better: m.Better}
	}
	return gates, nil
}

// series is one file's values per (workload, metric), in run order, plus
// the hosts its runs measured on.
type series struct {
	values map[[2]string][]float64
	order  [][2]string
	units  map[[2]string]string
	hosts  map[string]bool
}

func readSeries(path string) (*series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := &series{values: make(map[[2]string][]float64), units: make(map[[2]string]string), hosts: make(map[string]bool)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line struct {
			Workload string   `json:"workload"`
			Metric   string   `json:"metric"`
			Value    *float64 `json:"value"`
			Unit     string   `json:"unit"`
			Host     string   `json:"host"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // not one of ours (build noise, result objects)
		}
		if line.Host != "" {
			s.hosts[line.Host] = true
		}
		if line.Metric == "" || line.Value == nil {
			continue
		}
		k := [2]string{line.Workload, line.Metric}
		if _, ok := s.values[k]; !ok {
			s.order = append(s.order, k)
			s.units[k] = line.Unit
		}
		s.values[k] = append(s.values[k], *line.Value)
	}
	return s, sc.Err()
}

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// verdict judges change against parent, pairing run i of each side:
//
//   - "improved": the change wins at least 9/10 of the pairs (ties count
//     for neither side) and the medians differ by more than the parent's
//     interquartile distance;
//   - "regressed": the change's median is worse than the parent's by more
//     than the bound (end-to-end metrics only);
//   - "worsened": the mirror of "improved", for metrics without a bound;
//   - "unresolved": too few pairs, or the parent's own spread is wider
//     than the bound and not every change run beats every parent run;
//   - "unchanged" otherwise.
func verdict(parent, change []float64, g gate) (string, int, int) {
	n := min(len(parent), len(change))
	sign := 1.0
	if g.better == "lower" {
		sign = -1
	}
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := sign * (change[i] - parent[i]); {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	if n < minPairs {
		return "unresolved", wins, n
	}
	mp, mc := median(parent), median(change)
	q1, q3 := quartiles(parent)
	iqr := q3 - q1
	gain := sign * (mc - mp)
	if g.bound > 0 && iqr > g.bound*abs(mp) {
		// Too noisy to bound, unless every change run beats every parent
		// run.
		dominates := quantile(change, 0) > quantile(parent, 1)
		if sign < 0 {
			dominates = quantile(change, 1) < quantile(parent, 0)
		}
		if dominates {
			return "improved", wins, n
		}
		return "unresolved", wins, n
	}
	switch {
	case 10*wins >= 9*n && gain > iqr:
		return "improved", wins, n
	case g.bound > 0 && -gain > g.bound*abs(mp):
		return "regressed", wins, n
	case g.bound == 0 && 10*losses >= 9*n && -gain > iqr:
		return "worsened", wins, n
	}
	return "unchanged", wins, n
}

// compareFiles prints, per (workload, metric), each side's median and
// quartiles, the pairs the change won, and the verdict.
func compareFiles(w io.Writer, parentPath, changePath, benchPath string) error {
	gates, err := loadGates(benchPath)
	if err != nil {
		return err
	}
	parent, err := readSeries(parentPath)
	if err != nil {
		return err
	}
	change, err := readSeries(changePath)
	if err != nil {
		return err
	}
	hosts := make(map[string]bool)
	for h := range parent.hosts {
		hosts[h] = true
	}
	for h := range change.hosts {
		hosts[h] = true
	}
	if len(hosts) > 1 {
		return fmt.Errorf("runs come from different hosts, not comparable: %s", strings.Join(sortedKeys(hosts), "; "))
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tparent median [q1, q3]\tchange median [q1, q3]\twins\tverdict")
	for _, k := range parent.order {
		g, known := gates[k[1]]
		c, ok := change.values[k]
		if !known || !ok {
			continue
		}
		p := parent.values[k]
		v, wins, n := verdict(p, c, g)
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g [%.6g, %.6g]\t%.6g [%.6g, %.6g]\t%d/%d\t%s\n",
			k[0], k[1], parent.units[k], median(p), pq1, pq3, median(c), cq1, cq3, wins, n, v)
	}
	return tw.Flush()
}
