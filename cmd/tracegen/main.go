// Command tracegen generates, inspects and exports the synthetic branch
// traces standing in for the CBP-1/CBP-2 sets.
//
// Usage:
//
//	tracegen -list
//	tracegen -trace 181.mcf -stats
//	tracegen -trace SERV-2 -branches 100000 -out serv2.tbt
//	tracegen -in serv2.tbt -stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list available traces")
		traceName = flag.String("trace", "", "trace to generate")
		inFile    = flag.String("in", "", "read a serialized trace file instead of generating")
		outFile   = flag.String("out", "", "write the trace to this file (binary TBT1 format)")
		branches  = flag.Uint64("branches", 0, "branch records (0 = full trace)")
		stats     = flag.Bool("stats", false, "print stream statistics")
	)
	flag.Parse()

	if *list {
		fmt.Printf("traces: %s\n", strings.Join(workload.TraceNames(), ", "))
		return
	}

	var tr trace.Trace
	switch {
	case *inFile != "":
		// The file is loaded whole (16 bytes per record); a malformed
		// file fails here with trace.ErrBadFormat.
		t, err := trace.ReadFile(*inFile)
		if err != nil {
			fatal(err)
		}
		tr = trace.Limit(t, *branches)
	case *traceName != "":
		t, err := workload.ByName(*traceName)
		if err != nil {
			fatal(err)
		}
		tr = trace.Limit(t, *branches)
	default:
		fatal(fmt.Errorf("specify -trace or -in (or -list)"))
	}

	if *outFile != "" {
		if err := trace.WriteFile(*outFile, tr); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outFile)
	}
	if *stats || *outFile == "" {
		s, err := trace.Measure(tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %s\n", tr.Name(), s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
