package main

import (
	"bufio"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// host identifies the machine a run measured on. Two outputs are
// comparable only when their host keys match: the same normalised CPU
// model, CPU count and GOMAXPROCS.
type host struct {
	CPU        string
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

func currentHost() host {
	return host{
		CPU:        normalizeCPU(cpuModel()),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// key is the string gates compare hosts by.
func (h host) key() string {
	return h.CPU + "|nproc=" + strconv.Itoa(h.NumCPU) + "|gomaxprocs=" + strconv.Itoa(h.GOMAXPROCS)
}

var (
	clockSuffix = regexp.MustCompile(`(?i)\s*@\s*[0-9.]+\s*[GM]Hz`)
	spaces      = regexp.MustCompile(`\s+`)
)

// normalizeCPU strips the "@ x.xxGHz" clock suffix and collapses runs of
// whitespace, so one CPU family reported with and without its clock (as
// virtualised hosts do) gets one key.
func normalizeCPU(model string) string {
	model = clockSuffix.ReplaceAllString(model, "")
	return strings.TrimSpace(spaces.ReplaceAllString(model, " "))
}

// cpuModel reads the first "model name" of /proc/cpuinfo, falling back to
// the architecture where the file is absent.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return v
		}
	}
	return runtime.GOARCH
}

// resetPeakRSS restarts the kernel's resident high-water mark at the
// current resident set (Linux "clear_refs" 5). Where that is unsupported
// the mark keeps covering the whole process lifetime.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB, or 0
// where /proc is unavailable.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
