package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// envStamp records the environment a result was measured in, so two
// results are only ever compared like for like (ROADMAP item 1(a)).
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// comparable reports why two stamps must not be compared, or "". The
// commit is what a comparison is about, so it may differ.
func (e envStamp) comparable(o envStamp) string {
	switch {
	case e.GoVersion != o.GoVersion:
		return fmt.Sprintf("go version %q vs %q", e.GoVersion, o.GoVersion)
	case e.CPU != o.CPU:
		return fmt.Sprintf("cpu %q vs %q", e.CPU, o.CPU)
	case e.NProc != o.NProc:
		return fmt.Sprintf("nproc %d vs %d", e.NProc, o.NProc)
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS)
	}
	return ""
}

// pinRuntime fixes the knobs that change host time without changing the
// program: the collector's pacing comes from the harness, not from the
// caller's environment, and a workload never gets more processors than
// it asks for or than the box has.
func pinRuntime(procs int) envStamp {
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(math.MaxInt64)
	if n := runtime.NumCPU(); procs > n {
		procs = n
	}
	runtime.GOMAXPROCS(procs)
	return envStamp{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: procs,
	}
}

// commit is the revision under test: run.sh exports it (the harness is
// built without VCS stamping so that it also builds outside a work tree).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the user+sys CPU time the process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's maximum resident set so far (Linux reports
// ru_maxrss in KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapCounters reads the bytes and objects allocated so far.
func heapCounters() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// liveHeap is the bytes of reachable heap objects, as a float so that
// two readings subtract without wrapping. It collects twice: an object
// with a finalizer is only freed by the cycle after the one that found
// it unreachable.
func liveHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
