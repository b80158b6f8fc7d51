// Command trimsim runs the paper-reproduction experiments and prints the
// tables/series each figure or table of the paper reports.
//
// Usage:
//
//	trimsim -list
//	trimsim -run fig9
//	trimsim -run fig8 -reps 10 -seed 7
//	trimsim -all
//	trimsim -run fig8million -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"tcptrim/internal/aqm"
	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/tcp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trimsim:", err)
		os.Exit(1)
	}
}

// run parses args and runs what they ask for, printing tables to stdout.
func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("trimsim", flag.ContinueOnError)
	var (
		list   = fs.Bool("list", false, "list experiment ids with the options each honors, and exit")
		id     = fs.String("run", "", "experiment id to run (see -list)")
		all    = fs.Bool("all", false, "run every registered experiment")
		seed   = fs.Int64("seed", 1, "random seed")
		reps   = fs.Int("reps", 0, "repetitions for randomized scenarios (0 = default)")
		csvDir = fs.String("csv", "", "directory for CSV time-series export, in the runners that honor csv (see -list)")
		aqmSel = fs.String("aqm", "", "switch queue discipline override, in the runners that honor aqm (see -list; "+
			strings.Join(aqm.Names(), ", ")+"; default: each scenario's drop-tail)")
		recSel = fs.String("recovery", "", "TCP loss-recovery policy override, in the runners that honor recovery (see -list; "+
			strings.Join(tcp.RecoveryNames(), ", ")+"; default: each scenario's classic)")
		fidSel = fs.String("fidelity", "", "connection simulation fidelity, in the runners that honor it (see -list; "+
			strings.Join(hybrid.Names(), ", ")+"; default: packet, except fig8million which defaults to hybrid)")
		cacheDir = fs.String("cache", "", "result store directory, shared with trimsvc -cache: a run already stored "+
			"at this code version is printed whole, and sweep cells already computed are reassembled instead of re-simulated")
		cacheForce = fs.Bool("cache-force", false, "allow -cache without a VCS-stamped build (unsound across differing dev builds)")
		cpuProf    = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (runtime/pprof; the tables do not change)")
		memProf    = fs.String("memprofile", "", "write a heap profile to this file when the run ends (runtime/pprof; the tables do not change)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := experiment.Options{Seed: *seed, Reps: *reps, CSVDir: *csvDir, AQM: *aqmSel,
		Recovery: *recSel, Fidelity: *fidSel}
	// One consolidated gate (shared with the trimsvc REST API) checks
	// every option up front, so a typo fails before any simulation runs.
	if err := opts.Validate(); err != nil {
		return err
	}
	if *cacheDir != "" {
		// Same refusal rule as trimsvc -cache: a persistent store keyed
		// by an unstamped "dev" version would mix results from differing
		// builds. `go build` in a committed tree stamps the revision;
		// `go run` and dirty trees need -cache-force.
		if err := cellcache.ValidatePersistent(cellcache.CodeVersion(), *cacheForce); err != nil {
			return err
		}
		store, err := cellcache.Open(*cacheDir)
		if err != nil {
			return err
		}
		opts.Cache = store
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("create csv dir: %w", err)
		}
	}
	stop, err := profile(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	switch {
	case *list:
		return writeList(stdout)
	case *all:
		for _, eid := range experiment.IDs() {
			fmt.Fprintf(stdout, "### %s\n\n", eid)
			if err := experiment.Run(eid, opts, stdout); err != nil {
				return fmt.Errorf("%s: %w", eid, err)
			}
		}
		return nil
	case *id != "":
		return experiment.Run(*id, opts, stdout)
	default:
		fs.Usage()
		return fmt.Errorf("one of -list, -run, -all is required")
	}
}

// profile starts a CPU profile into cpuFile, if one is named, and returns
// the function that ends the run's profiling: it stops the CPU profile and
// writes a heap profile into memFile, if one is named. What they record
// reaches no table and no cache key.
func profile(cpuFile, memFile string) (stop func() error, err error) {
	var cpu *os.File
	if cpuFile != "" {
		if cpu, err = os.Create(cpuFile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memFile != "" {
			errs = append(errs, writeHeapProfile(memFile))
		}
		return errors.Join(errs...)
	}, nil
}

// writeHeapProfile writes the heap profile as of a collection made now,
// so that its in-use figures are the run's end, not its last cycle.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeList prints the runner registry as an aligned id/description
// table, each line ending with the options the runner honors — the same
// metadata GET /v1/runners serves.
func writeList(w io.Writer) error {
	infos := experiment.Runners()
	width := 0
	for _, info := range infos {
		if len(info.ID) > width {
			width = len(info.ID)
		}
	}
	for _, info := range infos {
		honors := ""
		if len(info.Options) > 0 {
			honors = " [" + strings.Join(info.Options, " ") + "]"
		}
		if _, err := fmt.Fprintf(w, "%-*s  %s%s\n", width, info.ID, info.Description, honors); err != nil {
			return err
		}
	}
	return nil
}
