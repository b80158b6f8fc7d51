// Command trimsim runs the paper-reproduction experiments and prints the
// tables/series each figure or table of the paper reports.
//
// Usage:
//
//	trimsim -list
//	trimsim -run fig9
//	trimsim -run fig8 -reps 10 -seed 7
//	trimsim -all
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"tcptrim/internal/aqm"
	"tcptrim/internal/cellcache"
	"tcptrim/internal/experiment"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/tcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trimsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
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
	switch {
	case *list:
		return writeList(os.Stdout)
	case *all:
		for _, eid := range experiment.IDs() {
			fmt.Printf("### %s\n\n", eid)
			if err := experiment.Run(eid, opts, os.Stdout); err != nil {
				return fmt.Errorf("%s: %w", eid, err)
			}
		}
		return nil
	case *id != "":
		return experiment.Run(*id, opts, os.Stdout)
	default:
		fs.Usage()
		return fmt.Errorf("one of -list, -run, -all is required")
	}
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
