package experiment

import (
	"fmt"
	"io"

	"tcptrim/internal/conformance"
)

// conformanceSeeds is the default size of the seed matrix the shadow
// executor sweeps: each seed is one randomized ON/OFF workload over a
// fault-injected bottleneck, replayed through the live TRIM policy and
// the paper-pseudocode Oracle in lockstep (DESIGN.md §7).
const conformanceSeeds = 64

// RunConformance sweeps reps randomized scenarios (seeded from base via
// SplitSeed, so the matrix is worker-count independent) and returns the
// per-scenario summaries. Any divergence is an error: the first failing
// scenario is shrunk with the delta-debugging minimizer and reported
// with its divergence trace.
func RunConformance(base int64, reps int, w io.Writer) error {
	type row struct {
		seed int64
		desc string
		res  *conformance.Result
	}
	rows, err := RunSeededTrials(reps, base, func(i int, seed int64) (row, error) {
		sc := conformance.GenScenario(seed)
		res, err := conformance.RunScenario(sc)
		if err != nil {
			return row{}, fmt.Errorf("scenario %d (seed %d): %w", i, seed, err)
		}
		return row{seed: seed, desc: sc.Describe(), res: res}, nil
	})
	if err != nil {
		return err
	}

	tbl := &Table{
		Title: fmt.Sprintf("Paper-conformance shadow sweep (%d scenarios)", reps),
		Header: []string{"scenario", "seed", "workload", "hooks", "probe rounds",
			"probe timeouts", "queue cuts", "RTOs", "divergences"},
	}
	var hooks, rounds, timeouts, cuts, divs int
	for i, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(i), fmt.Sprint(r.seed), r.desc,
			fmt.Sprint(r.res.Hooks), fmt.Sprint(r.res.ProbeRounds),
			fmt.Sprint(r.res.ProbeTimeouts), fmt.Sprint(r.res.QueueReductions),
			fmt.Sprint(r.res.Timeouts), fmt.Sprint(r.res.Total)})
		hooks += r.res.Hooks
		rounds += r.res.ProbeRounds
		timeouts += r.res.ProbeTimeouts
		cuts += r.res.QueueReductions
		divs += r.res.Total
	}
	if err := tbl.Write(w); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntotal: %d hooks, %d probe rounds (%d timed out), %d queue cuts, %d divergences\n",
		hooks, rounds, timeouts, cuts, divs)

	if divs == 0 {
		fmt.Fprintf(w, "live policy and paper oracle agree on every scenario\n")
		return nil
	}

	// Report the first diverging scenario, minimized.
	for _, r := range rows {
		if r.res.Total == 0 {
			continue
		}
		fmt.Fprintf(w, "\nseed %d diverged (%d divergences):\n", r.seed, r.res.Total)
		for _, d := range r.res.Divergences {
			fmt.Fprintf(w, "  %s\n", d)
		}
		min := conformance.MinimizeFailing(conformance.GenScenario(r.seed))
		fmt.Fprintf(w, "minimized reproduction: seed=%d %s trains=%v\n",
			min.Seed, min.Describe(), min.Trains)
		if res, err := conformance.RunScenario(min); err == nil && len(res.Divergences) > 0 {
			last := res.Divergences[0]
			fmt.Fprintf(w, "trace to first divergence:\n")
			for _, line := range last.Trace {
				fmt.Fprintf(w, "  %s\n", line)
			}
		}
		break
	}
	return fmt.Errorf("conformance: %d divergences between core.Trim and the paper oracle", divs)
}

var _ = register("conformance",
	"Paper-conformance oracle: shadow-execute Algorithms 1-2 against the live TRIM policy over a seed matrix",
	[]string{"reps"},
	func(opts Options, w io.Writer) error {
		return RunConformance(opts.seed(), opts.reps(conformanceSeeds), w)
	})
