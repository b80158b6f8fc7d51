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

// RunConformance sweeps reps randomized scenarios (seeded from the run's
// seed via SplitSeed, so the matrix is worker-count independent) and
// writes the per-scenario summaries. Any divergence is an error: the first
// failing scenario is shrunk with the delta-debugging minimizer and
// reported with its divergence trace.
func RunConformance(reps int, opts Options, w io.Writer) error {
	cells := make([]seededCell[int], reps)
	for i := range cells {
		cells[i] = seededCell[int]{i, SplitSeed(opts.seed(), i)}
	}
	rows, err := sweep(opts, "conformance", cells, func(c seededCell[int], opts Options) (*conformanceRow, error) {
		sc := conformance.GenScenario(c.Seed)
		res, err := conformance.RunScenario(sc, newSimEnv(opts).sched)
		if err != nil {
			return nil, fmt.Errorf("scenario %d (seed %d): %w", c.Value, c.Seed, err)
		}
		return &conformanceRow{Seed: c.Seed, Desc: sc.Describe(), Res: res}, nil
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
		tbl.Rows = append(tbl.Rows, []string{fmt.Sprint(i), fmt.Sprint(r.Seed), r.Desc,
			fmt.Sprint(r.Res.Hooks), fmt.Sprint(r.Res.ProbeRounds),
			fmt.Sprint(r.Res.ProbeTimeouts), fmt.Sprint(r.Res.QueueReductions),
			fmt.Sprint(r.Res.Timeouts), fmt.Sprint(r.Res.Total)})
		hooks += r.Res.Hooks
		rounds += r.Res.ProbeRounds
		timeouts += r.Res.ProbeTimeouts
		cuts += r.Res.QueueReductions
		divs += r.Res.Total
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
		if r.Res.Total == 0 {
			continue
		}
		fmt.Fprintf(w, "\nseed %d diverged (%d divergences):\n", r.Seed, r.Res.Total)
		for _, d := range r.Res.Divergences {
			fmt.Fprintf(w, "  %s\n", d)
		}
		sched := newSimEnv(opts).sched
		min := conformance.MinimizeFailing(conformance.GenScenario(r.Seed), sched)
		fmt.Fprintf(w, "minimized reproduction: seed=%d %s trains=%v\n",
			min.Seed, min.Describe(), min.Trains)
		if res, err := conformance.RunScenario(min, sched); err == nil && len(res.Divergences) > 0 {
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

// conformanceRow is one scenario's summary.
type conformanceRow struct {
	Seed int64               `json:"seed"`
	Desc string              `json:"desc"`
	Res  *conformance.Result `json:"res"`
}

var _ = register("conformance",
	"Paper-conformance oracle: shadow-execute Algorithms 1-2 against the live TRIM policy over a seed matrix",
	[]string{"reps"},
	func(opts Options, w io.Writer) error {
		return RunConformance(opts.reps(conformanceSeeds), opts, w)
	})
