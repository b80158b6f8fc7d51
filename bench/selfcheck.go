package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// worseBy is the share by which b is worse than a for a metric whose
// better direction is given (negative when b is better).
func worseBy(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func readResult(path string) (result, error) {
	var r result
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles prints how result b stands against result a, and refuses
// when the two were not measured in the same environment.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare needs two result files")
	}
	a, err := readResult(paths[0])
	if err != nil {
		return err
	}
	b, err := readResult(paths[1])
	if err != nil {
		return err
	}
	if a.Workload != b.Workload || a.Quick != b.Quick || a.Traced != b.Traced || a.Seconds != b.Seconds {
		return fmt.Errorf("refusing to compare: %s (quick=%v traced=%v %gs) vs %s (quick=%v traced=%v %gs)",
			a.Workload, a.Quick, a.Traced, a.Seconds, b.Workload, b.Quick, b.Traced, b.Seconds)
	}
	if why := a.Env.comparable(b.Env); why != "" {
		return fmt.Errorf("refusing to compare across environments: %s", why)
	}
	fmt.Printf("%s: %s (%s) vs %s (%s)\n", a.Workload, paths[0], a.Env.Commit, paths[1], b.Env.Commit)
	defs := endToEnd
	if a.Traced {
		defs = perLayer
	}
	worse := 0
	for _, m := range defs {
		va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
		d := worseBy(m, va, vb)
		flag := ""
		if m.Bound > 0 && d > m.Bound {
			flag = "  WORSE THAN BOUND"
			worse++
		}
		fmt.Printf("%-34s %14.6g %14.6g %-6s %+7.2f%%%s\n", m.Name, va, vb, m.Unit, 100*d, flag)
	}
	if b.Failed > a.Failed {
		return fmt.Errorf("%d failed operations, was %d", b.Failed, a.Failed)
	}
	if worse > 0 {
		return fmt.Errorf("%d metrics worse than their bound", worse)
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) does.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	at := func(k int) float64 {
		pos := float64(k) * float64(len(xs)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(xs)-1 {
			j = len(xs) - 1
		}
		frac := pos - float64(j)
		return xs[j-1] + frac*(xs[j]-xs[j-1])
	}
	return at(1), at(2), at(3)
}

// selfCheckRuns is the number of runs in each of selfCheck's two sets.
const selfCheckRuns = 4

// selfCheck runs two interleaved sets (A, B, A, B, ...) of this same
// binary for each workload, every run with another seed, and fails when
// the two sets' medians disagree by more than a metric's bound: with
// identical code any disagreement is noise, so a failure here means the
// benchmark could not tell a regression from its own spread. A metric
// whose quartiles lie further apart than its bound within one set is
// marked unresolved.
func selfCheck(only string, seed int64, seconds float64, quick bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "selfcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	bad := 0
	for _, w := range workloads {
		if only != "" && only != w.name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*selfCheckRuns; i++ {
			path := filepath.Join(tmp, "run.json")
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(seed + int64(i)),
				"-seconds", fmt.Sprint(seconds), "-json", path}
			if quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(exe, args...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i, err)
			}
			res, err := readResult(path)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s run %d: %d of %d operations failed", w.name, i, res.Failed, res.Attempted)
			}
			for name, m := range res.Metrics {
				sets[i%2][name] = append(sets[i%2][name], m.Value)
			}
		}
		fmt.Printf("%s (%d runs per set)\n", w.name, selfCheckRuns)
		fmt.Printf("  %-12s %12s %12s %12s   %12s %12s %12s  %8s %6s\n",
			"metric", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "differ", "bound")
		for _, m := range endToEnd {
			a1, a2, a3 := quartiles(sets[0][m.Name])
			b1, b2, b3 := quartiles(sets[1][m.Name])
			d := math.Abs(worseBy(m, a2, b2))
			flag := ""
			switch {
			case d > m.Bound:
				flag = "  FAIL"
				bad++
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				// A set that spreads wider than the bound cannot show a
				// change of the bound's size: unresolved, not unchanged.
				flag = "  UNRESOLVED"
			}
			fmt.Printf("  %-12s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %7.2f%% %5.0f%%%s\n",
				m.Name, a1, a2, a3, b1, b2, b3, 100*d, 100*m.Bound, flag)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ between two sets of the same binary by more than their bound", bad)
	}
	return nil
}
