// Command bench is the repository's benchmark: four long, repeatable
// workloads measured end to end, and a traced run that adds per-layer
// drivers. BENCHMARK.json at the repository root names the workloads and
// metrics; bench/README.md has the procedure and reference numbers.
//
//	bash bench/run.sh --workload tree_packet --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload cache_warm --seed 1 --seconds 20 --trace 1
//	bash bench/run.sh -selfcheck
//	bash bench/run.sh -compare a.json b.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

//go:embed golden.json
var goldenJSON []byte

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (-manifest prints them)")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", runSeconds, "run length the number of timed iterations is sized for")
		trace    = flag.Int("trace", 0, "1 = traced run: record spans, run the layer drivers, print per-layer metrics")
		quick    = flag.Bool("quick", false, "test-sized inputs and 3 iterations (what go test runs)")
		jsonOut  = flag.String("json", "", "also write the environment-stamped result to this file")
		outDir   = flag.String("outdir", "out", "directory a traced run writes its spans to")
		update   = flag.Bool("update-golden", false, "rewrite golden.json in the current directory from this run (seed 1)")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
		compare  = flag.Bool("compare", false, "compare two -json results given as arguments")
		self     = flag.Bool("selfcheck", false, "run two interleaved sets of every workload and compare their medians")
		cold     = flag.Bool("coldstart", false, "open the workload, make one iteration, print its digest and exit (what a run times for setup_s)")
	)
	flag.Parse()

	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout)
	case *compare:
		err = compareFiles(flag.Args())
	case *self:
		err = selfCheck(*name, *seed, *seconds, *quick)
	default:
		w, ok := findWorkload(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q (-manifest prints them)", *name)
			break
		}
		if *cold {
			err = coldStart(w, *seed)
			break
		}
		var res result
		res, err = runWorkload(w, *seed, *seconds, *trace != 0, *quick, *outDir)
		if err != nil {
			break
		}
		if *update {
			err = updateGolden(res)
		}
		if err == nil && *jsonOut != "" {
			err = writeJSON(*jsonOut, res)
		}
		if err == nil {
			err = report(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runWorkload makes one run: end-to-end metrics from an untraced run, or
// per-layer metrics from a traced one.
func runWorkload(w workloadDef, seed int64, seconds float64, traced, quick bool, outDir string) (result, error) {
	res := result{Workload: w.name, Seed: seed, Seconds: seconds, Quick: quick, Traced: traced}
	res.Env = pinRuntime(w.procs)
	cfg := runConfig{seed: seed, quick: quick}

	var s samples
	var err error
	if traced {
		res.Metrics, s, err = tracedRun(w, cfg, outDir)
	} else {
		s, err = runIterations(w, cfg, w.timedIterations(seconds, quick))
		if err == nil && !quick {
			// A test-sized run keeps the set-up it timed in this process.
			var failed int
			s.setup, failed, err = coldStarts(w, seed, s.digest, s.ops)
			s.attempted, s.failed = s.attempted+failed, s.failed+failed
		}
		if err == nil {
			res.Metrics = endToEndMetrics(s)
		}
	}
	if err != nil {
		return res, err
	}
	res.Iterations, res.PartWall, res.SetupSamples = len(s.wall), fastestParts(s.wall), s.setup
	for _, parts := range s.wall {
		res.WallSamples = append(res.WallSamples, sumOf(parts))
	}
	res.Digest = s.digest
	res.Attempted, res.Failed = s.attempted, s.failed
	res.Golden = checkGolden(res)
	if res.Golden == "mismatch" {
		// The simulated results are not the pinned ones: nothing counts.
		res.Failed = res.Attempted
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// goldenKey names a run's entry in golden.json.
func goldenKey(res result) string {
	if res.Quick {
		return "quick/" + res.Workload
	}
	return res.Workload
}

// checkGolden compares a seed-1 digest with the pinned one.
func checkGolden(res result) string {
	var golden map[string]string
	if res.Seed != 1 || json.Unmarshal(goldenJSON, &golden) != nil {
		return "none"
	}
	switch want, ok := golden[goldenKey(res)]; {
	case !ok:
		return "none"
	case want == res.Digest:
		return "match"
	}
	return "mismatch"
}

func updateGolden(res result) error {
	if res.Seed != 1 {
		return fmt.Errorf("-update-golden needs -seed 1")
	}
	golden := map[string]string{}
	if data, err := os.ReadFile("golden.json"); err == nil {
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("golden.json: %w", err)
		}
	}
	golden[goldenKey(res)] = res.Digest
	return writeJSON("golden.json", golden)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// report prints every metric by name with its unit, then the one-line
// result object the driver reads.
func report(res result) error {
	fmt.Printf("# %s seed=%d iterations=%d golden=%s commit=%s %s cpu=%q nproc=%d gomaxprocs=%d\n",
		res.Workload, res.Seed, res.Iterations, res.Golden,
		res.Env.Commit, res.Env.GoVersion, res.Env.CPU, res.Env.NProc, res.Env.GOMAXPROCS)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
