package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesBenchmarkJSON keeps BENCHMARK.json equal to the
// tables the harness reports from, and the names within the contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(buf.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(file, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the harness tables; regenerate it with `bash bench/run.sh -manifest > BENCHMARK.json`")
	}

	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
}

// TestQuickRunsRepeat runs every workload at test size: the same seed
// twice must give the same simulated results, the same operation counts,
// no failure, the pinned digest and (nearly) the same allocations; a
// second seed must pass the checks that need no golden.
func TestQuickRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			run := func(seed int64) result {
				t.Helper()
				res, err := runWorkload(w, seed, 0, false, true, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("seed %d: correct=%v, %d of %d operations failed", seed, res.Correct, res.Failed, res.Attempted)
				}
				var names []string
				for _, m := range endToEnd {
					names = append(names, m.Name)
					if v := res.Metrics[m.Name]; v.Value <= 0 || v.Unit != m.Unit {
						t.Errorf("seed %d: %s = %v %q, want a positive value in %s", seed, m.Name, v.Value, v.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(names) {
					t.Errorf("seed %d: reported %d metrics, the manifest lists %v", seed, len(res.Metrics), names)
				}
				return res
			}
			a, b := run(1), run(1)
			if a.Digest != b.Digest || a.Attempted != b.Attempted {
				t.Errorf("same seed, different results: %s/%d vs %s/%d", a.Digest, a.Attempted, b.Digest, b.Attempted)
			}
			if a.Golden != "match" {
				t.Errorf("seed 1 digest %s: golden %s", a.Digest, a.Golden)
			}
			// The simulator allocates the same objects every time; the
			// HTTP server and client of cache_warm do not quite.
			tolerance := 0.02
			if w.name == "cache_warm" {
				tolerance = 0.10
			}
			for _, name := range []string{"alloc_mb", "mallocs"} {
				va, vb := a.Metrics[name].Value, b.Metrics[name].Value
				if math.Abs(va-vb) > tolerance*va {
					t.Errorf("%s: %v vs %v differ by more than %.0f%%", name, va, vb, 100*tolerance)
				}
			}
			if c := run(2); c.Golden != "none" {
				t.Errorf("seed 2: golden %s, want none", c.Golden)
			}
		})
	}
}

// TestCompareRefusesMismatchedStamps covers ROADMAP item 1(a): results
// from different environments are not comparable.
func TestCompareRefusesMismatchedStamps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r result) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	metrics := map[string]metricValue{}
	for _, m := range endToEnd {
		metrics[m.Name] = metricValue{1, m.Unit}
	}
	base := result{Workload: "tree_packet", Seconds: 20, Metrics: metrics,
		Env: envStamp{Commit: "a", GoVersion: "go1.24.0", CPU: "x", NProc: 2, GOMAXPROCS: 1}}
	other := base
	other.Env.Commit = "b"
	if err := compareFiles([]string{write("a.json", base), write("b.json", other)}); err != nil {
		t.Errorf("same environment, different commit: %v", err)
	}
	other.Env.GoVersion = "go1.25.0"
	err := compareFiles([]string{write("a.json", base), write("c.json", other)})
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Errorf("different Go versions compared: %v", err)
	}
	slower := base
	slower.Metrics = map[string]metricValue{}
	for name, m := range metrics {
		slower.Metrics[name] = m
	}
	slower.Metrics["wall_s"] = metricValue{1.5, "s"}
	if err := compareFiles([]string{write("a.json", base), write("d.json", slower)}); err == nil {
		t.Error("a 50% slower wall_s passed the comparison")
	}
}

// TestQuartilesMatchPython pins the estimator to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
