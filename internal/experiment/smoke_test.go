package experiment

// Smoke tests for the registered runners' output paths (the heavy
// scenario assertions live in paper_test.go).

import (
	"os"
	"slices"
	"strings"
	"testing"
)

func TestSmokeImpairmentAQMOverride(t *testing.T) {
	// The -aqm plumbing end to end: a CoDel override must run and report
	// the drop split; a bad name must fail before simulating.
	var sb strings.Builder
	if err := Run("fig4", Options{AQM: "codel"}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "aqm-head") {
		t.Errorf("codel override produced no drop split in caption:\n%s", sb.String())
	}
	if err := Run("fig4", Options{AQM: "bogus"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "unknown discipline") {
		t.Errorf("bogus AQM name: err = %v", err)
	}
}

// TestRecoverySweepSmokeHonorsAQM: recoverysweep-smoke narrows its AQM
// axis to -aqm, so it lists "aqm" among the options it honors and its
// output changes with it.
func TestRecoverySweepSmokeHonorsAQM(t *testing.T) {
	if info, _ := Describe("recoverysweep-smoke"); !slices.Contains(info.Options, "aqm") {
		t.Errorf("recoverysweep-smoke options %v do not list aqm", info.Options)
	}
	var def, codel strings.Builder
	if err := Run("recoverysweep-smoke", Options{}, &def); err != nil {
		t.Fatal(err)
	}
	if err := Run("recoverysweep-smoke", Options{AQM: "codel"}, &codel); err != nil {
		t.Fatal(err)
	}
	if def.String() == codel.String() {
		t.Errorf("-aqm codel printed the default output:\n%s", def.String())
	}
}

func TestRunUnknownID(t *testing.T) {
	err := Run("nope", Options{}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "unknown id") {
		t.Errorf("err = %v", err)
	}
}

func TestWriteTableAlignment(t *testing.T) {
	tbl := &Table{
		Title:   "Demo",
		Header:  []string{"col", "longer column"},
		Rows:    [][]string{{"a-very-long-cell", "b"}, {"c", "d"}},
		Caption: "caption",
	}
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== Demo ==", "a-very-long-cell", "-- caption"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(out, "\n")
	// Header and first row must align on the second column.
	if strings.Index(lines[1], "longer column") != strings.Index(lines[2], "b") {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestNewCCAllProtocols(t *testing.T) {
	for _, p := range []Protocol{
		ProtoTCP, ProtoTRIM, ProtoDCTCP, ProtoL2DCT, ProtoCUBIC, ProtoGIP,
		ProtoTRIMNoProbe, ProtoTRIMNoQueue,
	} {
		policy, err := NewCC(p, 0)
		if err != nil {
			t.Errorf("NewCC(%s): %v", p, err)
			continue
		}
		if policy.Name() == "" {
			t.Errorf("NewCC(%s): empty name", p)
		}
	}
	if _, err := NewCC(Protocol("bogus"), 0); err == nil {
		t.Error("bogus protocol should error")
	}
}

func TestUsesECN(t *testing.T) {
	if !UsesECN(ProtoDCTCP) || !UsesECN(ProtoL2DCT) {
		t.Error("DCTCP/L2DCT need ECN")
	}
	if UsesECN(ProtoTCP) || UsesECN(ProtoTRIM) || UsesECN(ProtoCUBIC) {
		t.Error("non-ECN protocols flagged")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.seed() != 1 {
		t.Errorf("default seed = %d", o.seed())
	}
	if o.reps(3) != 3 {
		t.Errorf("default reps = %d", o.reps(3))
	}
	o = Options{Seed: 9, Reps: 5}
	if o.seed() != 9 || o.reps(3) != 5 {
		t.Errorf("explicit options ignored: %d %d", o.seed(), o.reps(3))
	}
}
