package experiment

import (
	"io"
	"strings"
	"testing"

	"tcptrim/internal/hybrid"
)

// TestValidateAcceptsDefaults: the zero Options and every knob's
// canonical values pass.
func TestValidateAcceptsDefaults(t *testing.T) {
	valid := []Options{
		{},
		{Seed: 42, Reps: 10},
		{AQM: "codel", Recovery: "rack-tlp", Fidelity: "hybrid"},
		{AQM: "droptail", Recovery: "classic", Fidelity: "packet"},
		{AQM: "red"}, {AQM: "ared"}, {AQM: "favour"},
		{Recovery: "tracks"},
	}
	for _, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", o, err)
		}
	}
}

// TestValidateRejections: one test per scattered check the
// consolidation absorbed — each malformed field is refused with a
// diagnosable error before any simulation starts.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		opts Options
		want string // substring of the error
	}{
		{"negative reps", Options{Reps: -1}, "reps"},
		{"unknown aqm", Options{AQM: "bogus"}, "unknown discipline"},
		{"unknown recovery", Options{Recovery: "bogus"}, "recovery"},
		{"unknown fidelity", Options{Fidelity: "bogus"}, "fidelity"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted invalid options", tc.opts)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunValidates: the registry entry point itself rejects malformed
// options for every runner, so no entry point (CLI, service) can skip
// the gate.
func TestRunValidates(t *testing.T) {
	err := Run("fig2", Options{Reps: -1}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "reps") {
		t.Errorf("Run with invalid reps: err = %v", err)
	}
}

// TestCheckFidelityScale pins the packet-fidelity refusal boundary at
// exactly PacketFidelityMaxConns.
func TestCheckFidelityScale(t *testing.T) {
	if err := CheckFidelityScale(hybrid.FidelityPacket, PacketFidelityMaxConns); err != nil {
		t.Errorf("at the bound: %v", err)
	}
	if err := CheckFidelityScale(hybrid.FidelityPacket, PacketFidelityMaxConns+1); err == nil ||
		!strings.Contains(err.Error(), "packet fidelity") {
		t.Errorf("beyond the bound: err = %v", err)
	}
	if err := CheckFidelityScale(hybrid.FidelityHybrid, 10*PacketFidelityMaxConns); err != nil {
		t.Errorf("hybrid at scale: %v", err)
	}
}

// TestRunnersMetadata: every registered runner carries a description,
// and the metadata listing matches IDs() — the single registry trimsim
// -list and GET /v1/runners share.
func TestRunnersMetadata(t *testing.T) {
	infos := Runners()
	ids := IDs()
	if len(infos) != len(ids) {
		t.Fatalf("Runners() has %d entries, IDs() %d", len(infos), len(ids))
	}
	for i, info := range infos {
		if info.ID != ids[i] {
			t.Errorf("Runners()[%d].ID = %q, want %q", i, info.ID, ids[i])
		}
		if info.Description == "" {
			t.Errorf("runner %q has no description", info.ID)
		}
		for _, opt := range info.Options {
			switch opt {
			case "reps", "csv", "aqm", "recovery", "fidelity":
			default:
				t.Errorf("runner %q declares unknown option %q", info.ID, opt)
			}
		}
	}
	if info, ok := Describe("fig4"); !ok || info.ID != "fig4" || info.Description == "" {
		t.Errorf("Describe(fig4) = %+v, %t", info, ok)
	}
}

// TestRegisterRejectsDuplicates: a shadowed figure id is an error, not
// a silent replacement.
func TestRegisterRejectsDuplicates(t *testing.T) {
	if err := Register(RunnerInfo{ID: "fig4", Description: "dup"},
		func(Options, io.Writer) error { return nil }); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := Register(RunnerInfo{ID: ""},
		func(Options, io.Writer) error { return nil }); err == nil {
		t.Error("empty id accepted")
	}
	if err := Register(RunnerInfo{ID: "x-nil-runner"}, nil); err == nil {
		t.Error("nil runner accepted")
	}
}
