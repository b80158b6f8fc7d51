package experiment

// Options cross-validation, consolidated. Historically each knob was
// checked wherever it happened to be consumed — AQM/recovery/fidelity
// names inside individual runners, the packet-fidelity scale refusal in
// the million runner — so the CLI and any new entry point had to
// re-scatter the same checks. Validate is the one gate both trimsim and
// the experiment service's REST API call before running anything.

import (
	"fmt"

	"tcptrim/internal/hybrid"
)

// PacketFidelityMaxConns is the largest connection count a runner may
// materialize packet-by-packet; beyond it only hybrid fidelity is
// accepted (see CheckFidelityScale).
const PacketFidelityMaxConns = 100_000

// Validate checks the full Options surface in one place: field bounds
// (Reps) and every name-typed knob (AQM, Recovery, Fidelity).
// It returns the first violation, with the underlying parser's error
// for name typos so the caller sees the accepted values. A zero Options
// is always valid — every field's zero value means "default".
func (o Options) Validate() error {
	if o.Reps < 0 {
		return fmt.Errorf("experiment: reps must be >= 0 (got %d)", o.Reps)
	}
	if _, _, err := o.aqmOverride(); err != nil {
		return err
	}
	if _, _, err := o.recoveryOverride(); err != nil {
		return err
	}
	if _, err := o.fidelity(); err != nil {
		return err
	}
	return nil
}

// CheckFidelityScale refuses packet fidelity beyond
// PacketFidelityMaxConns connections — materializing that many
// packet-level connections is exactly what the hybrid layer exists to
// avoid. Runners that size their own topology (fig8million) call this
// once the connection count is known; Validate cannot, because the
// count is scenario state, not an Options field.
func CheckFidelityScale(fid hybrid.Fidelity, conns int) error {
	if fid == hybrid.FidelityPacket && conns > PacketFidelityMaxConns {
		return fmt.Errorf("experiment: %d connections at packet fidelity exceeds the %d-connection bound; use hybrid fidelity",
			conns, PacketFidelityMaxConns)
	}
	return nil
}
