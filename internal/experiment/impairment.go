package experiment

import (
	"fmt"
	"io"
	"time"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/metrics"
	"tcptrim/internal/netsim"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
	"tcptrim/internal/workload"
)

// Section II.B scenario constants: five servers behind a 100-packet
// switch buffer on 1 Gbps / 50 µs links; 200 responses of 2–10 KB per
// server from 0.1 s with 1 ms mean spacing; one long train (>128 KB) per
// server at 0.5 s; 200 ms RTO.
const (
	impairmentServers    = 5
	impairmentBuffer     = 100
	impairmentResponses  = 200
	impairmentLPTBytes   = 200 << 10
	impairmentRespMin    = 2 << 10
	impairmentRespMax    = 10 << 10
	impairmentRespMean   = time.Millisecond
	impairmentRespStart  = 100 * time.Millisecond
	impairmentLPTStart   = 500 * time.Millisecond
	impairmentHorizon    = 1500 * time.Millisecond
	impairmentRTO        = 200 * time.Millisecond
	impairmentSampleStep = time.Millisecond
)

// ImpairmentResult holds the Fig. 4 (TCP) / Fig. 6 (TCP-TRIM) outputs:
// the traced connection's throughput and window evolution, per-connection
// timeout counts, and the bottleneck queue behavior.
type ImpairmentResult struct {
	Protocol Protocol
	// TimeoutsPerConn is indexed by connection (server) number - 1.
	TimeoutsPerConn []int
	// TracedThroughput is connection 5's goodput in Mbps, 10 ms bins
	// (Fig. 4(a) / part of Fig. 6(a)).
	TracedThroughput *metrics.Series
	// TotalThroughput is the front-end's aggregate goodput in Mbps,
	// 10 ms bins (Fig. 6(a)).
	TotalThroughput *metrics.Series
	// TracedCwnd is connection 5's window in segments, 1 ms samples
	// (Fig. 4(b) / Fig. 6(b)).
	TracedCwnd *metrics.Series
	// CwndAtLPTStart is each connection's inherited window when the long
	// train is released.
	CwndAtLPTStart []float64
	// QueueMax / QueueDrops summarize the bottleneck queue. QueueDrops are
	// congestion drops only (tail, AQM early, and AQM head — split in
	// QueueStats); fault-layer losses appear in BottleneckFaults so the
	// two are never conflated.
	QueueMax   int
	QueueDrops int
	// QueueStats is the bottleneck queue's full ledger, including the
	// drop split by cause and the discipline's mark count.
	QueueStats netsim.QueueStats
	// BottleneckFaults are the bottleneck pipe's fault-injection counters
	// (all zero unless a caller armed injectors on the star's bottleneck).
	BottleneckFaults netsim.PipeStats
	// LPTCompletion is each connection's long-train completion time.
	LPTCompletion []time.Duration
	// AllDoneBy is when the last response or long train completed.
	AllDoneBy sim.Time
}

// TotalTimeouts sums timeouts across connections.
func (r *ImpairmentResult) TotalTimeouts() int {
	total := 0
	for _, n := range r.TimeoutsPerConn {
		total += n
	}
	return total
}

// RunImpairment executes the Section II.B many-to-one scenario under the
// given protocol.
func RunImpairment(proto Protocol, opts Options) (*ImpairmentResult, error) {
	if _, err := NewCC(proto, 0); err != nil {
		return nil, err
	}
	return runImpairmentCustom(string(proto), func() tcp.CongestionControl { return mustCC(proto, 0) }, opts)
}

// impairmentSnapshot is the cached payload of one fig4/fig6 run: the
// result (series included — Series round-trips exactly through JSON)
// plus the summary events a cold run publishes at completion, so a warm
// run can replay them to SSE watchers.
type impairmentSnapshot struct {
	Result  *ImpairmentResult        `json:"result"`
	Retrans httpapp.RetransBreakdown `json:"retrans"`
	FCT     *metrics.Snapshot        `json:"fct"`
}

// runImpairmentCustom is RunImpairment for an arbitrary policy
// constructor (used by the extension experiments). The whole scenario is
// one cache cell: there is no axis to decompose, but a warm re-run (say,
// an aqm sweep over fig6 driven by the service) still skips the
// simulation entirely.
func runImpairmentCustom(label string, newCC func() tcp.CongestionControl, opts Options) (*ImpairmentResult, error) {
	fid, err := opts.fidelity()
	if err != nil {
		return nil, err
	}
	spec := struct {
		Family   string `json:"family"`
		Label    string `json:"label"`
		AQM      string `json:"aqm,omitempty"`
		Fidelity string `json:"fidelity"`
		Seed     int64  `json:"seed"`
	}{"impairment", label, opts.AQM, string(fid), opts.seed()}
	snap, computed, err := cachedCell(opts, spec, func() (*impairmentSnapshot, error) {
		return runImpairmentSim(label, newCC, fid, opts)
	})
	if err != nil {
		return nil, err
	}
	res := snap.Result
	if !computed && opts.Progress != nil {
		// Replay for watchers what a cold run streamed live: the retained
		// series (whole series in sequence rather than interleaved by
		// timestamp — consumers demultiplex on Name) and the completion
		// summaries. Samplers whose output the result does not retain
		// (queue depth, running response count) stream on cold runs only.
		opts.replaySeries("traced-goodput-mbps", res.TracedThroughput)
		opts.replaySeries("total-goodput-mbps", res.TotalThroughput)
		opts.replaySeries("cwnd-segments", res.TracedCwnd)
		rb := snap.Retrans
		opts.publish(ProgressEvent{Kind: "retrans", Name: label, Retrans: &rb})
		opts.publish(ProgressEvent{Kind: "fct", Name: label, Dist: snap.FCT})
	}
	// CSV export runs on cold and warm paths alike: CSVDir is not part of
	// the cell key — it changes which files are written, never the result.
	prefix := "impairment-" + label
	if err := saveSeriesCSV(opts, prefix+"-cwnd", "segments", res.TracedCwnd); err != nil {
		return nil, err
	}
	if err := saveSeriesCSV(opts, prefix+"-goodput", "mbps", res.TracedThroughput); err != nil {
		return nil, err
	}
	if err := saveSeriesCSV(opts, prefix+"-total-goodput", "mbps", res.TotalThroughput); err != nil {
		return nil, err
	}
	return res, nil
}

// runImpairmentSim simulates the scenario (the cache-miss path).
func runImpairmentSim(label string, newCC func() tcp.CongestionControl, fid hybrid.Fidelity, opts Options) (*impairmentSnapshot, error) {
	proto := Protocol(label)
	// The -aqm override is the link's own: its RED keeps aqm's default
	// seed, where the kit's aqm field would draw SplitSeed(seed, 4).
	link := topology.DefaultStarLink(impairmentBuffer)
	if aqmCfg, ok, err := opts.aqmOverride(); err != nil {
		return nil, err
	} else if ok {
		link.Queue.AQM = aqmCfg
	}
	sc, err := scenario{
		servers: impairmentServers, link: link,
		proto: proto, newCC: newCC, tcp: tcp.Config{MinRTO: impairmentRTO},
		seed: opts.seed(), fidelity: fid,
	}.build(opts)
	if err != nil {
		return nil, err
	}
	fleet, sched := sc.fleet, sc.sched

	// 200 small responses per server from 0.1 s.
	if err := sc.responses(0, impairmentServers, impairmentRespStart, impairmentResponses,
		workload.UniformSize{Min: impairmentRespMin, Max: impairmentRespMax},
		workload.ExponentialGap{Mean: impairmentRespMean}); err != nil {
		return nil, err
	}

	// Window snapshot + long train at 0.5 s; completion instants land in
	// per-connection slots.
	res := &ImpairmentResult{Protocol: proto, CwndAtLPTStart: make([]float64, impairmentServers)}
	lptDone := make([]time.Duration, impairmentServers)
	lptDoneAt := make([]sim.Time, impairmentServers)
	for i := 0; i < impairmentServers; i++ {
		i := i
		if err := fleet.ScheduleConnAt(i, sim.At(impairmentLPTStart), func(conn *tcp.Conn) {
			res.CwndAtLPTStart[i] = conn.Cwnd()
			conn.SendTrain(impairmentLPTBytes, func(r tcp.TrainResult) {
				lptDone[i] = r.CompletionTime()
				lptDoneAt[i] = r.Completed
			})
		}); err != nil {
			return nil, err
		}
	}

	// Traces: connection 5's goodput and window, aggregate goodput,
	// bottleneck queue.
	traced := impairmentServers - 1
	res.TracedThroughput = metrics.BinnedRate(sched, 0, sim.At(impairmentHorizon),
		10*time.Millisecond, func() int64 { return fleet.DeliveredBytes(traced) })
	res.TotalThroughput = metrics.BinnedRate(sched, 0, sim.At(impairmentHorizon),
		10*time.Millisecond, func() int64 { return fleet.TotalDelivered() })
	res.TracedCwnd = metrics.Sample(sched, 0, sim.At(impairmentHorizon),
		impairmentSampleStep, func() float64 { return fleet.Cwnd(traced) })
	queue := sc.star.Bottleneck.Queue()
	queueSeries := metrics.Sample(sched, 0, sim.At(impairmentHorizon),
		100*time.Microsecond, func() float64 { return float64(queue.Len()) })

	// Live streaming: every sampler above already Records on its own
	// schedule, so tapping them adds no events — an armed Progress hook
	// observes the identical simulation. Goodput taps pre-apply the Mbps
	// conversion the batch path performs after the run.
	opts.tapSeries("traced-goodput-mbps", 1e-6, res.TracedThroughput)
	opts.tapSeries("total-goodput-mbps", 1e-6, res.TotalThroughput)
	opts.tapSeries("cwnd-segments", 1, res.TracedCwnd)
	opts.tapSeries("queue-depth-pkts", 1, queueSeries)
	opts.tapResponses(fleet.Collector())

	if err := sc.run(impairmentHorizon, 0, nil); err != nil {
		return nil, err
	}

	res.TimeoutsPerConn = make([]int, impairmentServers)
	for i := range res.TimeoutsPerConn {
		res.TimeoutsPerConn[i] = fleet.Stats(i).Timeouts
	}
	res.LPTCompletion = lptDone
	res.QueueMax = int(queueSeries.Max())
	res.QueueStats = queue.Stats()
	res.QueueDrops = res.QueueStats.Dropped
	res.BottleneckFaults = sc.star.Bottleneck.Stats()
	res.AllDoneBy = fleet.Collector().Last()
	for _, at := range lptDoneAt {
		if at > res.AllDoneBy {
			res.AllDoneBy = at
		}
	}
	// Convert byte rates to Mbps for reporting.
	scaleSeries(res.TracedThroughput, 1e-6)
	scaleSeries(res.TotalThroughput, 1e-6)
	snap := &impairmentSnapshot{
		Result:  res,
		Retrans: fleet.Retransmissions(),
		FCT:     fleet.Collector().CompletionTimes(nil).Snapshot(),
	}
	if opts.Progress != nil {
		rb := snap.Retrans
		opts.publish(ProgressEvent{Kind: "retrans", Name: label, Retrans: &rb})
		opts.publish(ProgressEvent{Kind: "fct", Name: label, Dist: snap.FCT})
	}
	return snap, nil
}

func scaleSeries(s *metrics.Series, f float64) {
	pts := s.Points()
	for i := range pts {
		pts[i].Value *= f
	}
}

// WriteTables renders the result.
func (r *ImpairmentResult) WriteTables(w io.Writer) error {
	t := &Table{
		Title:  fmt.Sprintf("Impairment test (%s) — Fig. 4 / Fig. 6 scenario", r.Protocol),
		Header: []string{"conn", "timeouts", "cwnd@LPT (seg)", "LPT completion"},
	}
	for i := range r.TimeoutsPerConn {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", i+1),
			fmt.Sprintf("%d", r.TimeoutsPerConn[i]),
			fmt.Sprintf("%.0f", r.CwndAtLPTStart[i]),
			r.LPTCompletion[i].String(),
		})
	}
	t.Caption = fmt.Sprintf("queue max %d pkts, drops %d, all done by %v",
		r.QueueMax, r.QueueDrops, r.AllDoneBy)
	// The drop split and injected-fault counters are appended only when an
	// AQM or fault actually fired, so default (drop-tail, fault-free) runs
	// keep their historical byte-identical output.
	if q := r.QueueStats; q.EarlyDrops > 0 || q.HeadDrops > 0 {
		t.Caption += fmt.Sprintf(" (split: %d tail, %d aqm-early, %d aqm-head)",
			q.TailDrops, q.EarlyDrops, q.HeadDrops)
	}
	if f := r.BottleneckFaults; f.InjectedDrops() > 0 || f.Reordered > 0 || f.Duplicated > 0 {
		t.Caption += fmt.Sprintf("; injected faults: %d loss, %d burst, %d flap, %d reordered, %d duplicated",
			f.LossDrops, f.BurstLossDrops, f.FlapDrops, f.Reordered, f.Duplicated)
	}
	if err := t.Write(w); err != nil {
		return err
	}
	return writeSeriesTable(w, "Aggregate goodput (Mbps, 10 ms bins)", r.TotalThroughput, 0.0, 1.0)
}

// writeSeriesTable prints a time series, optionally subsampled to keep
// output readable: points with Value==skipBelow are compacted.
func writeSeriesTable(w io.Writer, title string, s *metrics.Series, skipBelow, scale float64) error {
	t := &Table{Title: title, Header: []string{"t", "value"}}
	for _, p := range s.Points() {
		if p.Value <= skipBelow {
			continue
		}
		t.Rows = append(t.Rows, []string{p.At.String(), fmt.Sprintf("%.1f", p.Value*scale)})
	}
	if len(t.Rows) == 0 {
		t.Rows = append(t.Rows, []string{"-", "no nonzero samples"})
	}
	return t.Write(w)
}

var _ = register("fig4",
	"Impairment test under legacy TCP: timeouts, inherited windows, LPT completion on the 5-server star (Fig. 4)",
	[]string{"csv", "aqm", "fidelity"},
	tables(func(opts Options) (*ImpairmentResult, error) {
		return RunImpairment(ProtoTCP, opts)
	}))

var _ = register("fig6",
	"Impairment test under TCP-TRIM: probe-based window re-tuning on the Fig. 4 scenario (Fig. 6)",
	[]string{"csv", "aqm", "fidelity"},
	tables(func(opts Options) (*ImpairmentResult, error) {
		return RunImpairment(ProtoTRIM, opts)
	}))
