package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"tcptrim"
	"tcptrim/internal/experiment"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/netsim"
	"tcptrim/internal/tcp"
	"tcptrim/internal/topology"
)

// transfer is a star scenario in which every sender pushes the same
// schedule of trains to the front-end.
type transfer struct {
	senders    int
	buffer     int // switch buffer in packets (0 = unlimited)
	ecn        bool
	loss       float64 // uniform loss on the bottleneck
	newCC      func() tcptrim.CongestionControl
	newRecov   func() tcp.RecoveryPolicy
	trains     int
	trainBytes int
	every      time.Duration // train release period
}

// transferStats is what a finished transfer sent.
type transferStats struct {
	segs, retrans, probes int
}

// build wires the scenario; the returned loop runs it to completion.
func (x transfer) build(stats *transferStats) (func(), error) {
	sched := tcptrim.NewScheduler()
	link := tcptrim.DefaultStarLink(x.buffer)
	if x.ecn {
		link.Queue.ECNThresholdPackets = 20
	}
	star := tcptrim.NewStar(sched, x.senders, link)
	if x.loss > 0 {
		star.Bottleneck.InjectLoss(x.loss, rand.New(rand.NewSource(1)))
	}
	fleet, err := tcptrim.NewFleet(star.Net, tcptrim.FleetConfig{
		Senders: star.Senders, FrontEnd: star.FrontEnd,
		NewCC: x.newCC, NewRecovery: x.newRecov,
		Base: tcptrim.ConnConfig{LinkRate: tcptrim.Gbps, ECN: x.ecn, MinRTO: 20 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	for _, srv := range fleet.Servers {
		for i := 0; i < x.trains; i++ {
			at := tcptrim.Time(time.Millisecond + time.Duration(i)*x.every)
			if err := srv.ScheduleResponse(at, x.trainBytes); err != nil {
				return nil, err
			}
		}
	}
	return func() {
		sched.Run()
		if n := fleet.Collector.Pending(); n != 0 {
			panic(fmt.Sprintf("transfer: %d trains never completed", n))
		}
		*stats = transferStats{}
		for _, c := range fleet.Conns {
			st := c.Stats()
			stats.segs += st.SentSegs
			stats.retrans += st.RetransSegs
			stats.probes += st.ProbeSegs
		}
	}, nil
}

// perSegment runs the transfer and returns its cost per segment sent.
func (x transfer) perSegment() (ns, allocs float64, stats transferStats, err error) {
	c, err := fastest(layerReps, func() (func(), error) { return x.build(&stats) })
	if err != nil {
		return 0, 0, stats, err
	}
	return c.per(stats.segs), float64(c.mallocs) / float64(stats.segs), stats, nil
}

func reno() tcptrim.CongestionControl { return tcptrim.NewReno() }

// driveTCP times the transport per segment, inclusive of sim and netsim
// beneath it: one 32 MB Reno transfer without loss, the same under 1 %
// loss with classic and with RACK-TLP recovery, and connection set-up.
func driveTCP(_ runConfig, out map[string]float64) error {
	bulk := transfer{senders: 1, newCC: reno, trains: 1, trainBytes: 32 << 20}
	ns, allocs, _, err := bulk.perSegment()
	if err != nil {
		return err
	}
	out["tcp.ns_per_segment"] = ns
	out["tcp.allocs_per_segment"] = allocs

	lossy := bulk
	lossy.buffer, lossy.loss = 100, 0.01
	ns, _, st, err := lossy.perSegment()
	if err != nil {
		return err
	}
	out["tcp.ns_per_segment_lossy"] = ns
	out["tcp.retrans_ratio"] = float64(st.retrans) / float64(st.segs)

	rack := lossy
	rack.newRecov = func() tcp.RecoveryPolicy { return tcp.NewRACKTLP() }
	if ns, _, _, err = rack.perSegment(); err != nil {
		return err
	}
	out["tcp.ns_per_segment_racktlp"] = ns

	// Set-up: 2000 connections from one host to another.
	const conns = 2000
	setup, err := fastest(layerReps, func() (func(), error) {
		star := tcptrim.NewStar(tcptrim.NewScheduler(), 1, tcptrim.DefaultStarLink(100))
		from := tcptrim.NewStack(star.Net, star.Senders[0])
		to := tcptrim.NewStack(star.Net, star.FrontEnd)
		return func() {
			for i := 0; i < conns; i++ {
				if _, err := tcptrim.NewConn(tcptrim.ConnConfig{Sender: from, Receiver: to, Flow: netsim.FlowID(i + 1)}); err != nil {
					panic(err)
				}
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["tcp.ns_per_conn_setup"] = setup.per(conns)
	return nil
}

// driveHooks prices the congestion-control policies per segment sent on
// one scenario: two senders, 128 trains of 128 KB each with idle gaps
// between them (so TCP-TRIM probes at every train start), DCTCP through a
// marking switch port. A policy's hooks cost what its figure has over
// Reno's on the same trains; the difference itself is not a metric,
// because a policy also changes what is sent and when, and the difference
// of two minima comes out negative for CUBIC. It also reports the paper's
// headline on the tree_packet tree, at seed 1.
func driveHooks(_ runConfig, out map[string]float64) error {
	for _, p := range []struct {
		metric string
		ecn    bool
		newCC  func() tcptrim.CongestionControl
	}{
		{"tcp.ns_per_segment_trains", false, reno},
		{"core.trim_ns_per_segment", false, func() tcptrim.CongestionControl { return tcptrim.NewTrim(tcptrim.TrimConfig{}) }},
		{"cc.dctcp_ns_per_segment", true, tcptrim.NewDCTCP},
		{"cc.cubic_ns_per_segment", false, tcptrim.NewCubic},
	} {
		x := transfer{senders: 2, buffer: 100, ecn: p.ecn, newCC: p.newCC, trains: 128, trainBytes: 128 << 10, every: 5 * time.Millisecond}
		ns, _, st, err := x.perSegment()
		if err != nil {
			return err
		}
		out[p.metric] = ns
		if p.metric == "core.trim_ns_per_segment" {
			out["core.probe_segs"] = float64(st.probes)
		}
	}

	res, err := experiment.RunLargeScale([]experiment.Protocol{experiment.ProtoTCP, experiment.ProtoTRIM},
		[]int{5}, experiment.Options{Seed: 1, Reps: 1})
	if err != nil {
		return err
	}
	tcpRow, trimRow := res.Rows[0], res.Rows[1]
	out["tcp.timeouts"] = float64(tcpRow.Timeouts)
	out["core.act_reduction_pct"] = 100 * (1 - trimRow.ACT.Seconds()/tcpRow.ACT.Seconds())
	return nil
}

// driveHTTPApp times the response path (schedule, send, complete,
// collect) on a 40-sender star built through the root facade, and the
// fleet's construction.
func driveHTTPApp(_ runConfig, out map[string]float64) error {
	const senders, perServer = 40, 250
	build := func() (*tcptrim.Scheduler, *tcptrim.Fleet, error) {
		sched := tcptrim.NewScheduler()
		star := tcptrim.NewStar(sched, senders, tcptrim.DefaultStarLink(100))
		fleet, err := tcptrim.NewFleet(star.Net, tcptrim.FleetConfig{
			Senders: star.Senders, FrontEnd: star.FrontEnd,
			NewCC: func() tcptrim.CongestionControl { return tcptrim.NewTrim(tcptrim.TrimConfig{}) },
			Base:  tcptrim.ConnConfig{LinkRate: tcptrim.Gbps, MinRTO: 20 * time.Millisecond},
		})
		return sched, fleet, err
	}
	resp, err := fastest(layerReps, func() (func(), error) {
		sched, fleet, err := build()
		if err != nil {
			return nil, err
		}
		return func() {
			for s, srv := range fleet.Servers {
				for i := 0; i < perServer; i++ {
					at := tcptrim.Time(time.Duration(i)*time.Millisecond + time.Duration(s)*25*time.Microsecond)
					if err := srv.ScheduleResponse(at, 4<<10); err != nil {
						panic(err)
					}
				}
			}
			sched.Run()
			if n := len(fleet.Collector.Responses()); n != senders*perServer {
				panic(fmt.Sprintf("httpapp: %d responses completed, want %d", n, senders*perServer))
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["httpapp.ns_per_response"] = resp.per(senders * perServer)

	fleetBuild, err := fastest(4*layerReps, func() (func(), error) {
		return func() {
			if _, _, err := build(); err != nil {
				panic(err)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	out["httpapp.fleet_build_us_per_conn"] = fleetBuild.per(senders) / 1e3
	return nil
}

// driveHybrid times the flow store: building 40k idle connections, what
// one of them holds, the materialize-send-demote cycle, and hybrid
// against packet fidelity on one scenario. The live-connection counts
// come from the million_hybrid configuration at seed 1.
func driveHybrid(_ runConfig, out map[string]float64) error {
	newFleet := func(tors, servers, conns int, fid hybrid.Fidelity) (*tcptrim.Scheduler, *hybrid.Fleet, error) {
		sched := tcptrim.NewScheduler()
		tree := topology.NewTwoLevelTree(sched, topology.TwoLevelTreeConfig{ToRs: tors, ServersPerToR: servers})
		fleet, err := hybrid.NewFleet(tree.Net, hybrid.FleetConfig{
			Senders: tree.AllServers(), ConnsPerSender: conns, FrontEnd: tree.FrontEnd,
			NewCC:    func() tcptrim.CongestionControl { return tcptrim.NewTrim(tcptrim.TrimConfig{}) },
			Base:     tcptrim.ConnConfig{LinkRate: tcptrim.Gbps, MinRTO: 20 * time.Millisecond},
			Fidelity: fid,
		})
		return sched, fleet, err
	}

	var flows int
	build, err := fastest(layerReps, func() (func(), error) {
		return func() {
			_, fleet, err := newFleet(10, 20, 200, hybrid.FidelityHybrid)
			if err != nil {
				panic(err)
			}
			flows = fleet.NumFlows()
		}, nil
	})
	if err != nil {
		return err
	}
	out["hybrid.build_ns_per_conn"] = build.per(flows)

	// What the idle connections hold: live heap across one more build.
	before := liveHeap()
	_, fleet, err := newFleet(10, 20, 200, hybrid.FidelityHybrid)
	if err != nil {
		return err
	}
	after := liveHeap()
	runtime.KeepAlive(fleet)
	out["hybrid.bytes_per_idle_conn"] = (after - before) / float64(fleet.NumFlows())

	// One single-segment response per flow, 20 µs apart: each flow is
	// materialized, sends one segment and is demoted at the next epoch.
	cycle := func(fid hybrid.Fidelity, n int) (cost, error) {
		return fastest(layerReps, func() (func(), error) {
			sched, fleet, err := newFleet(2, 20, n/40, fid)
			if err != nil {
				return nil, err
			}
			for i := 0; i < n; i++ {
				if err := fleet.ScheduleResponse(i, tcptrim.Time(time.Millisecond+time.Duration(i)*20*time.Microsecond), 1460); err != nil {
					return nil, err
				}
			}
			if err := fleet.Arm(); err != nil {
				return nil, err
			}
			return func() {
				sched.RunUntil(tcptrim.Time(time.Second))
				if err := fleet.Err(); err != nil {
					panic(err)
				}
				if left := fleet.Collector().Pending(); left != 0 {
					panic(fmt.Sprintf("hybrid: %d responses pending", left))
				}
			}, nil
		})
	}
	const cycled = 8000
	hyb, err := cycle(hybrid.FidelityHybrid, cycled)
	if err != nil {
		return err
	}
	pkt, err := cycle(hybrid.FidelityPacket, cycled)
	if err != nil {
		return err
	}
	out["hybrid.cycle_ns_per_flow"] = hyb.per(cycled)
	out["hybrid.overhead_ratio"] = float64(hyb.wall) / float64(pkt.wall)

	res, err := experiment.RunMillion([]experiment.Protocol{experiment.ProtoTRIM}, millionSize, experiment.Options{Seed: 1})
	if err != nil {
		return err
	}
	out["hybrid.peak_live"] = float64(res.Rows[0].PeakLive)
	out["hybrid.arena_cap"] = float64(res.Rows[0].ArenaCap)
	out["hybrid.live_ratio"] = float64(res.Rows[0].PeakLive) / float64(res.Conns)
	return nil
}
