package hybrid

// The flow store's records: what they keep survives a save and a load at
// the widest values they promise to hold, a flow takes a rare record only
// for state a loss-free flow never moves, the hot record stays 64
// pointer-free bytes, the rare one 56 (and a timeline entry 24), and a
// state the store cannot hold is an error, not a wrapped number.

import (
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"tcptrim/internal/httpapp"
	"tcptrim/internal/sim"
	"tcptrim/internal/tcp"
)

// widest sets every numeric or boolean leaf under v that selects, to the
// widest value the store holds for it: 64-bit fields in full, the RTT
// estimator at the uint32 limit of nanoseconds, the packet-numbering
// counters SentSegs and AcksSent just under 2^31, Backoff and SackRotate
// at the int32 limit, the other lifetime counters at the uint32 limit. It
// returns how many leaves it set.
func widest(v reflect.Value, path string, selects func(string) bool) int {
	if v.Kind() == reflect.Struct {
		n := 0
		for k := 0; k < v.NumField(); k++ {
			n += widest(v.Field(k), path+"."+v.Type().Field(k).Name, selects)
		}
		return n
	}
	if !selects(path) {
		return 0
	}
	switch v.Kind() {
	case reflect.Int64:
		if path == ".SRTT" || path == ".RTTVar" {
			v.SetInt(math.MaxUint32)
		} else {
			v.SetInt(math.MaxInt64)
		}
	case reflect.Float64:
		v.SetFloat(math.MaxFloat64)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int:
		switch {
		case path == ".Stats.SentSegs" || path == ".Stats.AcksSent":
			v.SetInt(1<<31 - 1)
		case strings.HasPrefix(path, ".Stats."):
			v.SetInt(math.MaxUint32)
		default:
			v.SetInt(math.MaxInt32)
		}
	default:
		panic("widest: no rule for " + path + " of kind " + v.Kind().String())
	}
	return 1
}

// hotLeaves are the SavedState leaves a flow keeps in its hot record; a
// state that sets any other leaf needs a rare record.
var hotLeaves = map[string]bool{
	".Offset": true, ".Cwnd": true, ".Ssthresh": true, ".SRTT": true, ".RTTVar": true,
	".HasSent": true, ".LastSendAt": true, ".RcvCE": true,
	".Stats.SentSegs": true, ".Stats.ProbeSegs": true, ".Stats.AcksSent": true, ".Stats.AckedBytes": true,
}

func TestFlowRecRoundTrip(t *testing.T) {
	var leaves []string
	widest(reflect.ValueOf(&tcp.SavedState{}).Elem(), "", func(p string) bool {
		leaves = append(leaves, p)
		return false
	})
	cases := append([]string{"zero", "all"}, leaves...)
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			var st tcp.SavedState
			n := widest(reflect.ValueOf(&st).Elem(), "", func(p string) bool {
				return name == "all" || p == name
			})
			if name != "zero" && n == 0 {
				t.Fatalf("no field %s", name)
			}
			// A drained flow has had every byte acknowledged.
			if name == ".Stats.AckedBytes" {
				st.Offset = st.Stats.AckedBytes
			} else {
				st.Stats.AckedBytes = st.Offset
			}
			s := flowStore{recs: []flowRec{{pol: 7, flags: flagPending}}}
			if err := s.save(0, st); err != nil {
				t.Fatal(err)
			}
			if got := s.load(0); got != st {
				t.Errorf("load after save:\n got %+v\nwant %+v", got, st)
			}
			if got := s.tcpStats(0); got != st.Stats {
				t.Errorf("stats after save: got %+v, want %+v", got, st.Stats)
			}
			r := &s.recs[0]
			if !r.saved() || r.pol != 7 || r.flags&flagPending == 0 {
				t.Errorf("save lost what is not SavedState: saved %v, slot %d, flags %#x", r.saved(), r.pol, r.flags)
			}
			if wantRare := name == "all" || (name != "zero" && !hotLeaves[name]); (r.rare != 0) != wantRare {
				t.Errorf("rare slot %d, want one: %v", r.rare, wantRare)
			}
		})
	}
}

// FuzzFlowRecRoundTrip saves random states within the store's widths into
// one record, the rare half of each kept or zeroed: every state loads back
// exactly, a flow whose rare state has always been zero holds no rare
// slot, and a flow that once needed one keeps that slot through every
// later save, whatever it holds.
func FuzzFlowRecRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint8(3))
	f.Add(uint64(0x9e3779b97f4a7c15), uint16(0xffff), uint8(8))
	f.Add(uint64(42), uint16(0x0f0f), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, keepRare uint16, saves uint8) {
		rng := rand.New(rand.NewPCG(seed, uint64(keepRare)))
		// Values at the edges as well as in between.
		pick := func(max uint64) uint64 {
			switch rng.IntN(4) {
			case 0:
				return 0
			case 1:
				return max
			}
			return rng.Uint64N(max + 1)
		}
		window := func() float64 {
			if rng.IntN(4) == 0 {
				return math.MaxFloat64
			}
			return rng.Float64() * 1e6
		}
		s := flowStore{recs: make([]flowRec, 2)}
		slot := int32(0)
		for k := 0; k < int(saves%16)+1; k++ {
			st := tcp.SavedState{
				Offset:     int64(pick(math.MaxInt64)),
				Cwnd:       window(),
				Ssthresh:   window(),
				SRTT:       time.Duration(pick(math.MaxUint32)),
				RTTVar:     time.Duration(pick(math.MaxUint32)),
				HasSent:    rng.IntN(2) == 0,
				LastSendAt: sim.Time(pick(math.MaxInt64)),
				RcvCE:      rng.IntN(2) == 0,
			}
			st.Stats.SentSegs = int(pick(1<<31 - 1))
			st.Stats.AcksSent = int(pick(1<<31 - 1))
			st.Stats.ProbeSegs = int(pick(math.MaxUint32))
			st.Stats.AckedBytes = st.Offset
			if keepRare&(1<<(k%16)) != 0 {
				st.Backoff = int(int32(pick(math.MaxUint32)))
				st.LastRTOAt = sim.Time(pick(math.MaxInt64))
				st.SackRotate = int(int32(pick(math.MaxUint32)))
				for _, c := range []*int{&st.Stats.Timeouts, &st.Stats.FastRecoveries, &st.Stats.RetransSegs,
					&st.Stats.ECESeen, &st.Stats.RTORetransSegs, &st.Stats.FastRetransSegs,
					&st.Stats.TLPProbes, &st.Stats.SpuriousRetransSegs, &st.Stats.RecoverySignals} {
					*c = int(pick(math.MaxUint32))
				}
			}
			if err := s.save(1, st); err != nil {
				t.Fatalf("save %d refused a state within the widths: %v", k, err)
			}
			if got := s.load(1); got != st {
				t.Fatalf("save %d, load:\n got %+v\nwant %+v", k, got, st)
			}
			rareZero := st.Backoff == 0 && st.LastRTOAt == 0 && st.SackRotate == 0 &&
				st.Stats == tcp.Stats{SentSegs: st.Stats.SentSegs, AcksSent: st.Stats.AcksSent,
					ProbeSegs: st.Stats.ProbeSegs, AckedBytes: st.Stats.AckedBytes}
			r := &s.recs[1]
			switch {
			case slot == 0 && rareZero && r.rare != 0:
				t.Fatalf("save %d: a flow with no rare state took rare slot %d", k, r.rare)
			case slot == 0 && !rareZero && r.rare == 0:
				t.Fatalf("save %d: rare state with no rare slot", k)
			case slot != 0 && r.rare != slot:
				t.Fatalf("save %d: the flow's rare slot moved from %d to %d", k, slot, r.rare)
			}
			slot = r.rare
			if s.recs[0] != (flowRec{}) || s.nRare > 1 {
				t.Fatalf("save %d: a save of flow 1 reached flow 0 (%+v) or took %d rare slots", k, s.recs[0], s.nRare)
			}
		}
	})
}

// pointerAt returns the path to the first field of typ the collector
// would have to scan, or "" if there is none.
func pointerAt(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for k := 0; k < typ.NumField(); k++ {
			if p := pointerAt(typ.Field(k).Type, path+"."+typ.Field(k).Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerAt(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return path
	}
	return ""
}

func TestFlowRecLayout(t *testing.T) {
	if s := unsafe.Sizeof(flowRec{}); s != 64 {
		t.Errorf("flowRec is %d bytes, want 64 (one cache line)", s)
	}
	if s := unsafe.Sizeof(rareRec{}); s != 56 {
		t.Errorf("rareRec is %d bytes, want 56", s)
	}
	if s := unsafe.Sizeof([rareChunk]rareRec{}); s != 28672 {
		t.Errorf("a rare chunk is %d bytes, want 28672 (one size class)", s)
	}
	if s := unsafe.Sizeof(release{}); s != 24 {
		t.Errorf("release is %d bytes, want 24", s)
	}
	for _, v := range []any{flowRec{}, rareRec{}, release{}} {
		typ := reflect.TypeOf(v)
		if p := pointerAt(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer at %s: the collector would scan every record", typ, p)
		}
	}
}

// TestFlowRecFailsClosed: a release size, a counter, a packet-numbering
// counter or an RTT estimate the narrowed widths cannot hold is an error —
// from the schedule call, or from Err after a demotion — and the store
// keeps what it had. No real run reaches the demotion cases, so the state
// is crafted.
func TestFlowRecFailsClosed(t *testing.T) {
	t.Run("release size", func(t *testing.T) {
		for _, fid := range []Fidelity{FidelityPacket, FidelityHybrid} {
			fleet, _ := buildFleet(t, 1, 1, tcp.Config{}, fid, 0)
			coll := &httpapp.Collector{}
			at := sim.At(time.Millisecond)
			for _, size := range []int{math.MaxInt32 + 1, math.MinInt32 - 1} {
				if err := fleet.ScheduleResponse(0, at, size); err == nil {
					t.Errorf("%s: ScheduleResponse of %d bytes accepted", fid, size)
				}
				if err := fleet.ScheduleResponseAs(0, at, size, "x", coll); err == nil {
					t.Errorf("%s: ScheduleResponseAs of %d bytes accepted", fid, size)
				}
				if err := fleet.StartBackgroundFlow(0, at, size); err == nil {
					t.Errorf("%s: StartBackgroundFlow of %d bytes accepted", fid, size)
				}
			}
			if err := fleet.StartBackgroundFlow(0, at, math.MaxInt32); err != nil {
				t.Errorf("%s: the largest 32-bit size refused: %v", fid, err)
			}
		}
	})
	for _, tc := range []struct {
		name  string
		craft func(*tcp.SavedState)
	}{
		{"counter", func(st *tcp.SavedState) { st.Stats.SentSegs = math.MaxUint32 + 1 }},
		{"negative counter", func(st *tcp.SavedState) { st.Stats.Timeouts = -1 }},
		{"last counter", func(st *tcp.SavedState) { st.Stats.RecoverySignals = 1 << 40 }},
		{"packet ID", func(st *tcp.SavedState) { st.Stats.SentSegs = 1 << 31 }},
		{"ACK ID", func(st *tcp.SavedState) { st.Stats.AcksSent = 1 << 31 }},
		{"SRTT", func(st *tcp.SavedState) { st.SRTT = 1 << 32 }},
		{"RTTVar", func(st *tcp.SavedState) { st.RTTVar = 1 << 32 }},
		{"negative SRTT", func(st *tcp.SavedState) { st.SRTT = -1 }},
		{"acked bytes", func(st *tcp.SavedState) { st.Stats.AckedBytes = st.Offset - 1 }},
		{"back-off", func(st *tcp.SavedState) { st.Backoff = math.MaxInt32 + 1 }},
		{"SACK rotation", func(st *tcp.SavedState) { st.SackRotate = math.MaxInt32 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hyb, sched := buildFleet(t, 1, 1, tcp.Config{}, FidelityHybrid, 5*time.Millisecond)
			if err := hyb.ScheduleResponse(0, sim.At(time.Millisecond), 3*tcp.DefaultMSS); err != nil {
				t.Fatal(err)
			}
			if err := hyb.Arm(); err != nil {
				t.Fatal(err)
			}
			sched.RunUntil(sim.At(time.Second))
			if err := hyb.Err(); err != nil || hyb.Live() != 0 {
				t.Fatalf("the real run: %d live, err %v", hyb.Live(), err)
			}
			before := hyb.store.recs[0]
			if before.rare != 0 {
				t.Fatalf("the loss-free run took rare slot %d", before.rare)
			}
			st := hyb.store.load(0)
			// A refused state that would need a rare record must not
			// take one either.
			st.Backoff = 1
			tc.craft(&st)
			hyb.fold(0, st)
			if err := hyb.Err(); err == nil || !strings.Contains(err.Error(), "demote flow 0") {
				t.Errorf("Err() = %v, want the demotion refused", err)
			} else {
				t.Log(err)
			}
			if hyb.store.recs[0] != before || hyb.store.nRare != 0 {
				t.Errorf("refused state changed the store: %d rare slots, record\n got %+v\nwant %+v",
					hyb.store.nRare, hyb.store.recs[0], before)
			}
		})
	}
}
