package hybrid

// The flow store's record: what it keeps survives a save and a load at
// the widest values it promises to hold, it stays 128 pointer-free bytes
// (and a timeline entry 24), and a state it cannot hold is an error, not
// a wrapped number.

import (
	"math"
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
// widest value the record holds for it: 64-bit fields in full, the
// packet-ID counters just under 2^31, Backoff and SackRotate at the int32
// limit, the lifetime counters at the uint32 limit. It returns how many
// leaves it set.
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
		v.SetInt(math.MaxInt64)
	case reflect.Float64:
		v.SetFloat(math.MaxFloat64)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint64:
		v.SetUint(1<<31 - 1)
	case reflect.Int:
		if strings.HasPrefix(path, ".Stats.") {
			v.SetInt(math.MaxUint32)
		} else {
			v.SetInt(math.MaxInt32)
		}
	default:
		panic("widest: no rule for " + path + " of kind " + v.Kind().String())
	}
	return 1
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
			r := flowRec{pol: 7, flags: flagPending}
			if err := r.save(st); err != nil {
				t.Fatal(err)
			}
			if got := r.load(); got != st {
				t.Errorf("load after save:\n got %+v\nwant %+v", got, st)
			}
			if got := r.tcpStats(); got != st.Stats {
				t.Errorf("stats after save: got %+v, want %+v", got, st.Stats)
			}
			if !r.saved() || r.pol != 7 || r.flags&flagPending == 0 {
				t.Errorf("save lost what is not SavedState: saved %v, slot %d, flags %#x", r.saved(), r.pol, r.flags)
			}
		})
	}
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
	if s := unsafe.Sizeof(flowRec{}); s != 128 {
		t.Errorf("flowRec is %d bytes, want 128 (two cache lines)", s)
	}
	if s := unsafe.Sizeof(release{}); s != 24 {
		t.Errorf("release is %d bytes, want 24", s)
	}
	for _, v := range []any{flowRec{}, release{}} {
		typ := reflect.TypeOf(v)
		if p := pointerAt(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer at %s: the collector would scan every record", typ, p)
		}
	}
}

// TestFlowRecFailsClosed: a release size, a counter or a packet-ID
// counter the narrowed widths cannot hold is an error — from the schedule
// call, or from Err after a demotion — and the record keeps what it had.
// No real run reaches the demotion cases, so the state is crafted.
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
		{"packet ID", func(st *tcp.SavedState) { st.NextPkt = 1 << 31 }},
		{"ACK ID", func(st *tcp.SavedState) { st.NextAck = 1 << 31 }},
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
			before := hyb.store[0]
			st := before.load()
			tc.craft(&st)
			hyb.fold(0, st)
			if err := hyb.Err(); err == nil || !strings.Contains(err.Error(), "demote flow 0") {
				t.Errorf("Err() = %v, want the demotion refused", err)
			} else {
				t.Log(err)
			}
			if hyb.store[0] != before {
				t.Errorf("refused state changed the record:\n got %+v\nwant %+v", hyb.store[0], before)
			}
		})
	}
}
