package service

import (
	"math"
	"sort"
	"strings"
	"sync"

	"tcptrim/internal/aqm"
	"tcptrim/internal/experiment"
	"tcptrim/internal/hybrid"
	"tcptrim/internal/tcp"
)

// maxTerminalJobs bounds the finished jobs a Server remembers: past it
// the job that ended longest ago is forgotten and its id answers 404;
// queued and running jobs never are. A finished job costs its 64-byte
// record plus its index entry, ≈ 87 B (TestFinishedJobFootprint), so a
// full table is ≈ 1.4 MB with two pointers a job. On cache_warm the
// collector then runs ≈ 24 times an iteration at the runtime's 4 MB goal
// and spends ≈ 16 ms of CPU there, against ≈ 11 runs and ≈ 53 ms when
// each finished job was a ≈ 280 B *Job. The bound itself decides which
// ids still answer.
const maxTerminalJobs = 16384

// finished is one terminal job, kept by value in the table's ring. Its
// id is run-%06d of seq; its spec is seed, reps and four indexes into
// canonicalNames, unless rare is set and the spec and the error message
// are in the table's rare map. Its two pointers are shared: output with
// the store, stream with storedStream for every store hit.
type finished struct {
	output []byte
	stream *stream
	seq    int64
	seed   int64
	reps   int32
	names  [4]uint16 // runner, aqm, recovery, fidelity
	state  uint8     // index into terminalStates
	cached bool
	rare   bool
}

// rareJob holds what a finished record cannot: an error message, or a
// spec with a name outside canonicalNames or reps beyond int32.
type rareJob struct {
	spec RunSpec
	err  string
}

var terminalStates = [...]string{StateDone, StateFailed, StateCanceled}

// canonicalNames is the fixed table a record's spec indexes: the empty
// name, every runner registered when the first job ended, and the
// canonical aqm, recovery and fidelity names, with its inverse.
var canonicalNames = sync.OnceValues(func() ([]string, map[string]uint16) {
	names := []string{""}
	names = append(names, aqm.Names()...)
	names = append(names, tcp.RecoveryNames()...)
	names = append(names, hybrid.Names()...)
	names = append(names, experiment.IDs()...)
	index := make(map[string]uint16, len(names))
	for i, name := range names {
		if _, dup := index[name]; !dup && i <= math.MaxUint16 {
			index[name] = uint16(i)
		}
	}
	return names, index
})

// jobTable holds every job a Server answers for. A queued or running job
// is a *Job in live; once it ends it becomes a finished record in ring,
// found through index, and the *Job is dropped. All of it is guarded by
// Server.mu.
type jobTable struct {
	live   map[int64]*Job
	ring   []finished
	oldest int32 // once ring is full: the slot of the job that ended longest ago
	index  map[int64]int32
	rare   map[int64]rareJob
}

func newJobTable() jobTable {
	return jobTable{live: map[int64]*Job{}, index: map[int64]int32{}, rare: map[int64]rareJob{}}
}

// counts returns how many jobs the table holds and how many have ended.
func (t *jobTable) counts() (jobs, ended int) {
	return len(t.live) + len(t.index), len(t.index)
}

// end records a job that has just reached a terminal state. Past
// maxTerminalJobs it overwrites the record of the job that ended longest
// ago. The ring grows by doubling up to maxTerminalJobs.
func (t *jobTable) end(job *Job) {
	delete(t.live, job.seq)
	rec := finished{output: job.output, stream: job.stream, seq: job.seq, seed: job.Spec.Seed, cached: job.Cached}
	for i, s := range terminalStates {
		if s == job.State {
			rec.state = uint8(i)
		}
	}
	var packed bool
	rec.names, rec.reps, packed = packSpec(job.Spec)
	if !packed || job.Error != "" {
		rec.rare = true
		t.rare[rec.seq] = rareJob{spec: job.Spec, err: job.Error}
	}
	if len(t.ring) < maxTerminalJobs {
		if len(t.ring) == cap(t.ring) {
			t.ring = append(make([]finished, 0, min(max(2*cap(t.ring), 64), maxTerminalJobs)), t.ring...)
		}
		t.index[rec.seq] = int32(len(t.ring))
		t.ring = append(t.ring, rec)
		return
	}
	old := &t.ring[t.oldest]
	delete(t.index, old.seq)
	if old.rare {
		delete(t.rare, old.seq)
	}
	*old = rec
	t.index[rec.seq] = t.oldest
	t.oldest = (t.oldest + 1) % maxTerminalJobs
}

// packSpec turns a spec into a record's indexes; ok is false when a name
// is not canonical or reps does not fit.
func packSpec(spec RunSpec) (names [4]uint16, reps int32, ok bool) {
	_, index := canonicalNames()
	for i, name := range [4]string{spec.Runner, spec.AQM, spec.Recovery, spec.Fidelity} {
		if names[i], ok = index[name]; !ok {
			return names, 0, false
		}
	}
	if spec.Reps < 0 || spec.Reps > math.MaxInt32 {
		return names, 0, false
	}
	return names, int32(spec.Reps), true
}

// job copies a finished record back into a Job whose id is id.
func (t *jobTable) job(rec *finished, id string) Job {
	job := Job{ID: id, State: terminalStates[rec.state], Cached: rec.cached, seq: rec.seq, output: rec.output, stream: rec.stream}
	if rec.rare {
		r := t.rare[rec.seq]
		job.Spec, job.Error = r.spec, r.err
		return job
	}
	names, _ := canonicalNames()
	job.Spec = RunSpec{Runner: names[rec.names[0]], Seed: rec.seed, Reps: int(rec.reps),
		AQM: names[rec.names[1]], Recovery: names[rec.names[2]], Fidelity: names[rec.names[3]]}
	return job
}

// lookup copies the job id names; live is the job itself while it is
// queued or running and nil once it has ended.
func (t *jobTable) lookup(id string) (job Job, live *Job, ok bool) {
	seq, ok := parseID(id)
	if !ok {
		return Job{}, nil, false
	}
	if live := t.live[seq]; live != nil {
		return *live, live, true
	}
	slot, ok := t.index[seq]
	if !ok {
		return Job{}, nil, false
	}
	return t.job(&t.ring[slot], id), nil, true
}

// all copies every job, in submission order.
func (t *jobTable) all() []Job {
	jobs := make([]Job, 0, len(t.live)+len(t.ring))
	for _, job := range t.live {
		jobs = append(jobs, *job)
	}
	for i := range t.ring {
		jobs = append(jobs, t.job(&t.ring[i], formatID(t.ring[i].seq)))
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq < jobs[j].seq })
	return jobs
}

// formatID is run-%06d of seq.
func formatID(seq int64) string {
	var b [4 + 19]byte
	i := len(b)
	for n := 0; seq > 0 || n < 6; n++ {
		i--
		b[i] = byte('0' + seq%10)
		seq /= 10
	}
	i -= 4
	copy(b[i:], "run-")
	return string(b[i:])
}

// parseID inverts formatID, accepting exactly the ids it makes for a
// positive sequence number.
func parseID(id string) (int64, bool) {
	digits, ok := strings.CutPrefix(id, "run-")
	if !ok || len(digits) < 6 || len(digits) > 18 || len(digits) > 6 && digits[0] == '0' {
		return 0, false
	}
	var seq int64
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + int64(c-'0')
	}
	return seq, seq > 0
}
