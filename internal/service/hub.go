package service

import "sync"

// stream is one run's event channel: a bounded replay buffer (late
// subscribers catch up from the start of the run) plus live fan-out to
// current subscribers. Publishing never blocks — a subscriber that
// cannot keep up has events dropped from its live channel, while the
// replay buffer stays authoritative for everything within its bound.
type stream struct {
	mu     sync.Mutex
	buf    [][]byte
	subs   map[chan []byte]struct{}
	closed bool
}

// replayCap bounds the per-run replay buffer. A fig4 run emits a few
// thousand samples; beyond the cap the oldest events are forgotten
// (dropped count is visible as a gap in "responses" counters, which are
// cumulative by design).
const replayCap = 8192

// subCap is each live subscriber's channel depth.
const subCap = 256

// publish appends one encoded event and fans it out.
func (st *stream) publish(data []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	if len(st.buf) >= replayCap {
		st.buf = st.buf[1:]
	}
	st.buf = append(st.buf, data)
	for ch := range st.subs {
		select {
		case ch <- data:
		default: // slow subscriber: drop, replay buffer keeps the record
		}
	}
}

// close publishes an optional terminal event and ends the stream; every
// subscriber's channel is closed after the terminal event.
func (st *stream) close(terminal []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	if terminal != nil {
		if len(st.buf) >= replayCap {
			st.buf = st.buf[1:]
		}
		st.buf = append(st.buf, terminal)
		for ch := range st.subs {
			select {
			case ch <- terminal:
			default:
			}
		}
	}
	st.closed = true
	for ch := range st.subs {
		close(ch)
	}
	st.subs = nil
}

// subscribe returns the replay so far and a live channel (nil if the
// stream already closed — the replay then ends with the terminal event).
// cancel must be called when the subscriber goes away.
func (st *stream) subscribe() (replay [][]byte, ch chan []byte, cancel func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	replay = make([][]byte, len(st.buf))
	copy(replay, st.buf)
	if st.closed {
		return replay, nil, func() {}
	}
	ch = make(chan []byte, subCap)
	if st.subs == nil {
		st.subs = map[chan []byte]struct{}{}
	}
	st.subs[ch] = struct{}{}
	return replay, ch, func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		if _, ok := st.subs[ch]; ok {
			delete(st.subs, ch)
			close(ch)
		}
	}
}
