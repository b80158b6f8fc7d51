package tcp

// The receiver's out-of-order list and the sender's SACK scoreboard insert
// through insertRange. These tests hold it against a transcription of the
// code both used before: a linear scan for the insertion point, then a
// merge pass over the whole list.

import (
	"math/rand"
	"slices"
	"testing"
)

// scanInsert is the insertion as it was: insert iv before the first range
// starting after it, then merge every range into its predecessor when it
// starts at or before the predecessor's end.
func scanInsert(list []interval, iv interval) []interval {
	pos := len(list)
	for i, cur := range list {
		if iv.start < cur.start {
			pos = i
			break
		}
	}
	list = append(list, interval{})
	copy(list[pos+1:], list[pos:])
	list[pos] = iv
	merged := list[:1]
	for _, cur := range list[1:] {
		last := &merged[len(merged)-1]
		if cur.start <= last.end {
			if cur.end > last.end {
				last.end = cur.end
			}
			continue
		}
		merged = append(merged, cur)
	}
	return merged
}

// trimBelow is trimSackBelow and drainOutOfOrder's effect on a list: the
// ranges at or below una go and the one straddling it is cut to start
// there.
func trimBelow(list []interval, una int64) []interval {
	out := list[:0]
	for _, iv := range list {
		if iv.end <= una {
			continue
		}
		iv.start = max(iv.start, una)
		out = append(out, iv)
	}
	return out
}

// randomRange draws a range from a stream over a window of segments:
// mostly whole segments, some out of alignment (overlaps), some repeating
// the last range (duplicates), some ending where another starts
// (adjacent), some spanning many segments (swallowing), and a few empty.
func randomRange(rng *rand.Rand, base int64, last interval) interval {
	const mss = 1460
	seg := base + int64(rng.Intn(160))*mss
	switch rng.Intn(10) {
	case 0:
		return last
	case 1:
		return interval{last.end, last.end + mss}
	case 2:
		return interval{seg, seg + int64(2+rng.Intn(40))*mss}
	case 3:
		off := int64(rng.Intn(mss))
		return interval{seg + off, seg + off + int64(1+rng.Intn(3*mss))}
	case 4:
		return interval{seg, seg}
	}
	return interval{seg, seg + mss}
}

// TestInsertRangeMatchesScan runs random streams of ranges through
// insertRange and scanInsert, with the list trimmed from below now and
// then as a cumulative ACK would: the lists are equal after every insert.
func TestInsertRangeMatchesScan(t *testing.T) {
	longest := 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got, want []interval
		var base int64
		last := interval{}
		for op := 0; op < 400; op++ {
			if rng.Intn(25) == 0 {
				base += int64(rng.Intn(20)) * 1460
				got, want = trimBelow(got, base), trimBelow(want, base)
			}
			iv := randomRange(rng, base, last)
			last = iv
			got = insertRange(got, iv)
			want = scanInsert(want, iv)
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d op %d: inserting %v gives %v, the scan gives %v", seed, op, iv, got, want)
			}
			longest = max(longest, len(got))
		}
	}
	if longest < 20 {
		t.Fatalf("the longest list held %d ranges: the streams do not exercise the search", longest)
	}
}
