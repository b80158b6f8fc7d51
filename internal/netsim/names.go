package netsim

import (
	"strconv"
	"strings"
)

// Names cuts a build's node names (or a fleet's labels) from one string,
// so that naming n nodes costs one allocation instead of n. A name is a
// prefix and its numbers joined by '-': Cut("s", 2, 7) is "s2-7". Grow by
// NameLen of every name first, then Cut them in turn: Grow allocates the
// string, exactly as long as the names. Each name is a substring of it
// and stays valid for as long as it is referenced. The zero value is
// ready to use; a Names must not be copied once used.
type Names struct{ b strings.Builder }

// NameLen returns the length of the name Cut(prefix, nums...) returns.
func NameLen(prefix string, nums ...int) int {
	n := len(prefix)
	for i, x := range nums {
		if i > 0 {
			n++
		}
		var d [20]byte
		n += len(strconv.AppendInt(d[:0], int64(x), 10))
	}
	return n
}

// Grow reserves room for n more bytes of names.
func (ns *Names) Grow(n int) { ns.b.Grow(n) }

// Cut appends one name and returns it.
func (ns *Names) Cut(prefix string, nums ...int) string {
	start := ns.b.Len()
	ns.b.WriteString(prefix)
	for i, x := range nums {
		if i > 0 {
			ns.b.WriteByte('-')
		}
		var d [20]byte
		ns.b.Write(strconv.AppendInt(d[:0], int64(x), 10))
	}
	return ns.b.String()[start:]
}
