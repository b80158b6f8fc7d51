package netsim

import (
	"fmt"
	"testing"
)

// TestNamesCutFromOneString: every name reads as fmt would print it,
// NameLen predicts its length, and names sized by NameLen fill exactly
// what one allocation reserved.
func TestNamesCutFromOneString(t *testing.T) {
	type name struct {
		prefix string
		nums   []int
	}
	var want []name
	for i := 0; i < 120; i += 7 {
		want = append(want, name{"s", []int{i, i * 13}}, name{"core", []int{i}}, name{"h", []int{i, 0, 1234567}}, name{"frontend", nil})
	}
	size := 0
	for _, n := range want {
		size += NameLen(n.prefix, n.nums...)
	}
	var cut []string
	allocs := testing.AllocsPerRun(10, func() {
		var names Names
		names.Grow(size)
		cut = cut[:0]
		for _, n := range want {
			cut = append(cut, names.Cut(n.prefix, n.nums...))
		}
		if names.b.Len() != size {
			t.Errorf("names fill %d bytes, sized for %d", names.b.Len(), size)
		}
	})
	for i, n := range want {
		s := n.prefix
		for k, x := range n.nums {
			if k > 0 {
				s += "-"
			}
			s += fmt.Sprint(x)
		}
		if cut[i] != s || NameLen(n.prefix, n.nums...) != len(s) {
			t.Errorf("name %d: cut %q (NameLen %d), want %q", i, cut[i], NameLen(n.prefix, n.nums...), s)
		}
	}
	if allocs != 1 {
		t.Errorf("cutting %d names costs %v allocations, want 1", len(want), allocs)
	}
}
