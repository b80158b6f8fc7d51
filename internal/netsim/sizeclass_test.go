package netsim

import (
	"testing"
	"unsafe"
)

// TestHotStructSizeClasses pins the allocations the per-packet path lives
// in to their malloc size classes: Connect allocates a cable's two pipes
// as one [2]Pipe, which fits the 896-byte class, and AllocPacket cuts
// packets from slabs of 16, whose 16 × 144 B fill the 2304-byte class. A
// field that pushes either over makes every cable or every slab a size
// class larger.
func TestHotStructSizeClasses(t *testing.T) {
	if size := unsafe.Sizeof([2]Pipe{}); size > 896 {
		t.Errorf("a cable's [2]Pipe takes %d bytes, over the 896-byte size class", size)
	}
	if size := unsafe.Sizeof(Packet{}); size > 144 {
		t.Errorf("a Packet takes %d bytes: a slab of 16 is over the 2304-byte size class", size)
	}
}
