package rdma

import (
	"testing"
	"unsafe"

	"nadino/internal/mempool"
)

// TestDescriptorAndCQELayout pins the sizes every queue, ring and
// completion copies: a descriptor is one 64-byte cache line (its
// per-message fields live behind the Msg record pointer), and a CQE is the
// descriptor plus 32 bytes of completion fields.
func TestDescriptorAndCQELayout(t *testing.T) {
	if n := unsafe.Sizeof(mempool.Descriptor{}); n > 64 {
		t.Errorf("mempool.Descriptor is %d bytes, want <= 64", n)
	}
	if n := unsafe.Sizeof(CQE{}); n > 96 {
		t.Errorf("rdma.CQE is %d bytes, want <= 96", n)
	}
}
