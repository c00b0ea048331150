package mempool

import (
	"nadino/internal/trace"
)

// Descriptor is the 16-byte buffer descriptor exchanged over NADINO's data
// plane (§3.5.4): intra-node via SK_MSG, host<->DPU via Comch, and embedded
// in RDMA work requests for inter-node hops. Ownership of the descriptor is
// ownership of the buffer it points to.
//
// The simulation struct is one 64-byte cache line: the fields a hop reads
// or rewrites stay inline, and the per-message fields that travel unchanged
// end to end (source, destination, request context, speculation probe) sit
// behind one pointer to a write-once record, Msg. Every queue, ring, Comch
// delivery and completion copies the line and shares the record. A record
// is written only before its descriptor's first hand-off; the instance
// pick in the function runtime's send is the last write. Everything beyond
// the modeled 16 bytes (Buf, Len, Seq, Tenant) is simulation bookkeeping.
type Descriptor struct {
	Tenant string // owning tenant / pool prefix
	Buf    Buffer // pooled buffer handle
	Len    int32  // payload length in bytes

	// TenantID and DstID are interned routing hints: the stamping engine's
	// dense tenant/function IDs plus one, set on every descriptor the engine
	// handles (zero means "not stamped yet"). They are engine-local and
	// never carried across the wire: the receiving engine re-stamps TenantID
	// when it posts the landing buffer or accepts a gateway landing. They
	// exist so the per-request data path does slice indexing instead of
	// string-map lookups.
	TenantID int32
	DstID    int32
	// Retries counts data-plane retransmissions of this descriptor after
	// transport errors (engine-level at-least-once recovery).
	Retries uint8
	// Hops counts inter-gateway relays (TTL): bumped per transit forward,
	// fencing transient routing loops during failover.
	Hops uint8

	Seq uint64 // per-flow sequence number
	// Trace is the request trace this descriptor belongs to; nil (the
	// common case) disables all span recording along its path.
	Trace *trace.Req
	// Msg is the message's write-once record; nil on posted receive
	// buffers until a send lands in them, and on raw verbs traffic that
	// routes nothing.
	Msg *Msg
}

// Msg is the part of a message that travels unchanged end to end, shared
// by every copy of its descriptor. It is written only before the
// descriptor's first hand-off; after that every holder reads it.
type Msg struct {
	Src string // producing function ID
	Dst string // destination function ID
	Ctx any    // opaque request context carried end to end
	// Spec is the speculation cancellation probe, non-nil only on the
	// request legs of cloned/hedged requests. Carriers call it at their
	// drop-decision points (scheduler dequeue, TX issue, function dequeue);
	// a true return means the request's group already completed elsewhere —
	// the carrier must kill this clone, recycling the buffer and returning
	// whatever credits or WR state it holds at that stage. The probe itself
	// performs the group-side bookkeeping for the kill, so carriers must
	// call it at most once per descriptor death.
	Spec func() bool
}
