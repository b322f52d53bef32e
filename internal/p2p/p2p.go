// Package p2p defines the transport-agnostic node abstraction all SpiderNet
// protocol code (DHT, service discovery, BCP, failure recovery) is written
// against. Two runtimes implement it: internal/simnet (deterministic
// discrete-event simulation on a virtual clock) and internal/livenet
// (goroutine-per-peer execution on the real clock with injected wide-area
// latencies).
package p2p

import (
	"math/rand"
	"time"
)

// NodeID identifies a peer within a runtime. IDs are small dense integers
// (the peer's index in the overlay); the DHT layer maintains its own
// 128-bit identifier space on top.
type NodeID int

// NoNode is the zero-like invalid node ID.
const NoNode NodeID = -1

// Message is the envelope exchanged between peers. Payload holds a
// protocol-specific struct; every runtime delivers it within one process, so
// no serialization is needed.
type Message struct {
	Type    string // handler key, e.g. "bcp.probe"
	From    NodeID
	To      NodeID
	Size    int // approximate wire size in bytes, for overhead accounting
	Payload any
	// UID optionally identifies this message instance across the run (0 if
	// the protocol does not track identity). Transports stamp it onto drop
	// and fault-injection trace events, so per-copy accounting — e.g. the
	// probe-conservation invariant under loss, duplication, and retransmit —
	// can match every wire-level casualty to the protocol unit it carried.
	UID uint64
}

// PayloadCloner is implemented by payloads that receivers mutate in place
// and forward, such as a pointer to a hop-by-hop probe record. A runtime
// that delivers one sent message more than once (simnet's duplication
// fault) hands each extra copy the result of ClonePayload, so copies never
// share progress. Payloads that receivers only read need not implement it.
type PayloadCloner interface {
	// ClonePayload returns a deep enough copy of the payload that mutating
	// either one leaves the other unchanged.
	ClonePayload() any
}

// Handler processes one received message on the destination node.
// Handlers run single-threaded per node in both runtimes.
type Handler func(n Node, msg Message)

// CancelFunc cancels a pending timer. Calling it after the timer fired is a
// no-op.
type CancelFunc func()

// Node is a peer's view of the runtime: identity, clock, messaging, timers,
// and randomness. Protocol packages register handlers at startup and then
// communicate exclusively through Send/After.
type Node interface {
	// ID returns this peer's identifier.
	ID() NodeID
	// Now returns elapsed time on the runtime's clock (virtual in
	// simulation, monotonic-real in the live runtime).
	Now() time.Duration
	// Send transmits msg to msg.To. The runtime fills in msg.From.
	// Delivery is asynchronous and takes the modeled network latency;
	// messages to failed peers are silently dropped, as in a real network.
	Send(msg Message)
	// After schedules fn on this node after d. The returned CancelFunc
	// stops a timer that has not yet fired. Timers die with the node.
	After(d time.Duration, fn func()) CancelFunc
	// Rand returns the runtime's random source. In simulation it is the
	// single seeded stream that makes runs reproducible.
	Rand() *rand.Rand
	// Handle registers the handler for a message type, replacing any
	// previous registration.
	Handle(msgType string, h Handler)
	// Alive reports whether the peer is currently up.
	Alive() bool
}
