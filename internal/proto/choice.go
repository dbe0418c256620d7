package proto

import (
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/sim"
)

// This file holds the protocols' explore-only view: an Explorer is a
// System whose messages travel an untimed choice network instead of the
// mesh. Every send queues the message's header and its delivery on the
// FIFO of its (src, dst) pair, and nothing arrives until the explorer
// (internal/mc) delivers a channel's head; memory latency, the only
// engine-local timing left, runs to completion after each action. Each
// acknowledgement of a multicast is its own delivery, never booked.
// Deliberate faults ride on the same entry point: the network drops or
// alters the messages of three of them, and the home makes the wrong
// decision for the other two.

// MsgKind names a protocol message.
type MsgKind uint8

const (
	MsgReadReq    MsgKind = iota + 1 // requester -> home: read miss (also a write-allocate fetch)
	MsgReadFetch                     // home -> owner: fetch for a read, demoting the owner
	MsgReadData                      // owner -> home: the fetched block
	MsgReadReply                     // home -> requester: the block, installed shared
	MsgWIReq                         // requester -> home: WI ownership request
	MsgInv                           // home -> sharer: invalidate
	MsgInvAck                        // sharer -> home: invalidation done
	MsgWIFetch                       // home -> owner: fetch and invalidate
	MsgWIData                        // owner -> home: the fetched block
	MsgGrant                         // home -> requester: ownership, with the block unless an upgrade
	MsgWTReq                         // writer -> home: write-through of one word
	MsgUpd                           // home -> sharer: update
	MsgUpdAck                        // sharer -> writer: update done
	MsgWTReply                       // home -> writer: the serialized value and the acks to expect
	MsgAtomReq                       // requester -> home: update-protocol atomic
	MsgAtomReply                     // home -> requester: old and new value, the block for a new sharer
	MsgWB                            // evictor -> home: write-back
	MsgNote                          // node -> home: drop notice, replacement hint or relinquish
	MsgDemote                        // home -> owner: demote a retained block
	MsgDemoteData                    // owner -> home: the demoted block
)

var msgNames = [...]string{"?", "read-req", "read-fetch", "read-data", "read-reply",
	"wi-req", "inv", "inv-ack", "wi-fetch", "wi-data", "grant", "wt-req", "upd",
	"upd-ack", "wt-reply", "atom-req", "atom-reply", "wb", "note", "demote", "demote-data"}

func (k MsgKind) String() string {
	if int(k) < len(msgNames) {
		return msgNames[k]
	}
	return fmt.Sprintf("MsgKind(%d)", uint8(k))
}

// Msg is a message's header: what it is and carries, without its
// delivery. The mesh ignores it; the choice network queues it. Nodes,
// words and counts fit a byte (the explorer's configurations are far
// smaller), which keeps the header cheap to build on the mesh's path.
type Msg struct {
	Kind     MsgKind
	Src, Dst uint8
	Block    uint32
	Word     uint8
	// Aux is the writer of an update, the acks a reply announces, 1 on
	// a relinquish note or an atomic request needing the block, and the
	// requester on invalidation, fetch and demote traffic.
	Aux uint8
	// Val is the value a write-through, update or reply carries, and an
	// atomic reply's old value; Val2 is that reply's new value and the
	// value an update's write overwrote, which only a stale-value fault
	// sends.
	Val, Val2 uint32
	Data      []uint32 // the block payload, nil without one
}

// Faults are deliberate protocol bugs for the model checker's
// self-tests; each produces a counterexample the invariants must catch.
// The zero value is the faithful protocol.
type Faults struct {
	// SkipInvAck: the last node swallows its invalidation acks; the WI
	// home waits forever (deadlock).
	SkipInvAck bool
	// GrantBeforeAcks: the WI home grants ownership while invalidations
	// are still in flight (single-writer violation).
	GrantBeforeAcks bool
	// SkipDropNotice: a CU copy self-invalidates at the threshold but
	// its drop notice is lost (stale sharer at quiescence).
	SkipDropNotice bool
	// PhantomRetention: the PU home grants private-block retention
	// without checking that the writer is the sole sharer (exclusive
	// copy alongside other copies).
	PhantomRetention bool
	// StaleUpdateValue: updates carry the value their write overwrote
	// (data-value violation at quiescence).
	StaleUpdateValue bool
}

// faultNames are the faults' command-line names, in field order.
var faultNames = [...]string{"skip-inv-ack", "grant-before-acks", "skip-drop-notice", "phantom-retention", "stale-update-value"}

// FaultNames lists the faults' names, in field order.
func FaultNames() []string { return faultNames[:] }

// Set turns on the fault called name and reports whether one is.
func (f *Faults) Set(name string) bool {
	for i, flag := range [...]*bool{&f.SkipInvAck, &f.GrantBeforeAcks, &f.SkipDropNotice, &f.PhantomRetention, &f.StaleUpdateValue} {
		if faultNames[i] == name {
			*flag = true
			return true
		}
	}
	return false
}

// choiceNet is the untimed network: per (src, dst) pair, the queued
// headers and their deliveries, oldest first.
type choiceNet struct {
	n      int
	hdrs   [][]Msg
	fns    [][]func()
	cur    Msg // the header whose delivery is running
	faults Faults
}

// send queues a copy of h: a sender may reuse its header.
func (c *choiceNet) send(h *Msg, fn func()) {
	m := *h
	switch m.Kind {
	case MsgInvAck:
		if c.faults.SkipInvAck && int(m.Src) == c.n-1 {
			return
		}
	case MsgNote:
		if c.faults.SkipDropNotice && m.Aux == 0 {
			return
		}
	case MsgUpd:
		// The handler reads the value from the header it is delivered
		// with (choiceNet.cur), so a rewrite here is what arrives.
		if c.faults.StaleUpdateValue {
			m.Val = m.Val2
		}
		m.Val2 = 0
	}
	i := int(m.Src)*c.n + int(m.Dst)
	c.hdrs[i] = append(c.hdrs[i], m)
	c.fns[i] = append(c.fns[i], fn)
}

// Explorer is a System on the choice network, for the model checker
// (internal/mc) alone: it issues operations through the System's
// methods, picks which channel delivers next, and reads the headers in
// flight and queued at the directory.
type Explorer struct {
	*System
	waiting []Msg // Waiting's result
}

// NewExplorer builds n nodes under cfg on the choice network, with the
// given faults.
func NewExplorer(n int, cfg Config, f Faults) *Explorer {
	s := NewSystem(sim.NewEngine(), n, cfg, classify.New(n))
	s.ch = &choiceNet{n: n, hdrs: make([][]Msg, n*n), fns: make([][]func(), n*n), faults: f}
	// The grant-before-acks fault's invalidations answer no op: theirs
	// is granted, and may be reused, before they arrive.
	s.strayInvFn = func() { s.invalidateCopy(int(s.ch.cur.Dst), s.ch.cur.Block, 0) }
	return &Explorer{System: s}
}

// Reset returns the explorer to its initial state. Messages in flight
// are dropped, and the pooled objects and frames they held come back
// for the next schedule, which builds none of them again.
func (x *Explorer) Reset() {
	if !x.e.Reset() {
		panic("proto: explorer engine refused reset")
	}
	x.System.Reset(x.cfg)
	x.cl.Reset()
	for i := range x.ch.hdrs {
		clear(x.ch.fns[i])
		x.ch.hdrs[i], x.ch.fns[i] = x.ch.hdrs[i][:0], x.ch.fns[i][:0]
	}
}

// Queue returns the headers in flight from src to dst, oldest first.
// The slice is valid until the next action.
func (x *Explorer) Queue(src, dst int) []Msg { return x.ch.hdrs[src*x.ch.n+dst] }

// Waiting returns the headers of the requests queued at block's
// directory entry, oldest first. The slice is valid until the next
// call.
func (x *Explorer) Waiting(block uint32) []Msg {
	x.waiting = x.waiting[:0]
	if d := x.dirEntryAt(block); d != nil {
		for _, r := range d.waitq {
			x.waiting = append(x.waiting, r.hdr)
		}
	}
	return x.waiting
}

// Deliver runs the oldest message from src to dst, and then every
// engine event it leads to. The channel must not be empty.
func (x *Explorer) Deliver(src, dst int) {
	i := src*x.ch.n + dst
	hs, fns := x.ch.hdrs[i], x.ch.fns[i]
	fn := fns[0]
	x.ch.cur = hs[0]
	// Shift down, keeping the storage; the handler may send on this
	// very channel.
	copy(hs, hs[1:])
	copy(fns, fns[1:])
	fns[len(fns)-1] = nil
	x.ch.hdrs[i], x.ch.fns[i] = hs[:len(hs)-1], fns[:len(fns)-1]
	fn()
	x.Drain()
}

// Drain runs the engine until no event is left: the memory accesses an
// issue or a delivery started.
func (x *Explorer) Drain() { x.e.Run() }
