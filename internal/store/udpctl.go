package store

import (
	"fmt"
	"net"

	"redplane/internal/packet"
	"redplane/internal/wire"
)

// This file is the UDPServer's control surface: the handful of
// operations a redplane-ctl agent (or an operator tool) uses to
// reshape a running chain — relink the successor, announce the chain
// position and view, and move bulk state for a rejoin. Everything here
// fences against the shard goroutines with the same per-shard mutex
// the out-of-band readers use.

// SetNextAddr relinks (addr != "") or unlinks (addr == "") the chain
// successor at runtime. With no successor the server acks directly —
// it is the tail.
func (s *UDPServer) SetNextAddr(addr string) error {
	if addr == "" {
		s.next.Store(nil)
		return nil
	}
	na, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("store: resolve successor %q: %w", addr, err)
	}
	ap := unmapped(na)
	s.next.Store(&ap)
	return nil
}

// NextAddr reports the current successor ("" = tail).
func (s *UDPServer) NextAddr() string {
	if na := s.next.Load(); na != nil {
		return na.String()
	}
	return ""
}

// SetChainPos announces the server's position in its chain (0 = head).
// A positive position arms the misroute guard: direct (non-relayed)
// mutating requests are dropped, because a switch writing to a
// mid-chain replica would bypass the head's relay ordering. Position 0
// arms its mirror image: a head has no predecessor, so chain packs sent
// to it are dropped (both count in udp/misroute_drops).
func (s *UDPServer) SetChainPos(pos int) { s.chainPos.Store(int32(pos)) }

// ChainPos reports the announced position (-1 until the control plane
// announces one).
func (s *UDPServer) ChainPos() int { return int(s.chainPos.Load()) }

// SetViewNum records the control plane's view number. It is the data-path
// fence — every chain pack sent carries it, one received under any other
// is dropped — and hello replies echo it so clients see membership churn.
func (s *UDPServer) SetViewNum(v uint64) { s.view.Store(v) }

// ViewNum reports the view chain packs are currently stamped and fenced
// with (0 until a control plane announces one).
func (s *UDPServer) ViewNum() uint64 { return s.view.Load() }

// RelaySeen reports whether any chain-relayed datagram has arrived —
// a mid-chain giveaway even when no control plane ever announced a
// position.
func (s *UDPServer) RelaySeen() bool { return s.relaySeen.Load() }

// misrouted drops direct mutating requests once the control plane has
// placed this server mid-chain (or at the tail). Hellos and relayed
// traffic always pass.
func (s *UDPServer) misrouted(msgs ...*wire.Message) bool {
	if s.chainPos.Load() <= 0 {
		return false
	}
	for _, m := range msgs {
		if m.Type.IsRequest() && m.Type != wire.MsgHello {
			s.misrouteDrops.Add(uint64(len(msgs)))
			return true
		}
	}
	return false
}

// helloAck builds the MsgHello reply. Vals layout (see HelloInfo):
// [shards, hasNext, relaySeen, chainPos+1, view].
func (s *UDPServer) helloAck(m *wire.Message) wire.Message {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	return wire.Message{
		Type: wire.MsgHelloAck, Seq: m.Seq, Key: m.Key, SwitchID: m.SwitchID,
		Vals: []uint64{
			uint64(len(s.shards)),
			b(s.next.Load() != nil),
			b(s.relaySeen.Load()),
			uint64(s.chainPos.Load() + 1),
			s.view.Load(),
		},
	}
}

// HelloInfo is a store's answer to the deployment handshake.
type HelloInfo struct {
	Shards    int    // server-side flow shards (must match the client's)
	HasNext   bool   // has a chain successor (not the tail)
	RelaySeen bool   // has received chain-relayed traffic (not a head)
	ChainPos  int    // control-plane position: -1 unknown, 0 head, >0 downstream
	View      uint64 // control-plane view number (0 if none)
}

// parseHelloAck decodes a MsgHelloAck's Vals.
func parseHelloAck(m *wire.Message) (HelloInfo, error) {
	if m.Type != wire.MsgHelloAck || len(m.Vals) < 5 {
		return HelloInfo{}, fmt.Errorf("store: malformed hello ack %v (%d vals)", m.Type, len(m.Vals))
	}
	return HelloInfo{
		Shards:    int(m.Vals[0]),
		HasNext:   m.Vals[1] != 0,
		RelaySeen: m.Vals[2] != 0,
		ChainPos:  int(m.Vals[3]) - 1,
		View:      m.Vals[4],
	}, nil
}

// ExportState snapshots every replicated flow as full-state updates,
// fenced per shard. The result installs verbatim on a rejoining
// replica.
func (s *UDPServer) ExportState() []Update {
	var ups []Update
	for _, sh := range s.shards {
		sh.mu.Lock()
		ups = append(ups, sh.sh.ExportRange(func(packet.FiveTuple) bool { return true })...)
		sh.mu.Unlock()
	}
	return ups
}

// InstallState applies a peer's exported updates, routing each to its
// owning shard. With replace set, local flows absent from ups are
// dropped first (bulk resync); without it, an update only lands if it is
// not Stale against the local flow (delta merge — never regress a flow
// the live chain already advanced past). Both paths go through
// the WAL hook; callers should still force a checkpoint afterwards to
// bound replay. Returns the number of updates applied.
func (s *UDPServer) InstallState(ups []Update, replace bool) int {
	perShard := make([][]Update, len(s.shards))
	for _, up := range ups {
		si := s.shardFor(up.Key)
		perShard[si] = append(perShard[si], up)
	}
	applied := 0
	for si, sh := range s.shards {
		sh.mu.Lock()
		if replace {
			keep := make(map[packet.FiveTuple]bool, len(perShard[si]))
			for _, up := range perShard[si] {
				keep[up.Key] = true
			}
			sh.sh.DropRange(func(k packet.FiveTuple) bool { return !keep[k] })
		}
		for _, up := range perShard[si] {
			if !replace && sh.sh.Stale(up) {
				continue
			}
			sh.sh.Apply(up)
			applied++
		}
		sh.mu.Unlock()
	}
	return applied
}

// ForceCheckpoints checkpoints every durable shard, bounding WAL
// replay after a bulk InstallState. No-op for non-durable servers.
func (s *UDPServer) ForceCheckpoints(now int64) error {
	for _, sh := range s.shards {
		if sh.dur == nil {
			continue
		}
		sh.mu.Lock()
		err := sh.dur.ForceCheckpoint(now)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
