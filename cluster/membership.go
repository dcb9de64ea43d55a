// Package cluster disperses the auditable register across a static quorum
// of auditd nodes: crash-fault tolerance without ever assembling a value —
// or an unmasked reader set — on any single daemon.
//
// # Dispersal, not replication
//
// A cluster write IDA-encodes the 8-byte value into n shares (Rabin's
// information dispersal over GF(2^8), package internal/ida) with threshold
// k = n−2f, masks each node's share under a per-(node, object, wid) pad
// derived from a cluster secret the daemons never hold, and installs share i
// on node i as an ordinary MaxRegister write of the packed value
// wid<<(8*shareLen) | share. Three consequences, all load-bearing:
//
//   - No single node can reconstruct the value: it holds one share, and
//     that share is pad-masked besides. Fewer than k unmasked shares reveal
//     nothing but length; fewer than one unmasked share reveals nothing at
//     all. The honest-but-curious daemon of the paper's threat model learns
//     exactly what it learned in the single-node deployment: sizes, timing,
//     and its own masked bytes.
//   - newest-wid-wins is free: wid occupies the high bits of the packed
//     value, so the MaxRegister's writeMax absorbs duplicate and stale
//     redeliveries without any cluster-level sequencing protocol.
//   - Every share write and share fetch rides the existing audited
//     register machinery — journaled through the node's WAL, swept by the
//     audit pool, recovered after a crash — so the cluster's audit story
//     reduces to merging n per-node audit reports (see Object.Audit).
//
// # Quorum arithmetic
//
// With threshold k = n−2f and quorums of size n−f, any write quorum and any
// read quorum intersect in ≥ n−2f = k nodes: a read that gathers n−f
// responses is guaranteed k shares of every completed write, and therefore
// reconstructs the newest one. Crash tolerance f requires n ≥ 2f+2 (so that
// k ≥ 2 — and k ≥ 2 also keeps the per-share width within the wid packing:
// shareLen = ceil(8/k) ≤ 4 bytes leaves ≥ 32 bits of wid).
//
// The register is single-writer (the paper's model): the writer serializes
// its own wids client-side, monotonically. Readers and the auditor never
// coordinate with the writer beyond the shares themselves.
package cluster

import (
	"fmt"

	"auditreg"
	"auditreg/internal/ida"
	"auditreg/wire"
)

// Node is one member of the static cluster membership.
type Node struct {
	// ID is the node's 1-based cluster id — the value the daemon was booted
	// with (auditd -node-id, server.Config.NodeID). Node i (1-based) holds
	// IDA share i−1, and its share pads are derived from this id, so a
	// transposed address list produces garbage shares instead of silent
	// cross-wiring; the OPEN handshake (client.WithNode) additionally
	// refuses the connection outright.
	ID uint32
	// Addr is the node's auditd address.
	Addr string
	// Key is the node's store key, used only by the audit merge (the
	// cluster auditor unmasks each node's audit rows with it). A membership
	// handed to a reading or writing principal leaves it zero — those roles
	// never audit, and the paper's trust model says they must not hold it.
	Key auditreg.Key
}

// Membership is the static cluster configuration: the n nodes, the crash
// budget f, and the cluster share-pad secret. The secret is held by clients
// (writers, readers, auditors) and NEVER by the daemons: a daemon that knew
// it could unmask its own share, and n−2f colluding daemons could then
// reconstruct values.
type Membership struct {
	Nodes  []Node
	F      int
	Secret auditreg.Key
}

// N returns the node count n.
func (m *Membership) N() int { return len(m.Nodes) }

// Quorum returns n−f, the response count every cluster operation waits for.
func (m *Membership) Quorum() int { return len(m.Nodes) - m.F }

// Threshold returns k = n−2f, the IDA reconstruction threshold — the
// minimum quorum-intersection size, and the number of distinct nodes whose
// audit logs must agree before the merged audit charges a reader with a
// value (see Object.Audit).
func (m *Membership) Threshold() int { return len(m.Nodes) - 2*m.F }

// ShareLen returns the per-node share width in bytes for 8-byte values:
// ceil(8/k), at most wire.MaxShareLen once Validate has passed.
func (m *Membership) ShareLen() int { return (8 + m.Threshold() - 1) / m.Threshold() }

// Validate checks the membership: n ≥ 2f+2 (so k ≥ 2), f ≥ 0, and node ids
// exactly {1, …, n} in order (node i holds IDA share i−1; the id ↔ share
// index correspondence is positional and must be total).
func (m *Membership) Validate() error {
	n := len(m.Nodes)
	if m.F < 0 {
		return fmt.Errorf("cluster: negative crash budget f=%d", m.F)
	}
	if n < 2*m.F+2 {
		return fmt.Errorf("cluster: n=%d nodes cannot tolerate f=%d crashes: need n >= 2f+2 = %d", n, m.F, 2*m.F+2)
	}
	if n > ida.MaxShares {
		return fmt.Errorf("cluster: n=%d exceeds the dispersal limit %d", n, ida.MaxShares)
	}
	for i, nd := range m.Nodes {
		if nd.ID != uint32(i+1) {
			return fmt.Errorf("cluster: node at position %d has id %d, want %d (ids are positional, 1-based)", i, nd.ID, i+1)
		}
		if nd.Addr == "" {
			return fmt.Errorf("cluster: node %d has no address", nd.ID)
		}
	}
	if sl := m.ShareLen(); sl > wire.MaxShareLen {
		return fmt.Errorf("cluster: share width %d exceeds wire limit %d", sl, wire.MaxShareLen)
	}
	return nil
}

// coder returns the membership's IDA coder.
func (m *Membership) coder() (*ida.Coder, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return ida.New(m.N(), m.Threshold())
}

// SeededMembership builds a deterministic membership over addrs with crash
// budget f: cluster secret KeyFromSeed(seed), node i's store key
// KeyFromSeed(seed+i). Test and loadgen scaffolding — production memberships
// are configured with independently generated keys.
func SeededMembership(addrs []string, f int, seed uint64) Membership {
	m := Membership{F: f, Secret: auditreg.KeyFromSeed(seed)}
	for i, addr := range addrs {
		m.Nodes = append(m.Nodes, Node{
			ID:   uint32(i + 1),
			Addr: addr,
			Key:  auditreg.KeyFromSeed(seed + uint64(i) + 1),
		})
	}
	return m
}
