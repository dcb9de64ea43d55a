package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"auditreg"
	"auditreg/wire"
)

// Undecided is one (reader, wid) pair the merged audit saw on fewer than k
// nodes: the reader began fetching that write's shares but — as far as the
// merged logs show — never obtained enough to know its value. It is
// reported, not charged: charging it would overstate what the reader can
// know, and the exactness claim cuts both ways.
type Undecided struct {
	Reader int
	Wid    uint64
	Nodes  int // how many nodes logged the pair (0 < Nodes < k)
}

// Merged is the cluster-wide audit of one dispersed object: the union of n
// per-node audit reports, collapsed by the knowledge threshold.
type Merged struct {
	Object string
	// Report charges (reader, value) exactly when ≥ k distinct nodes'
	// audit logs record the reader fetching that write's share — the
	// information-theoretic threshold at which the reader can reconstruct
	// the value. Values are the reconstructed cleartext, recovered from the
	// very shares the logs recorded.
	Report auditreg.Report[uint64]
	// Nodes is how many node audits the merge covers. Exactness holds
	// relative to these: with all n merged, Report is the exact observed
	// set; with crashed nodes excluded (Nodes < n), a reader that used a
	// crashed node's share could fall at most one node short of k, and
	// surfaces in Undecided instead.
	Nodes int
	// Undecided lists sub-threshold (reader, wid) pairs — in-flight reads,
	// or reads whose k-th logging node has not been merged. A pair whose
	// logged shares disagree so badly that no value reaches quorum support
	// is also reported here (Nodes then counts the loggers): the logs prove
	// the reader fetched, but pin no value to charge.
	Undecided []Undecided
	// Corrupted lists the node ids whose logged shares disagreed with a
	// value the merge accepted — a journal corrupted at rest, or a node
	// whose share pipeline is lying consistently enough to journal what it
	// serves. Sorted, deduplicated.
	Corrupted []uint32
}

// Audit merges a fresh audit from every reachable node into the exact
// cluster-wide observed set. It requires the membership to carry every
// node's store key (per-node audit rows cross the wire masked under them)
// and at least a quorum of nodes to answer.
//
// The merge rule: each node's audit rows carry (packed, readers) — one row
// per value the node's share object held; unpacking gives the wid and that
// node's pad-masked share of it. The auditor — holding the cluster secret —
// charges (reader, v_wid) for every (reader, wid) logged by ≥ k distinct
// nodes, reconstructing v_wid from the logged shares themselves. No node
// ever saw a value or an unmasked reader set; the auditor recovers both
// from what the nodes' ordinary audit machinery already journals. See merge
// for how the work is shared between readers and across audits.
func (o *Object) Audit() (Merged, error) {
	type nodeRows struct {
		i    int
		rows []wire.AuditRow
		err  error
	}
	n := o.c.m.N()
	ch := make(chan nodeRows, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			obj, err := o.node(i)
			if err != nil {
				ch <- nodeRows{i: i, err: err}
				return
			}
			aud, err := obj.Auditor()
			if err != nil {
				ch <- nodeRows{i: i, err: err}
				return
			}
			rows, err := aud.AuditRows()
			ch <- nodeRows{i: i, rows: rows, err: err}
		}(i)
	}
	rows := make([][]wire.AuditRow, n)
	nodes := 0
	var firstErr error
	for i := 0; i < n; i++ {
		r := <-ch
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		rows[r.i] = r.rows
		nodes++
	}
	if nodes < o.c.m.Quorum() {
		return Merged{}, fmt.Errorf("cluster: audit %q merged %d of %d nodes, need %d: %w", o.name, nodes, n, o.c.m.Quorum(), firstErr)
	}
	return o.merge(rows, nodes)
}

// merge collapses per-node audit rows (rows[i] from node index i; nil for a
// node that did not answer) into the merged audit; nodes is how many nodes
// answered.
//
// It works per write, not per (reader, wid) pair. The rows are grouped by
// wid: node i's row at wid w contributes one masked share and the readers
// that fetched it. For each reader in a group, the count of nodes that
// logged it decides between charged and Undecided. Charging needs the
// write's value, and that comes from the decoded-writes table when it can:
// a (reader, wid) pair whose ≥ k logged shares all equal the table's masked
// shares for their nodes is charged the table's value with no pad and no
// decode. Any other pair takes the full path — unmask under pads computed
// once per (node, wid), then the verified decodeShares — and a clean decode
// from surplus shares fills the table. Only new writes, or logs that
// disagree with the table, ever reach a decode; wid-0 rows (the public
// initial value) are skipped.
//
// When one node logs two rows for one wid (two different shares — only a
// corrupted journal does that), each reader takes the later row of that
// node that lists it.
func (o *Object) merge(rows [][]wire.AuditRow, nodes int) (Merged, error) {
	n, k, sl := o.c.m.N(), o.c.m.Threshold(), o.c.shareLen
	merged := Merged{Object: o.name, Nodes: nodes}

	// Group: group g's row from node i sits at masked/readers[g*n+i];
	// readers 0 there means node i logged no reader at that wid.
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	groupOf := make(map[uint64]int, total/n+1)
	var wids []uint64
	var masked, readers []uint64
	var extra []extraRow
	for i, nr := range rows {
		for _, row := range nr {
			wid, m := Unpack(row.Value, sl)
			if wid == 0 {
				// The initial value is public: nothing to learn or charge.
				continue
			}
			g, ok := groupOf[wid]
			if !ok {
				g = len(wids)
				groupOf[wid] = g
				wids = append(wids, wid)
				masked = append(masked, make([]uint64, n)...)
				readers = append(readers, make([]uint64, n)...)
			}
			if at := g*n + i; readers[at] == 0 {
				masked[at], readers[at] = m, row.Readers
			} else {
				extra = append(extra, extraRow{g: g, node: i, masked: m, readers: row.Readers})
			}
		}
	}

	var entries []auditreg.Entry[uint64]
	var badNodes []bool
	share := make([]uint64, n) // one reader's masked share per node
	logged := make([]bool, n)  // whether the node logged that reader
	known := make([]uint64, n) // the table's masked shares of the wid
	pads := make([]uint64, n)  // SharePad per node of the wid, once computed
	padded := make([]bool, n)  // whether pads[i] is computed
	for g, wid := range wids {
		base := g * n
		var union uint64
		for _, r := range readers[base : base+n] {
			union |= r
		}
		for _, x := range extra {
			if x.g == g {
				union |= x.readers
			}
		}
		v, hasV := o.decoded.lookup(wid, known, sl)
		clear(padded)
		pad := func(i int) uint64 {
			if !padded[i] {
				pads[i], padded[i] = SharePad(o.c.m.Secret, o.c.m.Nodes[i].ID, o.name, wid, sl), true
			}
			return pads[i]
		}

		for ; union != 0; union &= union - 1 {
			j := bits.TrailingZeros64(union)
			bit := uint64(1) << uint(j)
			for i := 0; i < n; i++ {
				share[i], logged[i] = masked[base+i], readers[base+i]&bit != 0
			}
			for _, x := range extra {
				if x.g == g && x.readers&bit != 0 {
					share[x.node], logged[x.node] = x.masked, true
				}
			}
			count, hit := 0, hasV
			for i := 0; i < n; i++ {
				if logged[i] {
					count++
					hit = hit && share[i] == known[i]
				}
			}
			if count < k {
				merged.Undecided = append(merged.Undecided, Undecided{Reader: j, Wid: wid, Nodes: count})
				continue
			}
			if hit {
				entries = append(entries, auditreg.Entry[uint64]{Reader: j, Value: v})
				continue
			}

			// Non-strict decode: exactly k logged shares ARE the charging
			// semantics (k loggers → the reader could know), and with
			// surplus the decode is verified — a corrupt journal entry
			// cannot shift the charged value, only surface in Corrupted
			// (or, if no value reaches quorum support, demote the pair to
			// Undecided).
			unmasked := make(map[int][]byte, count)
			for i := 0; i < n; i++ {
				if logged[i] {
					b := make([]byte, sl)
					uintToShare(b, share[i]^pad(i))
					unmasked[i] = b
				}
			}
			got, corrupted, err := o.decodeShares(unmasked, false)
			if errors.Is(err, errInconclusive) {
				merged.Undecided = append(merged.Undecided, Undecided{Reader: j, Wid: wid, Nodes: count})
				continue
			}
			if err != nil {
				return Merged{}, fmt.Errorf("cluster: audit %q: reconstruct wid %d from logged shares: %w", o.name, wid, err)
			}
			for _, i := range corrupted {
				if badNodes == nil {
					badNodes = make([]bool, n)
				}
				badNodes[i] = true
			}
			entries = append(entries, auditreg.Entry[uint64]{Reader: j, Value: got})

			// Only a verified decode that every logged share agreed with
			// vouches for a codeword: an exactly-k decode checks nothing.
			// The nodes that did not log this reader get their shares from
			// a re-split of the value, masked under their pads.
			if len(corrupted) > 0 || count == k {
				continue
			}
			expect := o.c.cod.Split(beBytes(got))
			for i := 0; i < n; i++ {
				if logged[i] {
					known[i] = share[i]
				} else {
					known[i] = shareToUint(expect[i]) ^ pad(i)
				}
			}
			o.decoded.store(wid, got, known, sl)
			v, hasV = got, true
		}
	}
	for i, bad := range badNodes {
		if bad {
			merged.Corrupted = append(merged.Corrupted, o.c.m.Nodes[i].ID)
		}
	}
	sort.Slice(merged.Undecided, func(a, b int) bool {
		ua, ub := merged.Undecided[a], merged.Undecided[b]
		if ua.Reader != ub.Reader {
			return ua.Reader < ub.Reader
		}
		return ua.Wid < ub.Wid
	})
	merged.Report = auditreg.NewReport(entries...)
	return merged, nil
}

// extraRow is a node's second (or later) row at one wid: a share differing
// from the node's first row there, which only a corrupted journal logs.
type extraRow struct {
	g, node int
	masked  uint64
	readers uint64
}

// decodedWrites is an Object's decoded-writes table: for each write a merge
// decoded cleanly from surplus shares, its value and the n masked shares
// that encode it — one codeword of the dispersal code, checked share by
// share against the logs it was decoded from. A (reader, wid) pair whose
// ≥ k logged shares all equal the table's is charged the table's value:
// those shares lie on one codeword, and decodeShares on any ≥ k shares of
// one codeword returns its value and reports no corrupted share, so the
// table changes no merged result, only the work to reach it.
//
// Entries live as long as the Object, one per audited write — bounded by
// the nodes' history capacity. Each is 8 + n·shareLen bytes in one arena
// (23 bytes at n=5, f=1) plus its map slot. Safe for concurrent use.
type decodedWrites struct {
	mu  sync.Mutex
	at  map[uint64]int // wid → offset of its entry in ents
	ent []byte         // entries: value (8 bytes, big-endian), then each node's masked share
}

// lookup copies wid's masked shares into shares (len n) and returns its
// value, or reports that the table has no entry for wid.
func (d *decodedWrites) lookup(wid uint64, shares []uint64, shareLen int) (uint64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off, ok := d.at[wid]
	if !ok {
		return 0, false
	}
	e := d.ent[off:]
	for i := range shares {
		shares[i] = shareToUint(e[8+i*shareLen : 8+(i+1)*shareLen])
	}
	return binary.BigEndian.Uint64(e), true
}

// store records wid's value v and its n masked shares, replacing any entry
// wid had.
func (d *decodedWrites) store(wid, v uint64, shares []uint64, shareLen int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.at == nil {
		d.at = make(map[uint64]int)
	}
	off, ok := d.at[wid]
	if !ok {
		off = len(d.ent)
		d.at[wid] = off
		d.ent = append(d.ent, make([]byte, 8+len(shares)*shareLen)...)
	}
	e := d.ent[off:]
	binary.BigEndian.PutUint64(e, v)
	for i, s := range shares {
		uintToShare(e[8+i*shareLen:8+(i+1)*shareLen], s)
	}
}

// NodeStat is one node's STATS snapshot, as gathered by NodeStats.
type NodeStat struct {
	Node uint32
	Addr string
	Err  error // non-nil when the node did not answer; Resp is then zero
	Resp wire.StatsResp
}

// NodeStats fetches one STATS snapshot per node — the raw material of
// cmd/auditctl's cluster health view. The slice is indexed like the
// membership; a node that did not answer carries its error. The call itself
// fails only when NO node answered.
func (c *Client) NodeStats() ([]NodeStat, error) {
	n := c.m.N()
	out := make([]NodeStat, n)
	ch := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { ch <- i }()
			out[i] = NodeStat{Node: c.m.Nodes[i].ID, Addr: c.m.Nodes[i].Addr}
			cl := c.clients[i]
			if cl == nil {
				out[i].Err = errNotDialed
				return
			}
			out[i].Resp, out[i].Err = cl.StatsInfo()
		}(i)
	}
	alive := 0
	for i := 0; i < n; i++ {
		<-ch
	}
	for i := range out {
		if out[i].Err == nil {
			alive++
		}
	}
	if alive == 0 {
		return out, fmt.Errorf("cluster: no node answered STATS: %w", out[0].Err)
	}
	return out, nil
}

// errNotDialed marks a node whose pool never connected.
var errNotDialed = errors.New("cluster: node was not dialable at cluster dial time")
