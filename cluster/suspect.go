package cluster

import (
	"encoding/binary"
	"errors"
	"sort"
	"sync"
	"sync/atomic"
)

// errInconclusive reports that a share set admits no value with quorum
// support: shares disagree and no candidate decode is consistent with k+f
// of them. Strict callers (reads) treat it as "gather more shares and
// retry"; the audit merge reports the pair as Undecided.
var errInconclusive = errors.New("cluster: shares inconclusive: no value reaches quorum support")

// suspectSet is the per-Client quarantine state: node indexes whose shares
// disagreed with an accepted decode and have not decoded cleanly since.
//
// Quarantine is deliberately asymmetric (invariant:
// quarantine-never-blocks-writes): a suspect node still receives every
// write — it may be a victim of transient bit rot or a restart mid-heal, and
// starving it of shares would turn one corrupt answer into a permanently
// lagging replica. Only the READ side discounts it: a suspect's shares are
// excluded from reconstruction whenever enough trusted shares remain, and
// its answers re-enter the decode only as votes (a share matching the
// accepted value clears the suspicion — the node "decodes cleanly again").
type suspectSet struct {
	mu  sync.Mutex
	bad map[int]bool // node index → quarantined
}

func newSuspectSet() *suspectSet { return &suspectSet{bad: make(map[int]bool)} }

// mark quarantines node i, reporting whether this call transitioned it.
func (s *suspectSet) mark(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bad[i] {
		return false
	}
	s.bad[i] = true
	return true
}

// clear lifts node i's quarantine, reporting whether this call transitioned
// it.
func (s *suspectSet) clear(i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.bad[i] {
		return false
	}
	delete(s.bad, i)
	return true
}

// indexes returns the quarantined node indexes, sorted.
func (s *suspectSet) indexes() []int {
	s.mu.Lock()
	out := make([]int, 0, len(s.bad))
	for i := range s.bad {
		out = append(out, i)
	}
	s.mu.Unlock()
	sort.Ints(out)
	return out
}

// trusted returns shares minus the suspects' entries — unless that would
// drop the set below need, in which case the original map is returned
// untouched: quarantine must never cost the read its threshold (a wrongly
// suspected majority would otherwise wedge reads forever; with the full set
// the consensus rule still rejects anything f corrupt nodes could fake).
func (s *suspectSet) trusted(shares map[int][]byte, need int) map[int][]byte {
	s.mu.Lock()
	excluded := 0
	for i := range shares {
		if s.bad[i] {
			excluded++
		}
	}
	if excluded == 0 || len(shares)-excluded < need {
		s.mu.Unlock()
		return shares
	}
	out := make(map[int][]byte, len(shares)-excluded)
	for i, sh := range shares {
		if !s.bad[i] {
			out[i] = sh
		}
	}
	s.mu.Unlock()
	return out
}

// Counters is a snapshot of a cluster Client's Byzantine-detection counters.
// All are monotonic over the Client's lifetime.
type Counters struct {
	// VerifiedDecodes counts reconstructions that ran with surplus shares —
	// every one was consistency-checked against a re-encode before its value
	// was accepted (invariant: verified-decode-when-surplus). Reads count
	// one each. An audit merge counts one only for a (reader, wid) pair it
	// cannot charge from its decoded-writes table — on an honest cluster,
	// about one per write new since the last audit.
	VerifiedDecodes uint64
	// ConsensusDecodes counts quorum-support searches: decodes that could
	// not take the clean fast path (some share disagreed, or too few
	// trusted shares to prove a read clean) and held at least q = k+f
	// shares. A decode with fewer shares is inconclusive without a search,
	// since no candidate could gather q supporters, and is not counted; on
	// an honest cluster the counter stays zero.
	ConsensusDecodes uint64
	// CorruptShares counts individual shares that disagreed with an accepted
	// decode, summed over reads and audit merges. One persistently
	// corrupting node increments this on every read that sees its share.
	CorruptShares uint64
	// SuspectMarks / SuspectClears count quarantine transitions. A node
	// oscillating between the two is corrupting intermittently.
	SuspectMarks  uint64
	SuspectClears uint64
}

// counters is the atomic backing store of Counters.
type counters struct {
	verifiedDecodes  atomic.Uint64
	consensusDecodes atomic.Uint64
	corruptShares    atomic.Uint64
	suspectMarks     atomic.Uint64
	suspectClears    atomic.Uint64
}

func (c *counters) snapshot() Counters {
	return Counters{
		VerifiedDecodes:  c.verifiedDecodes.Load(),
		ConsensusDecodes: c.consensusDecodes.Load(),
		CorruptShares:    c.corruptShares.Load(),
		SuspectMarks:     c.suspectMarks.Load(),
		SuspectClears:    c.suspectClears.Load(),
	}
}

// Counters returns a snapshot of the client's Byzantine-detection counters.
func (c *Client) Counters() Counters { return c.ctr.snapshot() }

// Suspects returns the node IDs currently quarantined by this client,
// sorted by membership position. Empty means every node's shares have
// decoded cleanly lately.
func (c *Client) Suspects() []uint32 {
	idx := c.suspects.indexes()
	out := make([]uint32, 0, len(idx))
	for _, i := range idx {
		out = append(out, c.m.Nodes[i].ID)
	}
	return out
}

// decodeShares is the single entry point for turning a set of unmasked
// shares (node index → share bytes, all claiming the same wid) into a
// value. Both the read path and the audit merge route through it.
//
// The rule set, in order:
//
//  1. Exactly k shares (strict==false callers only): plain unverified
//     Reconstruct. There is no redundancy, so no detection is possible —
//     this is the audit merge's charging threshold, where "k nodes logged
//     it" is itself the semantic being reported.
//  2. Surplus available: ida.Verify over the trusted subset (suspects'
//     shares excluded while enough trusted shares remain). A clean verify
//     over ≥ quorum shares is accepted outright: n−f consistent shares
//     contain ≥ k honest ones, and k honest shares pin the true value.
//  3. Any disagreement — or a trusted set too small to prove cleanliness —
//     falls to the consensus search: every k-subset's decode is a
//     candidate, and a candidate is accepted iff ≥ quorum (k+f) of ALL
//     provided shares re-encode consistently with it. A wrong value can
//     gather at most k−1 honest supporters (k would pin it as the true
//     value) plus f corrupt ones: k+f−1 < k+f, so no coalition of ≤ f
//     Byzantine nodes can push a wrong value past the threshold. Suspects
//     vote here too — a vote is checked arithmetic, not trust.
//
// strict callers (reads) get (0, nil, errInconclusive) when no candidate
// reaches quorum support; non-strict callers (audit merge, f=0 clusters)
// additionally accept rule 1. corrupted lists the node indexes whose shares
// disagreed with the accepted value; quarantine state and counters are
// updated as a side effect.
func (o *Object) decodeShares(shares map[int][]byte, strict bool) (v uint64, corrupted []int, err error) {
	k := o.c.m.Threshold()
	q := o.c.m.Quorum() // == k + f: the consensus acceptance threshold

	if len(shares) <= k && !strict {
		data, err := o.c.cod.Reconstruct(shares, 8)
		if err != nil {
			return 0, nil, err
		}
		return beUint(data), nil, nil
	}

	var data []byte
	used := o.c.suspects.trusted(shares, k+1)
	if len(used) > k {
		d, bad, verr := o.c.cod.Verify(used, 8)
		if verr != nil {
			return 0, nil, verr
		}
		o.c.ctr.verifiedDecodes.Add(1)
		// A clean verify is decisive for a read only at quorum size (k+f
		// consistent shares contain ≥ k honest ones; a smaller clean set
		// could still be a fabrication of f colluders around one honest
		// share). The audit merge accepts any clean surplus — its charging
		// semantics are "what the logs pin", and the logs disagreeing is
		// the only thing that voids them.
		if len(bad) == 0 && (!strict || len(used) >= q) {
			data = d
		}
	}
	if data == nil {
		// Fewer than q shares cannot give any candidate q supporters: a
		// read that resolved at exactly k shares (it raced a write) would
		// only search in vain. Inconclusive, with no search to count.
		if len(shares) < q {
			return 0, nil, errInconclusive
		}
		o.c.ctr.consensusDecodes.Add(1)
		data = o.consensusDecode(shares, q)
		if data == nil {
			return 0, nil, errInconclusive
		}
	}

	// Post-accept validation votes EVERY provided share — including
	// excluded suspects' — against the accepted value: mismatches are
	// corrupt (and quarantined), matches clear an existing quarantine.
	expect := o.c.cod.Split(data)
	for i, s := range shares {
		if shareEqual(s, expect[i]) {
			if o.c.suspects.clear(i) {
				o.c.ctr.suspectClears.Add(1)
			}
			continue
		}
		corrupted = append(corrupted, i)
		if o.c.suspects.mark(i) {
			o.c.ctr.suspectMarks.Add(1)
		}
	}
	if len(corrupted) > 0 {
		sort.Ints(corrupted)
		o.c.ctr.corruptShares.Add(uint64(len(corrupted)))
	}
	return beUint(data), corrupted, nil
}

// consensusDecode searches for the candidate value with quorum support:
// decode every k-subset of shares, re-encode, and count the provided shares
// consistent with the result. Returns the first candidate reaching support
// ≥ q, or nil when none does (inconclusive — the caller gathers more
// shares or retries). Cluster geometries keep n ≤ a handful, so the subset
// enumeration is at most C(7,5) = 21 decodes, each over 8 bytes.
func (o *Object) consensusDecode(shares map[int][]byte, q int) []byte {
	idx := make([]int, 0, len(shares))
	for i := range shares {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	k := o.c.m.Threshold()

	var accepted []byte
	forEachSubset(len(idx), k, func(pick []int) bool {
		sub := make(map[int][]byte, k)
		for _, p := range pick {
			sub[idx[p]] = shares[idx[p]]
		}
		data, err := o.c.cod.Reconstruct(sub, 8)
		if err != nil {
			return false
		}
		expect := o.c.cod.Split(data)
		support := 0
		for i, s := range shares {
			if shareEqual(s, expect[i]) {
				support++
			}
		}
		if support >= q {
			accepted = data
			return true
		}
		return false
	})
	return accepted
}

// forEachSubset calls fn with every size-r subset of {0, …, n−1} until fn
// returns true (early exit).
func forEachSubset(n, r int, fn func(idx []int) bool) {
	idx := make([]int, r)
	var rec func(pos, next int) bool
	rec = func(pos, next int) bool {
		if pos == r {
			return fn(idx)
		}
		for i := next; i <= n-(r-pos); i++ {
			idx[pos] = i
			if rec(pos+1, i+1) {
				return true
			}
		}
		return false
	}
	rec(0, 0)
}

// shareEqual compares two share byte strings.
func shareEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// beBytes is beUint's inverse for 8-byte values.
func beBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// beUint folds big-endian bytes into a uint64.
func beUint(data []byte) uint64 {
	var v uint64
	for _, b := range data {
		v = v<<8 | uint64(b)
	}
	return v
}
