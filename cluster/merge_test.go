package cluster

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"auditreg"
	"auditreg/wire"
)

// newMergeObject returns an Object over an n-node, crash-budget-f
// membership with no node connections: enough for merge and decodeShares,
// which need only the membership, the coder and the detection state.
func newMergeObject(t testing.TB, n, f int, seed uint64) *Object {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i+1)
	}
	m := SeededMembership(addrs, f, seed)
	cod, err := m.coder()
	if err != nil {
		t.Fatalf("coder: %v", err)
	}
	c := &Client{m: m, cod: cod, shareLen: m.ShareLen(), suspects: newSuspectSet(), objects: make(map[string]*Object)}
	return &Object{c: c, name: "merge/obj", readers: mergeReaders}
}

const mergeReaders = 8

// referenceMerge is the audit merge as it ran per (reader, wid) pair: every
// node's rows are expanded into a report, every logged entry is unmasked
// under its own pad, and every pair with ≥ k loggers runs a decode. The
// differential test holds merge to it.
func referenceMerge(o *Object, rows [][]wire.AuditRow, nodes int) (Merged, error) {
	merged := Merged{Object: o.name, Nodes: nodes}
	type pair struct {
		reader int
		wid    uint64
	}
	shares := make(map[pair]map[int][]byte) // (reader, wid) → node index → unmasked share
	for i, nr := range rows {
		var nodeEntries []auditreg.Entry[uint64]
		for _, row := range nr {
			for j := 0; j < 64; j++ {
				if row.Readers&(1<<uint(j)) != 0 {
					nodeEntries = append(nodeEntries, auditreg.Entry[uint64]{Reader: j, Value: row.Value})
				}
			}
		}
		nodeID := o.c.m.Nodes[i].ID
		for _, e := range auditreg.NewReport(nodeEntries...).Entries() {
			wid, masked := Unpack(e.Value, o.c.shareLen)
			if wid == 0 {
				continue
			}
			p := pair{reader: e.Reader, wid: wid}
			m := shares[p]
			if m == nil {
				m = make(map[int][]byte)
				shares[p] = m
			}
			share := make([]byte, o.c.shareLen)
			uintToShare(share, masked^SharePad(o.c.m.Secret, nodeID, o.name, wid, o.c.shareLen))
			m[i] = share
		}
	}

	k := o.c.m.Threshold()
	badNodes := make(map[uint32]bool)
	var entries []auditreg.Entry[uint64]
	for p, m := range shares {
		if len(m) < k {
			merged.Undecided = append(merged.Undecided, Undecided{Reader: p.reader, Wid: p.wid, Nodes: len(m)})
			continue
		}
		v, corrupted, err := o.decodeShares(m, false)
		if errors.Is(err, errInconclusive) {
			merged.Undecided = append(merged.Undecided, Undecided{Reader: p.reader, Wid: p.wid, Nodes: len(m)})
			continue
		}
		if err != nil {
			return Merged{}, err
		}
		for _, i := range corrupted {
			badNodes[o.c.m.Nodes[i].ID] = true
		}
		entries = append(entries, auditreg.Entry[uint64]{Reader: p.reader, Value: v})
	}
	for id := range badNodes {
		merged.Corrupted = append(merged.Corrupted, id)
	}
	sort.Slice(merged.Corrupted, func(a, b int) bool { return merged.Corrupted[a] < merged.Corrupted[b] })
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

// diffMerged describes how two merges differ, or returns "" when they are
// the same: equal Object and Nodes, Report equal as a set, and identical
// Undecided and Corrupted lists.
func diffMerged(got, want Merged) string {
	switch {
	case got.Object != want.Object || got.Nodes != want.Nodes:
		return fmt.Sprintf("object/nodes %q/%d, want %q/%d", got.Object, got.Nodes, want.Object, want.Nodes)
	case !got.Report.Equal(want.Report):
		return fmt.Sprintf("report %v, want %v", got.Report.Entries(), want.Report.Entries())
	case len(got.Undecided) != len(want.Undecided) || (len(got.Undecided) > 0 && !reflect.DeepEqual(got.Undecided, want.Undecided)):
		return fmt.Sprintf("undecided %+v, want %+v", got.Undecided, want.Undecided)
	case len(got.Corrupted) != len(want.Corrupted) || (len(got.Corrupted) > 0 && !reflect.DeepEqual(got.Corrupted, want.Corrupted)):
		return fmt.Sprintf("corrupted %v, want %v", got.Corrupted, want.Corrupted)
	}
	return ""
}

// history simulates the audit journals of one dispersed object's n share
// objects: writes with their honest masked shares, fetches logged on
// chosen node subsets, and journal corruption.
type history struct {
	o      *Object
	rng    *rand.Rand
	vals   []uint64   // vals[w-1] is write w's value
	masked [][]uint64 // masked[w-1][i] is the share node i logs for w from now on
	nodes  []journal
}

// journal is one node's audit: one row per packed value, in first-logged
// order, as the server renders it.
type journal struct {
	rows []wire.AuditRow
	at   map[uint64]int // packed value → row
}

func (j *journal) log(packed uint64, reader int) {
	if j.at == nil {
		j.at = make(map[uint64]int)
	}
	r, ok := j.at[packed]
	if !ok {
		r = len(j.rows)
		j.at[packed] = r
		j.rows = append(j.rows, wire.AuditRow{Value: packed})
	}
	j.rows[r].Readers |= 1 << uint(reader)
}

func newHistory(o *Object, seed uint64) *history {
	return &history{o: o, rng: rand.New(rand.NewPCG(seed, 0x6d65726765)), nodes: make([]journal, o.c.m.N())}
}

func (h *history) write() {
	v := h.rng.Uint64()
	switch h.rng.IntN(8) {
	case 0:
		v = 0 // a written zero is charged like any value
	case 1:
		if len(h.vals) > 0 {
			v = h.vals[h.rng.IntN(len(h.vals))] // a repeated value
		}
	}
	wid := uint64(len(h.vals) + 1)
	h.vals = append(h.vals, v)
	shares := h.o.c.cod.Split(beBytes(v))
	m := make([]uint64, len(shares))
	for i, s := range shares {
		m[i] = shareToUint(s) ^ SharePad(h.o.c.m.Secret, h.o.c.m.Nodes[i].ID, h.o.name, wid, h.o.c.shareLen)
	}
	h.masked = append(h.masked, m)
}

// fetch logs one reader fetching one wid (0: the initial value) on a random
// node subset, sized so that sub-k, exactly-k and surplus pairs all occur.
func (h *history) fetch() {
	n := h.o.c.m.N()
	reader := h.rng.IntN(mergeReaders)
	wid := uint64(0)
	if len(h.vals) > 0 && h.rng.IntN(10) != 0 {
		// Mostly recent writes, so that pairs accumulate loggers.
		wid = uint64(len(h.vals) - h.rng.IntN(min(len(h.vals), 4)))
	}
	count := 1 + h.rng.IntN(n)
	if h.rng.IntN(2) == 0 {
		count = n - h.rng.IntN(2)
	}
	for _, i := range h.rng.Perm(n)[:count] {
		packed := uint64(0)
		if wid != 0 {
			packed = Pack(wid, h.masked[wid-1][i], h.o.c.shareLen)
		}
		h.nodes[i].log(packed, reader)
	}
}

// corrupt makes one node log a wrong share for one wid. inPlace rewrites
// the share of the rows the node already holds at that wid (a journal
// corrupted at rest); otherwise only later fetches log the wrong share, so
// the node ends up with two rows for the wid.
func (h *history) corrupt(inPlace bool) {
	if len(h.vals) == 0 {
		return
	}
	wid := uint64(1 + h.rng.IntN(len(h.vals)))
	i := h.rng.IntN(h.o.c.m.N())
	old := h.masked[wid-1][i]
	bad := old ^ (1 + h.rng.Uint64N(shareMask(h.o.c.shareLen)))
	h.masked[wid-1][i] = bad
	if !inPlace {
		return
	}
	j := &h.nodes[i]
	oldPacked, newPacked := Pack(wid, old, h.o.c.shareLen), Pack(wid, bad, h.o.c.shareLen)
	if r, ok := j.at[oldPacked]; ok {
		if _, clash := j.at[newPacked]; !clash {
			j.rows[r].Value = newPacked
			delete(j.at, oldPacked)
			j.at[newPacked] = r
		}
	}
}

// audit returns each node's rows, dropping one node at random now and then.
func (h *history) audit() (rows [][]wire.AuditRow, nodes int) {
	n := h.o.c.m.N()
	missing := -1
	if h.rng.IntN(5) == 0 {
		missing = h.rng.IntN(n)
	}
	rows = make([][]wire.AuditRow, n)
	for i := range rows {
		if i == missing {
			continue
		}
		rows[i] = append([]wire.AuditRow(nil), h.nodes[i].rows...)
		nodes++
	}
	return rows, nodes
}

// TestMergeMatchesReference is the differential test of the merge by write:
// on randomized node journals — sub-k, exactly-k and surplus pairs, wid-0
// rows, a missing node, wrong shares in place and as a node's second row
// for a wid — and over repeated audits of one Object whose journals grow
// between audits (so the decoded-writes table is warm), merge must return
// the Merged the per-pair reference merge returns.
//
// Geometries keep f = 1: there a non-strict decode's outcome does not
// depend on the quarantine state, which the per-pair merge itself updates
// in map order, so the reference is a function of the rows alone.
func TestMergeMatchesReference(t *testing.T) {
	var refDecodes, decodes uint64
	for _, geo := range []struct{ n, f int }{{4, 1}, {5, 1}, {6, 1}} {
		for seed := uint64(0); seed < 40; seed++ {
			o := newMergeObject(t, geo.n, geo.f, 7000+seed)
			ref := newMergeObject(t, geo.n, geo.f, 7000+seed)
			h := newHistory(o, seed)
			for round := 0; round < 6; round++ {
				for op := 0; op < 12; op++ {
					switch x := h.rng.IntN(20); {
					case x < 4:
						h.write()
					case x == 4:
						h.corrupt(h.rng.IntN(2) == 0)
					default:
						h.fetch()
					}
				}
				rows, nodes := h.audit()
				want, werr := referenceMerge(ref, rows, nodes)
				got, err := o.merge(rows, nodes)
				if (err != nil) != (werr != nil) {
					t.Fatalf("n=%d seed %d round %d: merge error %v, reference error %v", geo.n, seed, round, err, werr)
				}
				if d := diffMerged(got, want); d != "" {
					t.Fatalf("n=%d seed %d round %d: %s", geo.n, seed, round, d)
				}
			}
			refDecodes += ref.c.ctr.verifiedDecodes.Load()
			decodes += o.c.ctr.verifiedDecodes.Load()
		}
	}
	// The table must be doing the work: most pairs are charged from it.
	if decodes*2 > refDecodes {
		t.Fatalf("merge ran %d verified decodes against the reference's %d; the decoded-writes table is not being used", decodes, refDecodes)
	}
}

// TestMergeDecodesEachWriteOnce pins the cost model on an honest history:
// with every pair logged on all n nodes, the first audit decodes each write
// once whatever its reader count, and a repeated audit decodes nothing.
func TestMergeDecodesEachWriteOnce(t *testing.T) {
	o := newMergeObject(t, 5, 1, 41)
	h := newHistory(o, 41)
	const writes = 6
	for w := 0; w < writes; w++ {
		h.write()
		for r := 0; r < mergeReaders; r++ {
			for i := range h.nodes {
				h.nodes[i].log(Pack(uint64(w+1), h.masked[w][i], o.c.shareLen), r)
			}
		}
	}
	rows := make([][]wire.AuditRow, len(h.nodes))
	for i := range rows {
		rows[i] = h.nodes[i].rows
	}
	for audit := 1; audit <= 2; audit++ {
		m, err := o.merge(rows, len(rows))
		if err != nil {
			t.Fatal(err)
		}
		if m.Report.Len() > writes*mergeReaders || len(m.Undecided) != 0 || len(m.Corrupted) != 0 {
			t.Fatalf("audit %d: %d entries, undecided %v, corrupted %v", audit, m.Report.Len(), m.Undecided, m.Corrupted)
		}
		for w, v := range h.vals {
			for r := 0; r < mergeReaders; r++ {
				if !m.Report.Contains(r, v) {
					t.Fatalf("audit %d misses (reader %d, value %#x) of wid %d", audit, r, v, w+1)
				}
			}
		}
		if got := o.c.ctr.verifiedDecodes.Load(); got != writes {
			t.Fatalf("after audit %d: %d verified decodes, want %d (one per write)", audit, got, writes)
		}
	}
}

// TestStrictDecodeBelowQuorum pins the consensus shortcut: a strict decode
// holding fewer than q = k+f shares cannot reach quorum support, so it is
// inconclusive without a search — and without counting one. With all n
// shares, one of them corrupt, the search runs, is counted, and succeeds.
func TestStrictDecodeBelowQuorum(t *testing.T) {
	o := newMergeObject(t, 5, 1, 42)
	k := o.c.m.Threshold()
	const v = uint64(0x0123_4567_89AB_CDEF)
	all := o.c.cod.Split(beBytes(v))
	shares := make(map[int][]byte)
	for i := 0; i < k; i++ {
		shares[i] = all[i]
	}
	if _, _, err := o.decodeShares(shares, true); !errors.Is(err, errInconclusive) {
		t.Fatalf("strict decode of %d shares: err %v, want errInconclusive", k, err)
	}
	if c := o.c.Counters(); c.ConsensusDecodes != 0 {
		t.Fatalf("strict decode of %d shares counted %d consensus decodes, want 0", k, c.ConsensusDecodes)
	}
	if got, _, err := o.decodeShares(shares, false); err != nil || got != v {
		t.Fatalf("non-strict decode of %d shares = %#x, %v; want %#x", k, got, err, v)
	}

	for i := k; i < len(all); i++ {
		shares[i] = all[i]
	}
	shares[0] = append([]byte(nil), all[0]...)
	shares[0][0] ^= 1
	got, corrupted, err := o.decodeShares(shares, true)
	if err != nil || got != v || !reflect.DeepEqual(corrupted, []int{0}) {
		t.Fatalf("strict decode of %d shares, one corrupt = %#x, %v, %v; want %#x, [0], nil", len(all), got, corrupted, err, v)
	}
	if c := o.c.Counters(); c.ConsensusDecodes != 1 {
		t.Fatalf("consensus decodes = %d, want 1", c.ConsensusDecodes)
	}
}
