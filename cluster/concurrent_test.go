package cluster_test

import (
	"sync"
	"testing"

	"auditreg/cluster"
)

// readPair is one completed read: the reader and the value it returned.
type readPair struct {
	reader int
	value  uint64
}

// mixedLoad is one writer and one goroutine per reader driving an object.
// Values are unique (a tag in the high bits, a count in the low). written
// holds every value from before its write starts; reads holds every
// completed read of a nonzero value, in completion order. Both are guarded
// by mu.
type mixedLoad struct {
	mu      sync.Mutex
	written map[uint64]bool
	reads   []readPair
}

func newMixedLoad() *mixedLoad { return &mixedLoad{written: make(map[uint64]bool)} }

// run writes writes values while every reader reads, and returns once the
// writer is done and the readers have stopped.
func (ml *mixedLoad) run(t *testing.T, obj *cluster.Object, writes int, tag uint64) {
	t.Helper()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < obj.Readers(); r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, err := obj.Read(r)
				if err != nil {
					t.Errorf("Read(%d): %v", r, err)
					return
				}
				if v != 0 {
					ml.mu.Lock()
					ml.reads = append(ml.reads, readPair{r, v})
					ml.mu.Unlock()
				}
			}
		}(r)
	}
	for i := 1; i <= writes; i++ {
		v := tag<<32 | uint64(i)
		ml.mu.Lock()
		ml.written[v] = true
		ml.mu.Unlock()
		if err := obj.Write(v); err != nil {
			t.Errorf("Write #%d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// completed returns how many reads have completed so far.
func (ml *mixedLoad) completed() int {
	ml.mu.Lock()
	defer ml.mu.Unlock()
	return len(ml.reads)
}

// check verifies one merged audit against the load: the first before
// completed reads (those that finished before the audit began) are all
// charged, every charged value was written, and no node is corrupted.
func (ml *mixedLoad) check(t *testing.T, who string, m cluster.Merged, n, before int) {
	t.Helper()
	ml.mu.Lock()
	defer ml.mu.Unlock()
	if m.Nodes != n || len(m.Corrupted) != 0 {
		t.Errorf("%s: merged %d of %d nodes, corrupted %v", who, m.Nodes, n, m.Corrupted)
	}
	for _, p := range ml.reads[:before] {
		if !m.Report.Contains(p.reader, p.value) {
			t.Errorf("%s: misses completed read (reader %d, value %#x)", who, p.reader, p.value)
			return
		}
	}
	for _, e := range m.Report.Entries() {
		if !ml.written[e.Value] {
			t.Errorf("%s: charges (reader %d, value %#x), a value never written", who, e.Reader, e.Value)
			return
		}
	}
}

// TestConcurrentAudits runs two auditors against one Object while a writer
// and every reader run. The merges share the Object's decoded-writes table,
// and each must stay exact: complete for every read that finished before
// it began, charging only written values. Once the load has stopped, two
// last concurrent audits must pass the same check over every read and
// agree with each other.
func TestConcurrentAudits(t *testing.T) {
	tc := startCluster(t, 5, 1, 108)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("shared")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := tc.m.N()
	ml := newMixedLoad()

	done := make(chan struct{})
	var wg sync.WaitGroup
	audits := make([]int, 2)
	for a := range audits {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				before := ml.completed()
				m, err := obj.Audit()
				if err != nil {
					t.Errorf("auditor %d: Audit: %v", a, err)
					return
				}
				ml.check(t, "auditor", m, n, before)
				audits[a]++
			}
		}(a)
	}
	ml.run(t, obj, 60, 7)
	close(done)
	wg.Wait()
	if audits[0] == 0 || audits[1] == 0 {
		t.Fatalf("audits during the load: %v, want both auditors to have audited", audits)
	}

	// Quiet now: both last audits cover every completed read.
	final := make([]cluster.Merged, 2)
	before := ml.completed()
	for a := range final {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			m, err := obj.Audit()
			if err != nil {
				t.Errorf("final audit %d: %v", a, err)
				return
			}
			final[a] = m
		}(a)
	}
	wg.Wait()
	for _, m := range final {
		ml.check(t, "final audit", m, n, before)
	}
	if !final[0].Report.Equal(final[1].Report) {
		t.Errorf("final concurrent audits disagree:\n%v\n%v", final[0].Report, final[1].Report)
	}
}

// TestHonestClusterNeedsNoConsensus drives reads that race writes on an
// honest cluster: such a read can resolve at exactly k shares, where a
// strict decode cannot verify — and with fewer than k+f shares no
// consensus search can succeed either, so none may run. With no corrupt
// node, every read must be decided without one.
func TestHonestClusterNeedsNoConsensus(t *testing.T) {
	tc := startCluster(t, 5, 1, 109)
	cc := dialCluster(t, tc)
	obj, err := cc.Open("racing")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ml := newMixedLoad()
	ml.run(t, obj, 150, 9)
	ctr := cc.Counters()
	if ctr.ConsensusDecodes != 0 || ctr.CorruptShares != 0 {
		t.Fatalf("honest cluster: %+v, want no consensus decodes and no corrupt shares", ctr)
	}
	if ctr.VerifiedDecodes == 0 || ml.completed() == 0 {
		t.Fatalf("no verified decode ran (%+v, %d reads): the load did not run", ctr, ml.completed())
	}
}
