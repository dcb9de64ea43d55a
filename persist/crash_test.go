package persist

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"auditreg/store"
)

// pairSet is one object's audited (reader, value) pairs.
type pairSet map[[2]uint64]bool

// pairsOf collects the audit pairs of every object the store hosts.
func pairsOf(t *testing.T, st *store.Store[uint64]) map[string]pairSet {
	t.Helper()
	out := make(map[string]pairSet)
	st.Range(func(obj *store.Object[uint64]) bool {
		aud, err := obj.Audit()
		if err != nil {
			t.Fatalf("Audit(%s): %v", obj.Name(), err)
		}
		set := make(pairSet)
		for _, e := range aud.Report.Entries() {
			set[[2]uint64{uint64(e.Reader), e.Value}] = true
		}
		out[obj.Name()] = set
		return true
	})
	return out
}

// modelPairs derives the audit pairs implied by the surviving records of a
// data directory, reading it exactly as recovery would (latest snapshot,
// then tail segments, torn tails tolerated everywhere for this oracle).
func modelPairs(t *testing.T, dir string) map[string]pairSet {
	t.Helper()
	ds, err := readDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newRecoverModel()
	add := func(rec *Record, _ uint64) error { return m.add(rec) }
	for _, id := range ds.live() {
		ln := ds.lineages[id]
		var cut uint64
		if n := len(ln.snapshots); n > 0 {
			cut = ln.snapshots[n-1].meta
			if _, err := scanFile(filepath.Join(dir, ln.snapshots[n-1].name), snapMagic, testKey(), add); err != nil {
				t.Fatal(err)
			}
		}
		for _, sf := range ln.segments {
			if sf.meta < cut {
				continue
			}
			if _, err := scanFile(filepath.Join(dir, sf.name), segMagic, testKey(), add); err != nil {
				t.Fatal(err)
			}
		}
	}
	out := make(map[string]pairSet)
	for name, om := range m.objects {
		set := make(pairSet)
		for _, f := range om.fetches {
			set[[2]uint64{uint64(f.reader), f.value}] = true
		}
		out[name] = set
	}
	return out
}

func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o700); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// subset reports whether every pair of a appears in b.
func subset(a, b map[string]pairSet) (string, bool) {
	for name, pairs := range a {
		for p := range pairs {
			if !b[name][p] {
				return fmt.Sprintf("%s (%d, %d)", name, p[0], p[1]), false
			}
		}
	}
	return "", true
}

func equalPairs(a, b map[string]pairSet) bool {
	if m, ok := subset(a, b); !ok || m != "" {
		return ok
	}
	_, ok := subset(b, a)
	return ok
}

// TestCrashInjection is the randomized harness: it truncates or corrupts a
// crashed data directory at random byte offsets and asserts that recovery
// either replays cleanly — reporting exactly the audit pairs the surviving
// records imply, never silently dropping one — or halts with an explicit
// error.
func TestCrashInjection(t *testing.T) {
	const trials = 60
	baseDir := t.TempDir()
	ref := filepath.Join(baseDir, "ref")
	w, _, st := openWAL(t, ref, Options{SegmentBytes: 8 << 10})
	drive(t, st, 99, 6, 1500)
	if _, err := w.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	drive(t, st, 100, 6, 800)
	w.abandon()
	ground := modelPairs(t, ref)

	rng := rand.New(rand.NewSource(7))
	recovered, halted := 0, 0
	for trial := 0; trial < trials; trial++ {
		dir := filepath.Join(baseDir, fmt.Sprintf("trial-%03d", trial))
		copyDir(t, ref, dir)
		ds, err := readDir(dir)
		if err != nil {
			t.Fatal(err)
		}

		truncating := trial%2 == 0
		if truncating {
			// Truncate the active (last) segment at a random offset: the
			// torn-tail case recovery must absorb.
			segs := ds.lineages[0].segments
			seg := filepath.Join(dir, segs[len(segs)-1].name)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			cutAt := int64(headerLen) + rng.Int63n(info.Size()-headerLen+1)
			if err := os.Truncate(seg, cutAt); err != nil {
				t.Fatal(err)
			}
		} else {
			// Flip a random byte in a random record file.
			files := ds.lineages[0].names(math.MaxUint64)
			path := filepath.Join(dir, files[rng.Intn(len(files))])
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			corruptByte(t, path, rng.Int63n(info.Size()))
		}

		stRec := newTestStore(t)
		wRec, _, err := Open(dir, testKey(), stRec, Options{})
		if err != nil {
			halted++
			if err.Error() == "" {
				t.Fatalf("trial %d: halt without a message", trial)
			}
			continue
		}
		recovered++
		got := pairsOf(t, stRec)
		wRec.Close()
		if truncating {
			// A pure truncation must recover exactly the pairs the
			// surviving prefix implies: nothing invented, nothing silently
			// dropped.
			want := modelPairs(t, dir)
			if !equalPairs(got, want) {
				t.Fatalf("trial %d (truncate): recovered pairs differ from the surviving records", trial)
			}
		}
		// Never invent pairs beyond the uncorrupted ground truth.
		if miss, ok := subset(got, ground); !ok {
			t.Fatalf("trial %d: recovery invented pair %s", trial, miss)
		}
	}
	t.Logf("crash injection: %d recovered, %d halted", recovered, halted)
	if recovered == 0 || halted == 0 {
		t.Fatalf("harness degenerate: %d recovered, %d halted — both paths must be exercised", recovered, halted)
	}
}

// TestLegacyDirectoriesRecover recovers data directories in the layouts
// this package no longer writes, both checked in under testdata and written
// by the striped WAL: a 4-stripe directory ("wal-sNN-%016x.seg"), and a
// 1-stripe one whose stripe tags were renamed away to the names the layout
// before striping used ("wal-%016x.seg"). Each was produced by a killed
// process (SyncAlways, so every acknowledged op is durable) that ran
// drive(11, 9, 400), a Snapshot, and drive(12, 9, 200); an in-memory store
// driven by the same seeds is the oracle for values and audits.
//
// Recovery must match the oracle exactly. Then Snapshot folds the
// directory into one lineage, and a crash (abandon) after each step of that
// fold — the publish, then every deletion — must still recover exactly: a
// leftover legacy file is covered by the published snapshot and must never
// be replayed twice (a duplicate open record would halt recovery). After
// the fold and a reopen, the directory holds one lineage.
func TestLegacyDirectoriesRecover(t *testing.T) {
	ref := newTestStore(t)
	names := drive(t, ref, 11, 9, 400)
	drive(t, ref, 12, 9, 200)
	want := auditAll(t, ref, names)
	vals := valuesOf(t, ref, names)

	for _, fx := range []struct {
		dir      string
		lineages int
	}{
		{"legacy-4stripe", 4},
		{"legacy-prestripe", 1},
	} {
		t.Run(fx.dir, func(t *testing.T) {
			src := filepath.Join("testdata", fx.dir)

			// Count the fold's steps on a clean run.
			dir := filepath.Join(t.TempDir(), "count")
			copyDir(t, src, dir)
			w, res, st := openWAL(t, dir, Options{})
			if res.Stripes != fx.lineages || w.Stats().Stripes != fx.lineages {
				t.Fatalf("recovered %d lineages (stats %d), want %d", res.Stripes, w.Stats().Stripes, fx.lineages)
			}
			requireSameAudits(t, want, st, names)
			steps := 0
			w.afterFoldStep = func() error { steps++; return nil }
			if _, err := w.Snapshot(); err != nil {
				t.Fatalf("Snapshot: %v", err)
			}
			if got := w.Stats().Stripes; got != 1 {
				t.Fatalf("after the fold Stats reports %d lineages, want 1", got)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if steps < 2 {
				t.Fatalf("fold took %d steps; want a publish and deletions", steps)
			}
			requireOneLineage(t, dir)
			w, res, st = openWAL(t, dir, Options{})
			if res.Stripes != 1 {
				t.Fatalf("folded directory recovered %d lineages, want 1", res.Stripes)
			}
			requireSameAudits(t, want, st, names)
			requireSameValues(t, vals, st, names)
			w.Close()

			for crashAt := 1; crashAt <= steps; crashAt++ {
				dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash-%02d", crashAt))
				copyDir(t, src, dir)
				w, _, _ := openWAL(t, dir, Options{})
				n := 0
				w.afterFoldStep = func() error {
					if n++; n == crashAt {
						return fmt.Errorf("crash after fold step %d", n)
					}
					return nil
				}
				if _, err := w.Snapshot(); err == nil {
					t.Fatalf("crash at step %d: Snapshot completed", crashAt)
				}
				w.abandon()

				// The published snapshot covers every leftover: recovery
				// replays it once and finishes the cleanup.
				w, res, st := openWAL(t, dir, Options{})
				if res.Stripes != 1 {
					t.Fatalf("crash at step %d: recovered %d lineages, want 1", crashAt, res.Stripes)
				}
				requireSameAudits(t, want, st, names)
				requireOneLineage(t, dir)
				if _, err := w.Snapshot(); err != nil {
					t.Fatalf("crash at step %d: Snapshot after recovery: %v", crashAt, err)
				}
				if err := w.Close(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				w, _, st = openWAL(t, dir, Options{})
				requireSameAudits(t, want, st, names)
				requireSameValues(t, vals, st, names)
				w.Close()
			}
		})
	}
}

// requireOneLineage asserts every log file in dir belongs to the one log
// this version writes: no stripe tags left.
func requireOneLineage(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if f, isSeg, isSnap := parseFileName(e.Name()); (isSeg || isSnap) && f.tagged {
			t.Errorf("%s survived the fold", e.Name())
		}
	}
}
