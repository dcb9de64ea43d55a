package persist

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"auditreg"
	"auditreg/store"
)

// RecoverResult summarizes what Open reconstructed from a data directory.
type RecoverResult struct {
	// Replay counts what was re-executed against the store.
	Replay ReplayStats
	// Records is the number of durable records scanned (snapshots + tails).
	Records int
	// Segments is the number of WAL segments scanned.
	Segments int
	// Stripes is the number of log lineages recovery replayed: 1 for a
	// directory this version wrote, more for a directory the striped WAL
	// layout wrote whose stripes no Snapshot has folded into one log yet.
	Stripes int
	// SnapshotCut is the highest cut LSN among the snapshots that seeded
	// recovery, 0 when the directory had none.
	SnapshotCut uint64
	// TornBytes is the total size of the torn tails discarded from the
	// lineages' last segments (records never acknowledged as durable).
	TornBytes int64
	// AuditedNames lists the objects whose audit cursors had published
	// reports before the crash; the server re-audits them on boot.
	AuditedNames []string
	// UnknownFiles lists directory entries persist does not recognize.
	UnknownFiles []string
}

// Open recovers the data directory into st — which must be fresh and
// journal-less — and returns a running WAL ready to be attached with
// st.SetJournal. A directory that cannot be replayed exactly (corrupt
// snapshot, corrupt sealed segment, impossible record structure) fails with
// an explicit error; the only damage Open repairs silently is a torn tail
// at the end of a lineage's last segment, whose byte count it reports.
//
// Recovery streams: each file is decoded one frame at a time straight into
// the replay model, so its memory is the model's — the objects' surviving
// histories — not the files'. Directories the striped WAL layout wrote stay
// readable: every lineage is replayed into the same model, and the next
// Snapshot folds them into the one log (see walFile).
//
// The directory is created if absent and held under an advisory lock for
// the WAL's lifetime (released by Close, or by the operating system on
// process death).
func Open(dir string, key auditreg.Key, st *store.Store[uint64], opts Options) (*WAL, *RecoverResult, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, nil, err
	}
	w, res, err := open(dir, key, st, opts, lock)
	if err != nil {
		lock.Close()
		return nil, nil, err
	}
	return w, res, nil
}

func open(dir string, key auditreg.Key, st *store.Store[uint64], opts Options, lock *os.File) (*WAL, *RecoverResult, error) {
	ds, err := readDir(dir)
	if err != nil {
		return nil, nil, err
	}
	live := ds.live()
	res := &RecoverResult{UnknownFiles: ds.others, Stripes: len(live)}
	model := newRecoverModel()
	stale := ds.leftovers() // fully covered files to delete after replay
	var crashed []*walFile  // last segments a killed process left unsealed
	nextLSN := uint64(1)
	// Every lineage lands in ONE model: the model is order-insensitive per
	// object, so a striped directory replays exactly as the single log it
	// was partitioned from.
	for _, id := range live {
		ls, err := scanLineage(dir, key, &ds.lineages[id], model, math.MaxUint64, true)
		if err != nil {
			return nil, nil, err
		}
		if id == 0 {
			nextLSN = ls.nextLSN
		}
		res.Segments += ls.segments
		res.TornBytes += ls.torn
		res.SnapshotCut = max(res.SnapshotCut, ls.cut)
		stale = append(stale, ls.stale...)
		if ls.crashed != nil {
			crashed = append(crashed, ls.crashed)
		}
	}
	res.Records = model.records

	stats, err := model.replayInto(st)
	if err != nil {
		return nil, nil, err
	}
	res.Replay = stats
	seqBase := make(map[string]uint64, len(model.objects))
	for name, om := range model.objects {
		if om.maxSeq > 0 {
			seqBase[name] = om.maxSeq
		}
	}
	for name := range model.audited {
		res.AuditedNames = append(res.AuditedNames, name)
	}
	sort.Strings(res.AuditedNames)

	// Finish any interrupted cleanup before going live.
	for _, name := range stale {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return nil, nil, err
		}
	}
	if len(stale) > 0 {
		if err := syncDir(dir); err != nil {
			return nil, nil, err
		}
	}

	// A crashed run's active segment is never appended to again: its torn
	// tail may hold a partial frame whose keystream prefix already reached
	// an attacker's disk image, so reusing its (nonce, lsn) stream would be
	// a two-time pad. Rewrite its valid records into a sealed replacement
	// under a fresh nonce (atomic rename), or drop the file entirely when it
	// holds none.
	for _, sf := range crashed {
		if err := resealCrashed(dir, key, sf); err != nil {
			return nil, nil, err
		}
	}

	w := newWAL(dir, key, opts, lock, seqBase)
	w.nextLSN = nextLSN
	w.lineages.Store(int64(len(live)))
	if err := w.openSegment(nextLSN); err != nil {
		return nil, nil, err
	}
	w.start()
	return w, res, nil
}

// resealCrashed replaces an unsealed segment with a sealed copy of its
// valid records under a fresh nonce, streaming them across, or removes it
// when it holds none.
func resealCrashed(dir string, key auditreg.Key, sf *walFile) error {
	path := filepath.Join(dir, sf.name)
	sw, err := createSealed(dir, sf.name, segMagic, sf.meta, key)
	if err != nil {
		return err
	}
	fs, err := scanFile(path, segMagic, key, sw.add)
	if err != nil {
		sw.abort()
		return err
	}
	if fs.records > 0 {
		return sw.publish()
	}
	sw.abort()
	if err := os.Remove(path); err != nil {
		return err
	}
	return syncDir(dir)
}

// Snapshot compacts the log: flush and seal the active segment (the cut),
// scan everything sealed into the minimal audit-equivalent record sequence,
// publish it as a snapshot file via atomic rename, and delete the covered
// segments and older snapshots. The scan sees whole per-object histories
// because the log is one lineage; in a directory the striped layout wrote,
// it also takes in every other lineage's files, so publishing the snapshot
// folds the directory into one log (a crash before those files are deleted
// leaves them covered, never replayed twice; see dirState.folded). Traffic
// keeps flowing while the scan runs; only the flush-and-rotate moment
// synchronizes with the writer. It returns the cut LSN.
func (w *WAL) Snapshot() (uint64, error) {
	w.snapMu.Lock()
	defer w.snapMu.Unlock()
	if err := w.err(); err != nil {
		return 0, err
	}
	reply := make(chan rotateReply, 1)
	select {
	case w.rotatec <- reply:
	case <-w.done: // only Close and abandon stop the writer, and both mark the log closed
		return 0, w.err()
	}
	rr := <-reply
	if rr.err != nil {
		return 0, rr.err
	}
	cut := rr.cutLSN

	ds, err := readDir(w.dir)
	if err != nil {
		return 0, err
	}
	for _, sf := range ds.lineages[0].snapshots {
		if sf.meta >= cut {
			return 0, fmt.Errorf("persist: snapshot %s already covers cut %d", sf.name, cut)
		}
	}
	model := newRecoverModel()
	covered := ds.leftovers()
	for _, id := range ds.live() {
		below := uint64(math.MaxUint64)
		if id == 0 {
			below = cut // the fresh active segment stays
		}
		ln := &ds.lineages[id]
		if _, err := scanLineage(w.dir, w.key, ln, model, below, false); err != nil {
			return 0, err
		}
		covered = append(covered, ln.names(below)...)
	}

	recs, err := model.compact()
	if err != nil {
		return 0, err
	}
	sw, err := createSealed(w.dir, snapshotName(cut), snapMagic, cut, w.key)
	if err != nil {
		return 0, err
	}
	for i := range recs {
		if err := sw.add(&recs[i], uint64(i)); err != nil {
			sw.abort()
			return 0, err
		}
	}
	if err := sw.publish(); err != nil {
		return 0, err
	}
	w.lineages.Store(1)
	if err := w.foldStep(); err != nil {
		return 0, err
	}
	for _, name := range covered {
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
		if err := w.foldStep(); err != nil {
			return 0, err
		}
	}
	if err := syncDir(w.dir); err != nil {
		return 0, err
	}
	w.snaps.Add(1)
	return cut, nil
}

// foldStep runs the test hook that interrupts Snapshot after the publish
// and after each deletion, as a crash would.
func (w *WAL) foldStep() error {
	if w.afterFoldStep == nil {
		return nil
	}
	return w.afterFoldStep()
}
