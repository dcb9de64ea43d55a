package persist

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"auditreg"
	"auditreg/internal/telem"
	"auditreg/store"
)

// lockFileName is the advisory-lock file guarding a data directory against
// two daemons. flock releases it on process death, so a kill -9 never wedges
// the directory.
const lockFileName = "wal.lock"

// pending is one record awaiting the group-commit writer; done is non-nil
// when the mutator blocks for durability (SyncAlways opens, writes, and
// fetches).
type pending struct {
	rec  Record
	done chan error
}

// encSize estimates the record's encoded frame size, for the BatchBytes
// window cutoff.
func (p *pending) encSize() int {
	return frameOverhead + 16 + len(p.rec.Name)
}

// doneChans pools the one-shot completion channels of blocking records: the
// writer sends exactly one verdict, the mutator consumes it and returns the
// empty channel — so a blocking mutation costs no channel allocation at
// steady state.
var doneChans = sync.Pool{New: func() any { return make(chan error, 1) }}

// SyncHistBuckets is the number of buckets of the group-commit batch-size
// histogram: records per fsync, in power-of-two buckets ≤1, ≤2, ≤4, ...,
// ≤64, and a final overflow bucket.
const SyncHistBuckets = 8

// syncBucket maps a records-per-fsync count to its histogram bucket.
func syncBucket(n int) int {
	if n < 1 {
		n = 1
	}
	b := bits.Len(uint(n - 1)) // ceil(log2 n)
	if b >= SyncHistBuckets {
		b = SyncHistBuckets - 1
	}
	return b
}

// WAL is the write-ahead log over one data directory: one append buffer,
// one writer goroutine (run) with its adaptive commit window, one sync
// goroutine (syncLoop) carrying the pipelined fsync, and one chain of
// segment files and snapshots in one LSN space.
//
// It implements store.Journal[uint64]: attach it with store.Store.SetJournal
// (after recovery) or store.WithJournal (fresh store). Construct with Open;
// all methods are safe for concurrent use.
type WAL struct {
	dir  string
	key  auditreg.Key
	opts Options

	// seqBase maps each recovered object to the highest sequence number
	// its on-disk records carry. Replay renumbers in-memory sequence
	// numbers from 1 (compaction and synthesis drop unobservable writes),
	// so journaled seqs are shifted above the base to keep every object's
	// on-disk seqs strictly increasing across process generations —
	// otherwise a later recovery would see two different writes claiming
	// one seq and halt on perfectly healthy data. Built once before the
	// writer starts; read-only afterwards.
	seqBase map[string]uint64

	lock *os.File

	// The append buffer.
	mu   sync.Mutex
	recs []pending

	notify   chan struct{}
	rotatec  chan chan rotateReply
	flushc   chan chan error
	stopc    chan struct{} // closed by Close
	killc    chan struct{} // closed by abandon: crash simulation
	done     chan struct{}
	syncc    chan syncJob // writer → sync goroutine (unbuffered; one job in flight)
	syncack  chan syncAck // sync goroutine → writer (buffered; never blocks the syncer)
	syncdone chan struct{}
	closed   atomic.Bool

	// failed is the sticky failure: a log that lost its disk must not keep
	// acknowledging.
	failed atomic.Pointer[error]

	// waiters counts blocking mutators whose records the writer has not yet
	// committed (incremented on entry to append, decremented when the
	// record completes). The adaptive commit window compares it against the
	// blocking records already drained: while more waiters are known to be
	// in flight, holding the fsync open a little longer absorbs them into
	// the same batch.
	waiters atomic.Int64

	// Writer-goroutine state; untouched by other goroutines.
	active     *os.File
	activePads padStream
	activeBase uint64
	activeSize int64
	nextLSN    uint64
	lastSync   time.Time
	dirty      bool      // appended records not yet covered by an issued fsync
	cur        []pending // batch buffer for the next drain
	spare      []pending // second batch buffer (ping-pong with the in-flight job)
	encBuf     []byte    // reused frame encode buffer
	sinceSync  int       // records appended since the last issued fsync
	blockSync  int       // blocking records appended since the last issued fsync
	inFlight   bool      // a syncJob is with the sync goroutine

	// cohort is the EWMA of blocking records per fsync — the concurrency
	// estimate steering the adaptive window. Written by the sync goroutine,
	// read by the writer (absorb); float bits in an atomic word.
	cohort atomic.Uint64

	records   atomic.Uint64
	batches   atomic.Uint64
	syncs     atomic.Uint64
	rotations atomic.Uint64
	bytes     atomic.Uint64
	syncHist  [SyncHistBuckets]atomic.Uint64

	snapMu   sync.Mutex // serializes Snapshot
	snaps    atomic.Uint64
	lineages atomic.Int64 // log lineages on disk (see Stats.Stripes)

	// afterFoldStep, when set (tests only), runs after Snapshot publishes
	// and after each covered file it deletes; an error stops Snapshot
	// there, as a crash would.
	afterFoldStep func() error
}

type rotateReply struct {
	cutLSN uint64
	err    error
}

var (
	_ store.Journal[uint64]      = (*WAL)(nil)
	_ store.AsyncJournal[uint64] = (*WAL)(nil)
)

// lockDir takes the directory's advisory lock.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockFileName), os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: data dir %s is locked by another process: %w", dir, err)
	}
	return f, nil
}

// newWAL builds the log. The caller sets nextLSN and opens the active
// segment before starting the goroutines (start).
func newWAL(dir string, key auditreg.Key, opts Options, lock *os.File, seqBase map[string]uint64) *WAL {
	return &WAL{
		dir:      dir,
		key:      key,
		opts:     opts,
		lock:     lock,
		seqBase:  seqBase,
		notify:   make(chan struct{}, 1),
		rotatec:  make(chan chan rotateReply),
		flushc:   make(chan chan error),
		stopc:    make(chan struct{}),
		killc:    make(chan struct{}),
		done:     make(chan struct{}),
		syncc:    make(chan syncJob),
		syncack:  make(chan syncAck, 1),
		syncdone: make(chan struct{}),
		cur:      make([]pending, 0, 64),
		spare:    make([]pending, 0, 64),
		nextLSN:  1,
	}
}

// start launches the writer and sync goroutines.
func (w *WAL) start() {
	w.lastSync = time.Now()
	go w.run()
	go w.syncLoop()
}

// append encodes the mutation and appends it to the buffer, returning the
// completion channel for blocking records (nil otherwise). Shared core of
// Record and RecordAsync.
func (w *WAL) append(r *store.JournalRecord[uint64]) (chan error, error) {
	if err := w.err(); err != nil {
		return nil, err
	}
	rec := fromJournal(r)
	if rec.Op == 0 {
		return nil, fmt.Errorf("persist: unknown journal op %d", r.Op)
	}
	if len(r.Name) > maxName {
		// Refuse rather than write a frame the decoder must reject: one
		// oversized record would make every future recovery halt.
		return nil, fmt.Errorf("persist: object name of %d bytes exceeds %d", len(r.Name), maxName)
	}
	if base := w.seqBase[r.Name]; base > 0 {
		switch rec.Op {
		case OpFetch, OpAnnounce:
			rec.Seq += base
		case OpWrite:
			if rec.Seq > 0 { // register installs; max-register writes carry no seq
				rec.Seq += base
			}
		}
	}
	blocking := w.opts.Policy == SyncAlways &&
		(rec.Op == OpOpen || rec.Op == OpWrite || rec.Op == OpFetch)
	p := pending{rec: rec}
	if blocking {
		p.done = doneChans.Get().(chan error)
		w.waiters.Add(1)
	}
	w.mu.Lock()
	// Re-check under the buffer lock: the writer's final drain on stopc
	// takes this lock after Close sets closed, so a record appended while
	// closed is still false here is guaranteed to be in that drain — no
	// record can be acknowledged and then stranded in a buffer.
	if w.closed.Load() {
		w.mu.Unlock()
		if blocking {
			w.waiters.Add(-1)
			doneChans.Put(p.done)
		}
		return nil, fmt.Errorf("persist: wal is closed")
	}
	w.recs = append(w.recs, p)
	w.mu.Unlock()
	w.kick()
	return p.done, nil
}

// wait collects the durability verdict of one appended blocking record.
func (w *WAL) wait(done chan error) error {
	select {
	case err := <-done:
		doneChans.Put(done)
		return err
	case <-w.done:
		// The writer exited (Close racing this append). It may still have
		// committed the record in its final drain; prefer that verdict.
		select {
		case err := <-done:
			doneChans.Put(done)
			return err
		default:
			// The channel may yet receive a late verdict; let it go to the
			// collector instead of poisoning the pool.
			return fmt.Errorf("persist: wal closed before the record committed")
		}
	}
}

// Record implements store.Journal: encode the mutation, append it, and —
// under SyncAlways, for records with durability semantics — block until the
// group-commit writer reports the record stable. Announce and audit records
// never block: they are pure helping and derived state.
func (w *WAL) Record(r store.JournalRecord[uint64]) error {
	done, err := w.append(&r)
	if err != nil || done == nil {
		return err
	}
	return w.wait(done)
}

// RecordAsync implements store.AsyncJournal: append like Record, but hand
// the durability wait back to the caller as a commit closure, so a
// pipelined caller (the network server) can keep executing requests while
// the group-commit writer absorbs every in-flight mutation — the whole
// pending buffer — into one fsync.
func (w *WAL) RecordAsync(r store.JournalRecord[uint64]) (func() error, error) {
	done, err := w.append(&r)
	if err != nil || done == nil {
		return nil, err
	}
	return func() error { return w.wait(done) }, nil
}

// err returns the sticky failure, if any.
func (w *WAL) err() error {
	if w.closed.Load() {
		return fmt.Errorf("persist: wal is closed")
	}
	if e := w.failed.Load(); e != nil {
		return *e
	}
	return nil
}

// kick nudges the writer without blocking.
func (w *WAL) kick() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

// syncJob is one batch handed to the sync goroutine: fsync fd, then
// complete the batch's waiters. records/blocking carry the counts since the
// previous issued fsync, for the histogram and the cohort estimate.
type syncJob struct {
	fd       *os.File
	batch    []pending
	records  int
	blocking int
}

// syncAck returns the fsync verdict and the job's batch buffer (for the
// writer's ping-pong reuse).
type syncAck struct {
	err error
	buf []pending
}

// run is the group-commit writer: drain the append buffer, hold the
// adaptive commit window open while the blocked-mutator cohort is still
// arriving, assign LSNs, encrypt the batch against the active segment's pad
// stream, and append. Under SyncAlways the fsync itself is pipelined: a
// dedicated sync goroutine (syncLoop) carries at most one fsync in flight
// while this goroutine keeps draining and appending the next batch — the
// ZooKeeper-style batched-fsync pipeline, where the next group forms for
// free during the previous group's fsync and the commit cycle is max(fsync,
// arrivals) rather than their sum. Other policies fsync inline, as does
// every barrier path (rotate, flush, close).
func (w *WAL) run() {
	defer close(w.done)
	defer close(w.syncc)
	tick := time.NewTicker(w.opts.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.killc:
			// Crash simulation (tests): stop dead, no drain, no seal.
			return
		case <-w.stopc:
			w.syncBarrier()
			batch := w.drain(w.cur)
			w.commitInline(batch, true)
			w.sealActive()
			return
		case reply := <-w.rotatec:
			w.syncBarrier()
			batch := w.drain(w.cur)
			w.commitInline(batch, true)
			w.cur = batch[:0]
			var rr rotateReply
			rr.err = w.rotate()
			rr.cutLSN = w.activeBase
			if e := w.failed.Load(); rr.err == nil && e != nil {
				rr.err = *e
			}
			reply <- rr
		case reply := <-w.flushc:
			w.syncBarrier()
			batch := w.drain(w.cur)
			w.commitInline(batch, true)
			w.cur = batch[:0]
			var err error
			if e := w.failed.Load(); e != nil {
				err = *e
			}
			reply <- err
		case <-w.notify:
			if w.opts.Policy == SyncAlways {
				w.pipelineCommit()
			} else {
				// Not forced: commit syncs exactly when the interval is due.
				batch := w.drain(w.cur)
				w.commitInline(batch, false)
				w.cur = batch[:0]
			}
		case <-tick.C:
			// Flush leftovers (announce records appended since the last
			// sync) so helping state lags stability by at most one interval.
			w.syncBarrier()
			batch := w.drain(w.cur)
			w.commitInline(batch, w.opts.Policy == SyncAlways)
			w.cur = batch[:0]
		}
	}
}

// pipelineCommit handles one notify wakeup under SyncAlways: yield, drain,
// keep absorbing arrivals for as long as the in-flight fsync forms a free
// commit window (bounded by BatchBytes), optionally top the batch up to the
// predicted cohort (absorb), then append and hand off. A shutdown or crash
// signal parks the batch on w.cur for the outer loop to finish.
func (w *WAL) pipelineCommit() {
	// Yield before draining. A mutator's kick schedules the writer next on
	// the mutator's own P, ahead of every other runnable goroutine, so with
	// one P the other runnable mutators have not appended yet: without the
	// yield each would wake the writer alone, and group commit would
	// degrade to one record per fsync.
	runtime.Gosched()
	batch := w.drain(w.cur)
	approx := batchBytes(batch)
	for w.inFlight && approx < w.opts.BatchBytes {
		select {
		case <-w.notify:
			before := len(batch)
			batch = w.drain(batch)
			for i := before; i < len(batch); i++ {
				approx += batch[i].encSize()
			}
		case ack := <-w.syncack:
			w.inFlight = false
			w.spare = ack.buf[:0]
		case <-w.stopc:
			w.cur = batch
			return
		case <-w.killc:
			w.cur = batch
			return
		}
	}
	batch = w.absorb(batch)
	w.commitPipelined(batch)
}

// observeSync records one fdatasync's latency on the SyncLatency hook.
func (w *WAL) observeSync(t0 int64) {
	if h := w.opts.SyncLatency; h != nil {
		h.Observe(0, telem.Now()-t0)
	}
}

// syncLoop is the fsync half of the pipelined group commit: one job at a
// time, fsync, publish the batching telemetry, wake the job's waiters,
// hand the buffer back.
func (w *WAL) syncLoop() {
	defer close(w.syncdone)
	for job := range w.syncc {
		t0 := telem.Now()
		err := fdatasync(job.fd)
		w.observeSync(t0)
		if err != nil {
			err = fmt.Errorf("persist: wal fsync: %w", err)
			w.failed.CompareAndSwap(nil, &err)
			w.complete(job.batch, err)
		} else {
			w.syncs.Add(1)
			w.syncHist[syncBucket(job.records)].Add(1)
			if job.blocking > 0 {
				w.setCohort(0.75*w.cohortEstimate() + 0.25*float64(job.blocking))
			}
			w.complete(job.batch, nil)
		}
		w.syncack <- syncAck{err: err, buf: job.batch}
	}
}

// syncBarrier waits out the in-flight fsync, if any, reclaiming its batch
// buffer. Every non-pipelined touch of the active file (inline sync,
// rotation, seal) starts here.
func (w *WAL) syncBarrier() {
	if !w.inFlight {
		return
	}
	ack := <-w.syncack
	w.inFlight = false
	w.spare = ack.buf[:0]
}

// cohortEstimate and setCohort move the concurrency EWMA across the
// writer/syncer boundary.
func (w *WAL) cohortEstimate() float64 { return math.Float64frombits(w.cohort.Load()) }
func (w *WAL) setCohort(v float64)     { w.cohort.Store(math.Float64bits(v)) }

// drain steals the pending records, appending them to batch (a reused
// buffer).
func (w *WAL) drain(batch []pending) []pending {
	w.mu.Lock()
	if len(w.recs) > 0 {
		batch = append(batch, w.recs...)
		w.recs = w.recs[:0]
	}
	w.mu.Unlock()
	return batch
}

// blockingRecords counts the batch's records with waiters attached.
func blockingRecords(batch []pending) int {
	n := 0
	for i := range batch {
		if batch[i].done != nil {
			n++
		}
	}
	return n
}

// absorb is the adaptive commit window: hold the fsync open — up to
// BatchDelay, bounded by BatchBytes — while the blocked-mutator cohort is
// still arriving, so one fsync covers it whole. Two signals open the
// window: waiters the writer can already see (blocking mutators in flight
// beyond the batch), and the cohort EWMA — the recent
// blocking-records-per-fsync average — which predicts the stragglers it
// cannot see yet: under concurrency, a record that lands right after a sync
// would otherwise commit alone, and the next conn's record half a
// round-trip behind it would buy a second fsync. The window closes as soon
// as the batch reaches the predicted cohort with no further waiters in
// flight; with a single steady mutator the EWMA decays to one and the
// window stops opening at all — an uncontended log adds no latency.
// Shutdown and crash signals abort the window.
func (w *WAL) absorb(batch []pending) []pending {
	nb := blockingRecords(batch)
	if w.opts.BatchDelay <= 0 || nb == 0 {
		return batch
	}
	target := int(w.cohortEstimate() + 0.5)
	if int64(nb) >= w.waiters.Load() && nb >= target {
		return batch
	}
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	approx := batchBytes(batch)
	for approx < w.opts.BatchBytes {
		if timer == nil {
			timer = time.NewTimer(w.opts.BatchDelay)
		}
		select {
		case <-w.notify:
			before := len(batch)
			batch = w.drain(batch)
			for i := before; i < len(batch); i++ {
				if batch[i].done != nil {
					nb++
				}
				approx += batch[i].encSize()
			}
			if int64(nb) >= w.waiters.Load() && nb >= target {
				return batch
			}
		case <-timer.C:
			return batch
		case <-w.stopc:
			return batch
		case <-w.killc:
			return batch
		}
	}
	return batch
}

// batchBytes estimates the encoded size of a batch.
func batchBytes(batch []pending) int {
	n := 0
	for i := range batch {
		n += batch[i].encSize()
	}
	return n
}

// appendBatch encodes the batch into the reused frame buffer and appends it
// to the active segment with one write, rotating first when the segment is
// over size (callers on the pipelined path have already barriered).
func (w *WAL) appendBatch(batch []pending) error {
	if len(batch) == 0 {
		return nil
	}
	if w.activeSize > w.opts.SegmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	buf := w.encBuf[:0]
	for i := range batch {
		buf = appendFrame(buf, w.activePads, w.activeSize+int64(len(buf)), w.nextLSN, &batch[i].rec)
		w.nextLSN++
	}
	n, err := w.active.Write(buf)
	w.activeSize += int64(n)
	w.bytes.Add(uint64(n))
	w.encBuf = buf
	if err != nil {
		return err
	}
	w.dirty = true
	w.sinceSync += len(batch)
	w.blockSync += blockingRecords(batch)
	w.records.Add(uint64(len(batch)))
	w.batches.Add(1)
	return nil
}

// commitPipelined is the SyncAlways notify path: append the batch, and —
// when it carries waiters — hand it to the sync goroutine. The barrier
// before the handoff keeps exactly one fsync in flight; everything appended
// before the handoff is covered by the fsync it triggers (the syscall is
// issued strictly after the writes). A batch with no waiters appends
// without syncing: pure helping never pays for, or causes, a sync. The
// writer reclaims the previous job's buffer at the barrier, so two batch
// buffers ping-pong between the halves with no allocation.
func (w *WAL) commitPipelined(batch []pending) {
	if e := w.failed.Load(); e != nil {
		w.complete(batch, *e)
		w.cur = batch[:0]
		return
	}
	rotating := len(batch) > 0 && w.activeSize > w.opts.SegmentBytes
	if rotating || blockingRecords(batch) > 0 {
		// The in-flight fsync must finish before we seal its file or issue
		// the next one.
		w.syncBarrier()
	}
	if err := w.appendBatch(batch); err != nil {
		err = fmt.Errorf("persist: wal append: %w", err)
		w.failed.CompareAndSwap(nil, &err)
		w.complete(batch, err)
		w.cur = batch[:0]
		return
	}
	if blockingRecords(batch) == 0 {
		w.cur = batch[:0] // keep the buffer; nobody waits
		return
	}
	w.syncc <- syncJob{fd: w.active, batch: batch, records: w.sinceSync, blocking: w.blockSync}
	w.inFlight = true
	w.dirty = false // the issued fsync covers everything appended so far
	w.sinceSync, w.blockSync = 0, 0
	w.cur = w.spare[:0]
	w.spare = nil
}

// commitInline writes one batch to the active segment and fsyncs when the
// policy (or force) calls for it, then completes the batch's waiters — the
// non-pipelined path, used by the Interval/Never policies and by every
// barrier (rotate, flush, close, tick leftovers). Pipelined callers
// syncBarrier first.
func (w *WAL) commitInline(batch []pending, force bool) {
	if e := w.failed.Load(); e != nil {
		w.complete(batch, *e)
		return
	}
	err := w.appendBatch(batch)
	if err == nil && w.dirty {
		sync := force
		if !sync {
			switch w.opts.Policy {
			case SyncAlways:
				// Whatever drained this batch (notify, tick), a waiter must
				// never be released before its record is stable.
				sync = blockingRecords(batch) > 0
			case SyncInterval:
				if time.Since(w.lastSync) >= w.opts.Interval {
					sync = true
				}
			}
		}
		if sync {
			t0 := telem.Now()
			err = fdatasync(w.active)
			w.observeSync(t0)
			if err == nil {
				w.dirty = false
				w.lastSync = time.Now()
				w.syncs.Add(1)
				w.syncHist[syncBucket(w.sinceSync)].Add(1)
				if w.blockSync > 0 {
					// Update the concurrency estimate from syncs that carried
					// waiters (tick-driven announce flushes say nothing about
					// mutator concurrency).
					w.setCohort(0.75*w.cohortEstimate() + 0.25*float64(w.blockSync))
				}
				w.sinceSync, w.blockSync = 0, 0
			}
		}
	}
	if err != nil {
		err = fmt.Errorf("persist: wal append: %w", err)
		w.failed.CompareAndSwap(nil, &err)
		w.complete(batch, err)
		return
	}
	w.complete(batch, nil)
}

// complete hands every waiter of the batch its verdict.
func (w *WAL) complete(batch []pending, err error) {
	for i := range batch {
		if batch[i].done != nil {
			w.waiters.Add(-1)
			batch[i].done <- err
		}
	}
}

// rotate seals the active segment and opens a fresh one whose base is the
// next LSN.
func (w *WAL) rotate() error {
	if err := w.sealActive(); err != nil {
		return err
	}
	if err := w.openSegment(w.nextLSN); err != nil {
		return err
	}
	w.rotations.Add(1)
	return nil
}

// sealActive appends the seal record, fsyncs, and closes the active
// segment.
func (w *WAL) sealActive() error {
	if w.active == nil {
		return nil
	}
	if e := w.failed.Load(); e != nil {
		// A sticky failure may have left a partial frame at the tail.
		// Appending a valid seal after it would turn auto-repairable torn
		// damage into hard corruption the next recovery must refuse; leave
		// the segment unsealed and let recovery truncate the tail.
		err := w.active.Close()
		w.active = nil
		w.dirty = false
		return err
	}
	seal := Record{Op: OpSeal}
	buf := appendFrame(w.encBuf[:0], w.activePads, w.activeSize, w.nextLSN, &seal)
	w.nextLSN++
	n, err := w.active.Write(buf)
	w.activeSize += int64(n)
	if err != nil {
		return err
	}
	if err := w.active.Sync(); err != nil {
		return err
	}
	err = w.active.Close()
	w.active = nil
	w.dirty = false
	return err
}

// openSegment creates and syncs a fresh active segment with the given base
// LSN, deriving the segment's pad stream from its header nonce.
func (w *WAL) openSegment(base uint64) error {
	hdr, nonce, err := newHeader(segMagic, base)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(w.dir, segmentName(base)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.active = f
	w.activePads = newPadStream(w.key, &nonce)
	w.activeBase = base
	w.activeSize = headerLen
	return nil
}

// Sync forces everything appended so far onto stable storage, regardless of
// policy: drain, write, fsync. It returns once the whole log is stable.
func (w *WAL) Sync() error {
	if err := w.err(); err != nil {
		return err
	}
	reply := make(chan error, 1)
	select {
	case w.flushc <- reply:
		return <-reply
	case <-w.done:
		return w.err()
	}
}

// Close drains and seals the log, then releases the directory lock. The
// WAL is unusable afterwards; a clean Close leaves every segment sealed, so
// the next recovery finds no torn tail.
func (w *WAL) Close() error {
	if !w.closed.CompareAndSwap(false, true) {
		w.join()
		return nil
	}
	close(w.stopc)
	w.join()
	var err error
	if e := w.failed.Load(); e != nil {
		err = *e
	}
	w.unlock()
	return err
}

// join waits for the writer and sync goroutines to exit.
func (w *WAL) join() {
	<-w.done
	<-w.syncdone
}

// unlock releases the directory lock.
func (w *WAL) unlock() {
	if w.lock != nil {
		syscall.Flock(int(w.lock.Fd()), syscall.LOCK_UN)
		w.lock.Close()
	}
}

// abandon simulates kill -9 for in-process tests: the writer stops without
// draining its buffer or sealing the active segment, and the directory lock
// is released so the "restarted" process can take it. Everything the OS
// already has (every completed Write syscall) stays on disk, exactly as
// after a real SIGKILL on one machine.
func (w *WAL) abandon() {
	if !w.closed.CompareAndSwap(false, true) {
		w.join()
		return
	}
	close(w.killc)
	w.join() // an in-flight fsync finishes before the fd closes
	if w.active != nil {
		w.active.Close()
		w.active = nil
	}
	w.unlock()
}

// Stats is a point-in-time snapshot of the WAL's counters.
type Stats struct {
	// Stripes is the number of log lineages on disk: 1, or more while a
	// directory the striped WAL layout wrote awaits the Snapshot that folds
	// its stripes into the one log.
	Stripes   int
	Records   uint64 // records appended
	Batches   uint64 // group commits
	Syncs     uint64 // fsync calls on segment data
	Rotations uint64 // segment rotations
	Snapshots uint64 // snapshots taken
	Bytes     uint64 // record bytes appended
	// SyncHist is the group-commit batch-size histogram: SyncHist[i] counts
	// fsyncs that made ≤ 2^i records stable (the last bucket collects
	// everything larger). It is the direct observable behind the batching
	// claim: a healthy concurrent workload piles its mass in the upper
	// buckets.
	SyncHist [SyncHistBuckets]uint64
}

// Stats returns the WAL's counters.
func (w *WAL) Stats() Stats {
	// Load numerators before their denominators so a snapshot taken
	// mid-traffic can't tear the derived ratios the wrong way: a sync is
	// counted only after its records are, so syncs/records from one
	// snapshot never exceeds what the log actually did.
	st := Stats{
		Stripes:   int(w.lineages.Load()),
		Snapshots: w.snaps.Load(),
		Syncs:     w.syncs.Load(),
	}
	st.Batches = w.batches.Load()
	st.Records = w.records.Load()
	st.Rotations = w.rotations.Load()
	st.Bytes = w.bytes.Load()
	for i := range st.SyncHist {
		st.SyncHist[i] = w.syncHist[i].Load()
	}
	return st
}
