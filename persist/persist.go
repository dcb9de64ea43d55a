// Package persist is the durability layer of auditd: a segmented,
// append-only, CRC-framed write-ahead log over the mutations of a sharded
// store (package auditreg/store), with group commit, compacting snapshots,
// and deterministic crash recovery.
//
// # No leaks at rest
//
// PR 3 pinned the wire invariant — no transmitted frame ever carries a
// decrypted reader set. This package extends the same invariant to stable
// storage: every record body (object names, values, reader indices, sequence
// numbers — everything after the fixed CRC frame) is XOR-encrypted under a
// per-record pad stream derived from a persist key that lives only in server
// memory, never in the data directory. A curious party with disk access, or
// a stolen snapshot, learns no more than a curious network observer: record
// counts, sizes, and types, but no reader set, no register value, no object
// name. persist's leak test sweeps the raw bytes of every file in a data
// directory for exactly the plaintext patterns a naive log would contain,
// mirroring server/leak_test.go; cmd/leakprobe and internal/attacker share
// the same scanner (ScanPlaintext).
//
// # Write path
//
// The WAL implements store.Journal[uint64] as one log: one append buffer,
// one writer goroutine, one chain of segment files in one LSN space. The
// writer drains the buffer, assigns log sequence numbers, encrypts the whole
// batch against the active segment's block-derived pad stream, appends, and
// fsyncs per policy — SyncAlways (adaptive group commit with a pipelined
// fsync: mutators block until their batch is stable, and the writer holds
// the commit window open up to Options.BatchDelay while more blocked
// mutators are in flight, so one fsync absorbs them all; announce and audit
// records ride along without ever paying for, or causing, a sync),
// SyncInterval (bounded data loss window), or SyncNever (page cache only).
// Only SyncAlways mutators wait, and every one of them in flight — from
// every shard executor of the server — joins the same group commit.
// Stats.SyncHist — surfaced through the server's STATS verb — histograms
// records-per-fsync, making the batching observable rather than inferred.
//
// # Recovery and snapshots
//
// Recovery replays a data directory into a fresh store: the newest snapshot
// first, then every sealed segment, then the torn tail of the active
// segment, each file decoded one frame at a time straight into the replay
// model. Replay is ordered per object by the sequence numbers recorded at
// journal time (concurrent writers may journal out of install order), and a
// fetch record can stand in for the write it observed when that write's own
// record missed the final group commit — an acknowledged effective read is
// therefore never silently dropped. Anything that cannot be replayed exactly
// halts recovery with an explicit error; the only tolerated damage is a torn
// tail at the very end of the active segment.
//
// Snapshot compacts: it seals the active segment, scans everything sealed
// into the minimal record sequence that reproduces an audit-equivalent store
// (one write per audited value, one fetch per audited pair, the final
// value), writes it as a snapshot file via atomic rename, and deletes the
// covered segments and older snapshots. auditd triggers it on SIGHUP.
//
// Directories written by the earlier striped layout — one lineage of files
// per stripe — still recover: every lineage replays into the same model,
// and the next Snapshot folds them into the one log.
package persist

import (
	"crypto/sha256"
	"time"

	"auditreg"
	"auditreg/internal/telem"
)

// Policy selects when the WAL writer calls fsync.
type Policy uint8

const (
	// SyncAlways fsyncs every batch; mutations with durability semantics
	// (open, write, fetch) block until their record is stable. The paper's
	// guarantee survives kill -9: every acknowledged effective read is in
	// the log.
	SyncAlways Policy = iota
	// SyncInterval fsyncs at least every Options.Interval; mutations never
	// block on the disk. A crash loses at most one interval of
	// acknowledged operations.
	SyncInterval
	// SyncNever leaves flushing to the operating system. A crash of the
	// process alone loses nothing (the page cache survives); a machine
	// crash may lose anything unflushed.
	SyncNever
)

// String returns the policy's flag spelling.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return "Policy(?)"
	}
}

// ParsePolicy parses the -fsync flag spellings.
func ParsePolicy(s string) (Policy, bool) {
	switch s {
	case "always":
		return SyncAlways, true
	case "interval":
		return SyncInterval, true
	case "never":
		return SyncNever, true
	default:
		return 0, false
	}
}

// Defaults for Options fields left zero.
const (
	DefaultInterval     = 50 * time.Millisecond
	DefaultSegmentBytes = 64 << 20
	DefaultBatchDelay   = 500 * time.Microsecond
	DefaultBatchBytes   = 1 << 20
)

// Options configures a WAL. The zero value of every field selects the
// documented default (policy SyncAlways).
type Options struct {
	// Policy selects the fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the flush+fsync cadence under SyncInterval (default
	// DefaultInterval). Ignored by the other policies.
	Interval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default DefaultSegmentBytes).
	SegmentBytes int64
	// BatchDelay bounds the adaptive group-commit window under SyncAlways:
	// when more blocking mutators are in flight than the drained batch
	// already holds, the writer waits up to this long for their records
	// before the one fsync that makes the whole batch stable. The window
	// closes as soon as every known waiter is absorbed, so an uncontended
	// log pays none of it. 0 selects DefaultBatchDelay; negative disables
	// the window. Ignored by the other policies.
	BatchDelay time.Duration
	// BatchBytes closes the window early once the pending batch's encoded
	// size exceeds it (default DefaultBatchBytes).
	BatchBytes int
	// SyncLatency, when non-nil, receives one observation per fdatasync on
	// segment data — the wall-clock cost of making a group commit stable.
	// Aggregate-only, like all telemetry (see internal/telem).
	SyncLatency *telem.Hist
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.BatchDelay == 0 {
		o.BatchDelay = DefaultBatchDelay
	}
	if o.BatchBytes <= 0 {
		o.BatchBytes = DefaultBatchBytes
	}
	return o
}

// DeriveKey derives the persist key from the store master key: SHA-256 over
// a domain tag and the key, so the on-disk pad streams are disjoint from
// every pad family the store and the wire derive from the same secret. The
// derived key must be held outside the data directory — it is what makes a
// stolen data directory worthless.
func DeriveKey(storeKey auditreg.Key) auditreg.Key {
	h := sha256.New()
	h.Write([]byte("auditreg/persist/key/v1\x00"))
	h.Write(storeKey[:])
	var out auditreg.Key
	h.Sum(out[:0])
	return out
}
