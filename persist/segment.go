package persist

import (
	"bufio"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"auditreg"
)

// File layout. Both file kinds — WAL segments and snapshots — share one
// shape: a fixed header, then frames, the last of which is an OpSeal record
// in every cleanly finished file.
//
//	magic[8] | u32 version | u64 meta | nonce[16]
//
// meta is the segment's base LSN (the LSN of its first record) or the
// snapshot's cut LSN (the snapshot covers every record with lsn < cut). The
// nonce is random per file and feeds every record pad, so pad streams never
// repeat across files.
const (
	segMagic  = "AWLSEG1\x00"
	snapMagic = "AWLSNP1\x00"
	// fileVersion 2 switched the record keystream from per-record SHA-256
	// derivation to the offset-indexed block pad stream (see record.go);
	// version 1 files fail loudly here instead of decrypting to garbage.
	fileVersion = 2
	headerLen   = 8 + 4 + 8 + fileNonceLen
)

// segmentName and snapshotName render the file names the log writes: the
// LSN in fixed-width hex, so lexicographic and LSN order agree.
func segmentName(baseLSN uint64) string { return fmt.Sprintf("wal-%016x.seg", baseLSN) }
func snapshotName(cutLSN uint64) string { return fmt.Sprintf("snap-%016x.snap", cutLSN) }

// maxLineages bounds the lineage id of a striped file name: the striped
// layout rendered its stripe id as two hex digits.
const maxLineages = 256

// walFile is one recognized directory entry.
//
// Directories written before WAL striping was removed may hold more than
// one log lineage: the striped layout named its files "wal-sNN-%016x.seg"
// and "snap-sNN-%016x.snap", each stripe NN with its own LSN space. Stripe
// 00 shares lineage 0 — and its LSN space — with the untagged names this
// version writes (and the pre-striping layout wrote), so a one-stripe
// directory simply continues as the log. Stripes 01 and up are read-only
// lineages until the next Snapshot folds them into lineage 0.
type walFile struct {
	name    string
	meta    uint64 // base LSN (segment) or cut LSN (snapshot)
	lineage int
	tagged  bool // the name carries a stripe tag
}

// parseFileName recognizes segment and snapshot names, tagged or not.
func parseFileName(name string) (f walFile, isSeg, isSnap bool) {
	var body string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
		body, isSeg = name[4:len(name)-4], true
	case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
		body, isSnap = name[5:len(name)-5], true
	default:
		return f, false, false
	}
	f.name = name
	if rest, ok := strings.CutPrefix(body, "s"); ok {
		i := strings.IndexByte(rest, '-')
		if i < 1 {
			return f, false, false
		}
		id, err := strconv.ParseUint(rest[:i], 16, 32)
		if err != nil || id >= maxLineages {
			return f, false, false
		}
		f.lineage, f.tagged, body = int(id), true, rest[i+1:]
	}
	meta, err := strconv.ParseUint(body, 16, 64)
	if err != nil {
		return f, false, false
	}
	f.meta = meta
	return f, isSeg, isSnap
}

// newHeader builds a file header with a fresh random nonce.
func newHeader(magic string, meta uint64) ([]byte, [fileNonceLen]byte, error) {
	var nonce [fileNonceLen]byte
	if _, err := rand.Read(nonce[:]); err != nil {
		return nil, nonce, fmt.Errorf("persist: file nonce: %w", err)
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint32(hdr, fileVersion)
	hdr = binary.BigEndian.AppendUint64(hdr, meta)
	hdr = append(hdr, nonce[:]...)
	return hdr, nonce, nil
}

// parseHeader validates a file header against the expected magic.
func parseHeader(b []byte, magic string) (meta uint64, nonce [fileNonceLen]byte, err error) {
	if len(b) < headerLen {
		return 0, nonce, fmt.Errorf("persist: %d-byte file shorter than header", len(b))
	}
	if string(b[:8]) != magic {
		return 0, nonce, fmt.Errorf("persist: bad magic %q", b[:8])
	}
	if v := binary.BigEndian.Uint32(b[8:]); v != fileVersion {
		return 0, nonce, fmt.Errorf("persist: unsupported file version %d", v)
	}
	meta = binary.BigEndian.Uint64(b[12:])
	copy(nonce[:], b[20:])
	return meta, nonce, nil
}

// fileScan is what scanning one record file learned besides its records.
type fileScan struct {
	records   int    // records handed to the callback (seal excluded)
	nextLSN   uint64 // one past the highest LSN any frame carries, seal included
	sealed    bool   // the file ends with an OpSeal record
	tornBytes int64  // bytes discarded at a torn tail (never in a sealed file)
}

// scanFile decodes a segment or snapshot file one frame at a time, handing
// each record (the seal excluded) and its LSN to fn; memory stays bounded by
// one read buffer however large the file. A torn tail — the file ending
// mid-frame — is tolerated and reported via tornBytes; every other
// malformation (CRC mismatch, bad record body, data after a seal) is
// corruption and returns an error naming the file and offset, as does an
// error from fn. Callers enforce their own sealing policy: recovery requires
// every file except a lineage's last segment to be sealed.
func scanFile(path, magic string, key auditreg.Key, fn func(rec *Record, lsn uint64) error) (fileScan, error) {
	var fs fileScan
	f, err := os.Open(path)
	if err != nil {
		return fs, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	hdr, err := br.Peek(headerLen)
	if err != nil && err != io.EOF {
		return fs, err
	}
	_, nonce, err := parseHeader(hdr, magic)
	if err != nil {
		return fs, fmt.Errorf("%s: %w", path, err)
	}
	ps := newPadStream(key, &nonce)
	br.Discard(headerLen)
	off := int64(headerLen)
	var rec Record // one variable, so handing &rec to fn costs no allocation per record
	for {
		// Every frame fits in maxFrame bytes, so a short peek holds the
		// whole rest of the file: parseFrame sees exactly what it would in
		// a fully read file.
		b, err := br.Peek(maxFrame)
		if err != nil && err != io.EOF {
			return fs, err
		}
		if len(b) == 0 {
			return fs, nil
		}
		if fs.sealed {
			return fs, fmt.Errorf("persist: %s: data after seal at offset %d", path, off)
		}
		var lsn uint64
		var rest []byte
		rec, lsn, rest, err = parseFrame(b, ps, off)
		if err != nil {
			if errors.Is(err, errTornFrame) {
				fs.tornBytes = int64(len(b))
				return fs, nil
			}
			return fs, fmt.Errorf("persist: %s: offset %d: %w", path, off, err)
		}
		n := len(b) - len(rest)
		br.Discard(n)
		off += int64(n)
		if lsn >= fs.nextLSN {
			fs.nextLSN = lsn + 1
		}
		if rec.Op == OpSeal {
			fs.sealed = true
			continue
		}
		fs.records++
		if err := fn(&rec, lsn); err != nil {
			return fs, fmt.Errorf("%s: %w", path, err)
		}
	}
}

// lineage is one log lineage's files (see walFile).
type lineage struct {
	segments  []walFile // ascending by base LSN
	snapshots []walFile // ascending by cut LSN
}

// dirState is the classified content of a data directory.
type dirState struct {
	lineages []lineage // indexed by lineage id; lineages[0] always exists
	others   []string  // unrecognized entries (lock file excluded)
}

// readDir classifies the data directory's entries. Two files claiming the
// same (lineage, LSN) — possible only if someone renames a file next to its
// tagged or untagged twin — is corruption, not a tie to break silently.
func readDir(dir string) (dirState, error) {
	st := dirState{lineages: make([]lineage, 1)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == lockFileName || strings.HasSuffix(name, ".tmp") {
			continue
		}
		f, isSeg, isSnap := parseFileName(name)
		if !isSeg && !isSnap {
			st.others = append(st.others, name)
			continue
		}
		for len(st.lineages) <= f.lineage {
			st.lineages = append(st.lineages, lineage{})
		}
		ln := &st.lineages[f.lineage]
		if isSeg {
			ln.segments = append(ln.segments, f)
		} else {
			ln.snapshots = append(ln.snapshots, f)
		}
	}
	for id := range st.lineages {
		ln := &st.lineages[id]
		for _, files := range [][]walFile{ln.segments, ln.snapshots} {
			sort.Slice(files, func(i, j int) bool { return files[i].meta < files[j].meta })
			for i := 1; i < len(files); i++ {
				if files[i].meta == files[i-1].meta {
					return st, fmt.Errorf("persist: %s and %s claim the same lineage %d LSN %d",
						files[i-1].name, files[i].name, id, files[i].meta)
				}
			}
		}
	}
	return st, nil
}

// folded reports whether lineage 0's newest snapshot has an untagged name.
// Only this version's Snapshot writes one into a directory that holds other
// lineages (the pre-striping layout never coexisted with them), and it folds
// every lineage on disk into it before publishing — so once it exists, every
// file of lineages 1 and up is covered, even when a crash interrupted their
// deletion.
func (ds *dirState) folded() bool {
	snaps := ds.lineages[0].snapshots
	return len(snaps) > 0 && !snaps[len(snaps)-1].tagged
}

// leftovers lists the files of lineages 1 and up that a fold already
// covers: a crash interrupted their deletion.
func (ds *dirState) leftovers() []string {
	var out []string
	if ds.folded() {
		for id := 1; id < len(ds.lineages); id++ {
			out = append(out, ds.lineages[id].names(math.MaxUint64)...)
		}
	}
	return out
}

// live returns the lineages recovery must replay: lineage 0, plus every
// other lineage holding files unless a fold already covers them.
func (ds *dirState) live() []int {
	ids := []int{0}
	if ds.folded() {
		return ids
	}
	for id := 1; id < len(ds.lineages); id++ {
		if ln := &ds.lineages[id]; len(ln.segments)+len(ln.snapshots) > 0 {
			ids = append(ids, id)
		}
	}
	return ids
}

// names lists the lineage's files with meta below `below`.
func (ln *lineage) names(below uint64) []string {
	var out []string
	for _, files := range [][]walFile{ln.snapshots, ln.segments} {
		for _, f := range files {
			if f.meta < below {
				out = append(out, f.name)
			}
		}
	}
	return out
}

// lineageScan is what scanLineage found besides the records.
type lineageScan struct {
	cut      uint64   // the seeding snapshot's cut, 0 without one
	nextLSN  uint64   // where the lineage's LSN space continues
	segments int      // segments scanned
	torn     int64    // torn-tail bytes discarded from the last segment
	crashed  *walFile // the last segment when it is unsealed
	stale    []string // files the seeding snapshot already covers
}

// scanLineage folds one lineage into m: its newest snapshot — which must be
// sealed: it was published by an atomic rename, so anything less is
// corruption, and the segments it replaced are gone — then every segment
// from the snapshot's cut up to (not including) base LSN `below`. Every
// scanned segment must be sealed, except that with openTail the last may end
// unsealed, in a torn tail: the crashed active segment of a killed process.
func scanLineage(dir string, key auditreg.Key, ln *lineage, m *recoverModel, below uint64, openTail bool) (lineageScan, error) {
	ls := lineageScan{nextLSN: 1}
	add := func(rec *Record, _ uint64) error { return m.add(rec) }
	if n := len(ln.snapshots); n > 0 {
		newest := ln.snapshots[n-1]
		path := filepath.Join(dir, newest.name)
		fs, err := scanFile(path, snapMagic, key, add)
		if err != nil {
			return ls, err
		}
		if !fs.sealed {
			return ls, fmt.Errorf("persist: snapshot %s is not sealed", path)
		}
		ls.cut = newest.meta
		ls.nextLSN = max(ls.nextLSN, newest.meta)
		for _, old := range ln.snapshots[:n-1] {
			ls.stale = append(ls.stale, old.name)
		}
	}
	var tail []walFile
	for _, sf := range ln.segments {
		switch {
		case sf.meta < ls.cut:
			ls.stale = append(ls.stale, sf.name) // a crash interrupted its deletion
		case sf.meta < below:
			tail = append(tail, sf)
		}
	}
	for i, sf := range tail {
		path := filepath.Join(dir, sf.name)
		fs, err := scanFile(path, segMagic, key, add)
		if err != nil {
			return ls, err
		}
		last := openTail && i == len(tail)-1
		if !last && !fs.sealed {
			return ls, fmt.Errorf("persist: segment %s is not sealed", path)
		}
		ls.segments++
		ls.nextLSN = max(ls.nextLSN, sf.meta, fs.nextLSN)
		if last {
			ls.torn = fs.tornBytes
			if !fs.sealed {
				ls.crashed = &tail[i]
			}
		}
	}
	return ls, nil
}

// syncDir fsyncs the directory itself, making renames and removals durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// sealedWriter streams a complete record file — header, records, seal —
// into a temp file that publish renames into place atomically. Each record
// is encrypted against the file's pad stream at its own offset under the
// fresh nonce, so no pad is ever applied twice; the seal takes the first
// LSN past every record's.
type sealedWriter struct {
	f       *os.File
	bw      *bufio.Writer
	ps      padStream
	off     int64
	sealLSN uint64
	buf     []byte
	tmp     string
	path    string
}

// createSealed starts a sealed file dir/name with the given magic and meta.
func createSealed(dir, name, magic string, meta uint64, key auditreg.Key) (*sealedWriter, error) {
	hdr, nonce, err := newHeader(magic, meta)
	if err != nil {
		return nil, err
	}
	sw := &sealedWriter{
		ps:   newPadStream(key, &nonce),
		off:  int64(len(hdr)),
		tmp:  filepath.Join(dir, name+".tmp"),
		path: filepath.Join(dir, name),
	}
	if sw.f, err = os.OpenFile(sw.tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600); err != nil {
		return nil, err
	}
	sw.bw = bufio.NewWriterSize(sw.f, 64<<10)
	sw.bw.Write(hdr) // a bufio error is sticky; publish reports it
	return sw, nil
}

// add appends one record at lsn.
func (sw *sealedWriter) add(rec *Record, lsn uint64) error {
	sw.buf = appendFrame(sw.buf[:0], sw.ps, sw.off, lsn, rec)
	sw.off += int64(len(sw.buf))
	sw.sealLSN = max(sw.sealLSN, lsn+1)
	_, err := sw.bw.Write(sw.buf)
	return err
}

// publish seals, syncs and closes the file, then renames it into place and
// syncs the directory. On error the temp file is removed.
func (sw *sealedWriter) publish() error {
	seal := Record{Op: OpSeal}
	err := sw.add(&seal, sw.sealLSN)
	if err == nil {
		err = sw.bw.Flush()
	}
	if err == nil {
		err = sw.f.Sync()
	}
	if cerr := sw.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(sw.tmp, sw.path)
	}
	if err != nil {
		os.Remove(sw.tmp)
		return err
	}
	return syncDir(filepath.Dir(sw.path))
}

// abort discards the unpublished file.
func (sw *sealedWriter) abort() {
	sw.f.Close()
	os.Remove(sw.tmp)
}
