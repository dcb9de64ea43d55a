package client

import (
	"fmt"
	"sync"

	"auditreg"
	"auditreg/internal/telem"
	"auditreg/store"
	"auditreg/wire"
)

// Object is a remote auditable object: the client-side mirror of
// store.Object for the remotable kinds (Register, MaxRegister). All methods
// are safe for concurrent use; per-reader protocol state is serialized per
// (object, reader), exactly as in the local store.
type Object struct {
	c       *Client
	name    string
	kind    store.Kind
	wkind   uint8
	readers int
	slots   []readSlot
}

// readSlot is one reader principal's client-side protocol state: the
// paper's prev_sn / prev_val silent-read cache, moved to the reading
// process where it belongs. prevSeq is lazily initialized to ^uint64(0)
// (the paper's prev_sn = -1) on first use. epoch remembers which server
// boot the cache was filled under; when the server restarts (recovery
// renumbers sequence numbers) the cache is dropped rather than risk a
// seq collision serving a stale value.
type readSlot struct {
	mu      sync.Mutex
	init    bool
	epoch   uint64
	prevSeq uint64
	prevVal uint64
}

// Name returns the name the object is stored under.
func (o *Object) Name() string { return o.name }

// Kind returns the object's kind.
func (o *Object) Kind() store.Kind { return o.kind }

// Readers returns the object's reader count m.
func (o *Object) Readers() int { return o.readers }

// Write writes v: an overwrite for a Register, a writeMax for a
// MaxRegister. The request frame is encoded into (and recycled through) the
// wire buffer arena — steady-state writes allocate nothing per call. A
// write the server sheds under admission control is retried with jittered
// backoff (see retryBusy); writes are idempotent per value, so a repeat is
// always safe.
func (o *Object) Write(v uint64) error {
	// The RTT stopwatch starts before the retry loop: the recorded latency
	// is what the caller experienced, backoff and redials included.
	t0 := telem.Now()
	err := o.write(v)
	o.c.rtt.Observe(uint64(t0), telem.Now()-t0)
	return err
}

func (o *Object) write(v uint64) error {
	return retryBusy(func() error {
		cn := o.c.pick()
		if _, err := cn.open(o.name, o.wkind, 0); err != nil {
			return err
		}
		req := wire.WriteReq{Name: o.name, Value: v}
		b := wire.GetBuf(wire.FramePrefix + 16 + len(o.name))
		b.B = req.Append(wire.BeginFrame(b.B[:0]))
		r, err := cn.roundTripBuf(wire.VerbWrite, b)
		if err != nil {
			return err
		}
		switch {
		case r.verb != wire.VerbWrite:
			err = respError(r, wire.VerbWrite)
		case len(r.buf.B) != 0:
			err = fmt.Errorf("client: unexpected %d-byte ack body", len(r.buf.B))
		}
		wire.PutBuf(r.buf)
		return err
	})
}

// Read returns the current value as seen by the given reader index, driving
// the paper's read over the wire: at most one READ-FETCH (silent when the
// client cache is already current server-side) and, after a fetch, one
// pipelined READ-ANNOUNCE the call does not wait for. The value arrives
// masked under the connection's session secret and is unmasked here,
// locally.
func (o *Object) Read(reader int) (uint64, error) {
	t0 := telem.Now()
	v, err := o.read(reader)
	o.c.rtt.Observe(uint64(t0), telem.Now()-t0)
	return v, err
}

func (o *Object) read(reader int) (uint64, error) {
	if reader < 0 || reader >= o.readers {
		return 0, fmt.Errorf("client: read %q: reader %d out of range [0, %d)", o.name, reader, o.readers)
	}
	s := &o.slots[reader]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.init {
		s.init = true
		s.prevSeq = ^uint64(0) // the paper's prev_sn = -1
	}

	// A shed fetch never reached the store — no fetch&xor happened, so a
	// backoff retry repeats a request that had no effect (see retryBusy).
	var cn *conn
	var fetchResp wire.ReadFetchResp
	err := retryBusy(func() error {
		cn = o.c.pick()
		if _, err := cn.open(o.name, o.wkind, 0); err != nil {
			return err
		}
		// The open (fresh or cached) pinned this connection's server boot
		// epoch. A connection only ever speaks to one server process, so a
		// slot cache filled under a different epoch was filled against a
		// different process generation — recovery renumbers, so drop it.
		if e := cn.epochValue(); s.epoch != e {
			s.epoch = e
			s.prevSeq = ^uint64(0)
		}
		req := wire.ReadFetchReq{Name: o.name, Reader: uint8(reader), PrevSeq: s.prevSeq}
		b := wire.GetBuf(wire.FramePrefix + 24 + len(o.name))
		b.B = req.Append(wire.BeginFrame(b.B[:0]))
		r, err := cn.roundTripBuf(wire.VerbReadFetch, b)
		if err != nil {
			return err
		}
		if r.verb != wire.VerbReadFetch {
			err = respError(r, wire.VerbReadFetch)
			wire.PutBuf(r.buf)
			return err
		}
		err = fetchResp.Decode(r.buf.B)
		wire.PutBuf(r.buf)
		return err
	})
	if err != nil {
		return 0, err
	}
	if fetchResp.Seq != s.prevSeq {
		// New value: unmask locally under this connection's session pad.
		session := cn.sessionValue()
		s.prevVal = fetchResp.Value ^ wire.ValueMask(session, o.name, uint8(reader), fetchResp.Seq)
		s.prevSeq = fetchResp.Seq
	}
	if fetchResp.Fetched {
		// The fetch&xor happened: help complete the write, pipelined. A
		// failed post is dropped, not surfaced — the read already took
		// effect (it is audited, and the value is in hand); announcing is
		// pure helping that writers and auditors also perform.
		ann := wire.AnnounceReq{Name: o.name, Reader: uint8(reader), Seq: fetchResp.Seq}
		ab := wire.GetBuf(wire.FramePrefix + 24 + len(o.name))
		ab.B = ann.Append(wire.BeginFrame(ab.B[:0]))
		_ = cn.postBuf(wire.VerbReadAnnounce, ab)
	}
	return s.prevVal, nil
}

// Writer returns a write handle, mirroring the local API. Handles are
// stateless and cheap; unlike local handles they are safe for concurrent
// use.
func (o *Object) Writer() *Writer { return &Writer{o: o} }

// Reader returns the handle for reader j (0 <= j < m), mirroring the local
// API. The handle shares the object's per-reader protocol state, so any
// number of goroutines may drive one reader principal.
func (o *Object) Reader(j int) (*Reader, error) {
	if j < 0 || j >= o.readers {
		return nil, fmt.Errorf("client: reader index %d out of range [0, %d)", j, o.readers)
	}
	return &Reader{o: o, j: j}, nil
}

// Auditor returns an audit handle, mirroring the local API. It requires the
// client to hold the store key (WithKey): reader sets cross the wire masked
// and are decrypted only here, client-side.
func (o *Object) Auditor() (*Auditor, error) {
	if !o.c.hasKey {
		return nil, fmt.Errorf("client: auditor for %q: no store key (configure WithKey)", o.name)
	}
	return &Auditor{o: o}, nil
}

// Writer is a write handle of a remote object.
type Writer struct {
	o *Object
}

// Write writes v; see Object.Write.
func (w *Writer) Write(v uint64) error { return w.o.Write(v) }

// Reader is a read handle of one reader principal of a remote object.
type Reader struct {
	o *Object
	j int
}

// Index returns the reader's index j.
func (r *Reader) Index() int { return r.j }

// Read returns the object's current value as seen by this reader; see
// Object.Read.
func (r *Reader) Read() (uint64, error) { return r.o.Read(r.j) }

// Auditor is an audit handle of a remote object.
type Auditor struct {
	o *Object
}

// Audit requests a fresh audit — a report covering everything linearized
// before the server handled the request — and unmasks its reader sets
// locally with the store key. The report is cumulative, as audits are.
func (a *Auditor) Audit() (store.ObjectAudit[uint64], error) { return a.report(true) }

// Latest returns the server audit pool's most recently published report for
// the object: the cheap path, possibly slightly stale, never contending
// with writers.
func (a *Auditor) Latest() (store.ObjectAudit[uint64], error) { return a.report(false) }

// AuditRows requests a fresh audit, as Audit does, and returns its rows
// unmasked: one row per audited value, Readers the bitmask of the readers
// that effectively read it. It is the raw form of Audit's report, for
// callers that merge audits by value (the cluster audit merge) and have no
// use for a per-(reader, value) expansion.
func (a *Auditor) AuditRows() ([]wire.AuditRow, error) { return a.rows(true) }

// report expands rows(fresh) into a report.
func (a *Auditor) report(fresh bool) (store.ObjectAudit[uint64], error) {
	rows, err := a.rows(fresh)
	if err != nil {
		return store.ObjectAudit[uint64]{}, err
	}
	var entries []auditreg.Entry[uint64]
	for _, row := range rows {
		for j := 0; j < 64; j++ {
			if row.Readers&(1<<uint(j)) != 0 {
				entries = append(entries, auditreg.Entry[uint64]{Reader: j, Value: row.Value})
			}
		}
	}
	return store.ObjectAudit[uint64]{
		Object: a.o.name,
		Kind:   a.o.kind,
		Report: auditreg.NewReport(entries...),
	}, nil
}

// rows is the one audit round trip: request, retry when shed, unmask.
func (a *Auditor) rows(fresh bool) ([]wire.AuditRow, error) {
	t0 := telem.Now()
	rows, err := a.rowsOnce(fresh)
	a.o.c.rtt.Observe(uint64(t0), telem.Now()-t0)
	return rows, err
}

func (a *Auditor) rowsOnce(fresh bool) ([]wire.AuditRow, error) {
	o := a.o
	var resp wire.AuditResp
	err := retryBusy(func() error {
		cn := o.c.pick()
		if _, err := cn.open(o.name, o.wkind, 0); err != nil {
			return err
		}
		req := wire.AuditReq{Name: o.name, Fresh: fresh}
		r, err := cn.roundTrip(wire.VerbAudit, req.Append(nil))
		if err != nil {
			return err
		}
		resp = wire.AuditResp{}
		err = decodeResp(r, wire.VerbAudit, &resp)
		wire.PutBuf(r.buf)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Unmask each row's reader set — the only place outside the server
	// where reader sets exist in the clear, and it requires the key.
	wire.XORAuditMasks(o.c.key, &resp)
	return resp.Rows, nil
}
