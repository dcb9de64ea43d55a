package client

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"auditreg/wire"
)

var errClientClosed = errors.New("client: closed")

// ErrConnLost reports that a pool connection died — server restart, TCP
// reset, write failure — with requests in flight. Every such request fails
// fast with an error wrapping ErrConnLost (test with errors.Is) instead of
// hanging; the pool transparently redials on next use, so the Client itself
// survives.
var ErrConnLost = errors.New("client: connection lost")

// ErrTimeout reports that a round trip outlived the pool's per-request
// timeout (WithRequestTimeout): the peer accepted the connection but never
// answered — hung process, partition holding the connection open, or a flush
// that stalled past the deadline. The connection is killed (every request in
// flight on it fails with a cause wrapping ErrTimeout, test with errors.Is
// through the NodeError wrapper) so a hung node costs one timeout, not a
// wedged caller; the pool redials on next use.
var ErrTimeout = errors.New("client: request timeout")

// ErrNodeMismatch reports that the daemon a connection reached is not the
// cluster node the client asserted with WithNode: the address list and the
// cluster the daemons were booted into disagree. Surfaced by Open (the
// server refuses with wire.CodeNodeMismatch before touching the store), so a
// misrouted connection can never contribute a share to the wrong node's
// history.
var ErrNodeMismatch = errors.New("client: cluster node mismatch")

// NodeError wraps every connection-level failure with the address the
// failing connection was dialed to. In a single-server pool the address is
// redundant; in a cluster fan-out it is the signal — a dispersing client
// (package auditreg/cluster) unwraps it to tell WHICH node went silent and
// count it against f, rather than failing the whole quorum call. Unwrap
// preserves the underlying sentinel, so errors.Is(err, ErrConnLost) keeps
// working through the wrapper.
type NodeError struct {
	Addr string // the address the connection was dialed to
	Err  error
}

func (e *NodeError) Error() string { return fmt.Sprintf("client: node %s: %v", e.Addr, e.Err) }

func (e *NodeError) Unwrap() error { return e.Err }

// connWriteQueue bounds the request queue between callers and a
// connection's writer goroutine; senders block (backpressure) when the
// writer falls this far behind.
const connWriteQueue = 256

// conn is one pooled connection: a background read loop matches response
// frames to waiting requests by id (in-flight multiplexing), a writer
// goroutine coalesces queued request frames into scatter-gather flushes —
// one writev per wakeup, so pipelined requests (a fetch and its announce, or
// many goroutines' requests) share syscalls — and the connection remembers
// its server-issued session secret plus which objects it has opened.
//
// Requests and responses travel in pooled wire.Buf frames: the caller
// encodes into a buffer it got from the arena, the writer recycles it after
// the flush; the read loop copies each response body into a pooled buffer
// that the waiting caller recycles after decoding. Steady-state traffic
// allocates nothing per request beyond the in-flight bookkeeping.
type conn struct {
	nc         net.Conn
	addr       string        // dialed address, for NodeError attribution
	node       uint32        // cluster node id asserted on every OPEN; 0 asserts nothing
	reqTimeout time.Duration // per-request deadline; 0 disables enforcement

	writec chan *wire.Buf
	wquit  chan struct{}  // closed by close(); stops the writer
	fc     *flushCounters // the owning Client's, shared across redials

	nextID atomic.Uint64

	// timedOut marks that a request timer fired and kicked the read loop off
	// the socket via SetReadDeadline; the read loop consults it to attribute
	// its exit to ErrTimeout rather than a generic lost connection. Set
	// strictly before the deadline is moved, so the attribution never races
	// the wakeup it causes.
	timedOut atomic.Bool

	mu       sync.Mutex
	inflight map[uint64]chan resp // nil channel: fire-and-forget
	dead     error
	session  [wire.SessionLen]byte
	hasSess  bool
	epoch    uint64                   // server boot epoch, from OPEN responses
	opened   map[string]wire.OpenResp // objects opened on this conn
}

// resp is one matched response: the verb and a pooled copy of the body. The
// receiver owns buf and recycles it after decoding; a nil buf reports the
// connection died before the response arrived.
type resp struct {
	verb wire.Verb
	buf  *wire.Buf
}

// respChans pools the one-shot waiter channels of roundTrip, so a request
// costs no channel allocation at steady state. A pooled channel is always
// empty: its single send is consumed by the waiter before the channel is
// returned.
var respChans = sync.Pool{New: func() any { return make(chan resp, 1) }}

// flushCounters count the writev flushes of a Client's connections and the
// request frames they carried; frames over flushes is the writer's
// coalescing factor (Client.Flushes).
type flushCounters struct {
	flushes atomic.Uint64
	frames  atomic.Uint64
}

func dialConn(addr string, timeout, reqTimeout time.Duration, dial Dialer, node uint32, fc *flushCounters) (*conn, error) {
	nc, err := dial(addr, timeout)
	if err != nil {
		return nil, &NodeError{Addr: addr, Err: err}
	}
	cn := &conn{
		nc:         nc,
		addr:       addr,
		node:       node,
		reqTimeout: reqTimeout,
		writec:     make(chan *wire.Buf, connWriteQueue),
		wquit:      make(chan struct{}),
		fc:         fc,
		inflight:   make(map[uint64]chan resp),
		opened:     make(map[string]wire.OpenResp),
	}
	go cn.writeLoop()
	go cn.readLoop()
	return cn, nil
}

// writeLoop coalesces queued request frames into one scatter-gather flush
// per wakeup and recycles their buffers; a write failure kills the
// connection. It keeps draining (and recycling) queued frames after death so
// senders never block on a full queue.
//
// The writer yields once between its first frame and the drain. A caller's
// send readies the parked writer into the caller's own run slot, so without
// the yield the writer runs before the other runnable callers (and a
// cluster's fan-out goroutines) have queued theirs, and flushes one frame
// per syscall. After the yield they enqueue first and one writev carries
// them all. The server's writer does not yield (server/conn.go).
func (cn *conn) writeLoop() {
	var pend []*wire.Buf
	var fl wire.Flusher
	for {
		var first *wire.Buf
		select {
		case first = <-cn.writec:
		case <-cn.wquit:
			cn.recycleQueued()
			return
		}
		runtime.Gosched()
		pend = append(pend[:0], first)
	collect:
		for {
			select {
			case more := <-cn.writec:
				pend = append(pend, more)
			default:
				break collect
			}
		}
		if cn.reqTimeout > 0 {
			// A per-flush write deadline: a peer that stops draining its
			// receive window must not park the writer (and everything queued
			// behind it) forever.
			cn.nc.SetWriteDeadline(time.Now().Add(cn.reqTimeout))
		}
		cn.fc.frames.Add(uint64(len(pend)))
		cn.fc.flushes.Add(1)
		if err := fl.Flush(cn.nc, pend); err != nil {
			cause := fmt.Errorf("%w: write failed: %v", ErrConnLost, err)
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				cause = fmt.Errorf("%w: flush stalled past %v: %v", ErrTimeout, cn.reqTimeout, err)
			}
			cn.close(cause)
			cn.recycleQueued()
			return
		}
	}
}

// recycleQueued returns every queued request buffer to the arena until the
// quit signal has been observed and the queue is empty. Only called on the
// way out of writeLoop, after the connection is dead (no new senders pass
// the dead check).
func (cn *conn) recycleQueued() {
	for {
		select {
		case b := <-cn.writec:
			wire.PutBuf(b)
		case <-cn.wquit:
			for {
				select {
				case b := <-cn.writec:
					wire.PutBuf(b)
				default:
					return
				}
			}
		}
	}
}

// readLoop delivers response frames to their waiters until the connection
// dies, then fails every remaining and future request. Bodies are copied out
// of the scanner's reused buffer into pooled buffers owned by the waiters.
func (cn *conn) readLoop() {
	sc := wire.NewFrameScanner(cn.nc, 32<<10)
	for {
		f, err := sc.Next()
		if err != nil {
			if cn.timedOut.Load() {
				cn.close(fmt.Errorf("%w: no response within %v", ErrTimeout, cn.reqTimeout))
			} else {
				cn.close(fmt.Errorf("%w: %v", ErrConnLost, err))
			}
			return
		}
		cn.mu.Lock()
		ch, ok := cn.inflight[f.ID]
		delete(cn.inflight, f.ID)
		cn.mu.Unlock()
		if ok && ch != nil {
			rb := wire.GetBuf(len(f.Body))
			rb.B = append(rb.B[:0], f.Body...)
			ch <- resp{verb: f.Verb, buf: rb}
		}
	}
}

// timeoutKill is the request timer's firing path: mark the timeout (so the
// read loop attributes its exit correctly), then move the read deadline into
// the past, forcing the blocked read off the socket immediately. Death then
// flows through the read loop's single exit path — close with an ErrTimeout
// cause, every waiter woken — rather than a second, racing teardown.
func (cn *conn) timeoutKill() {
	cn.timedOut.Store(true)
	cn.nc.SetReadDeadline(time.Unix(1, 0))
}

// isDead reports whether the connection has failed.
func (cn *conn) isDead() bool {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.dead != nil
}

// close marks the connection dead with cause, stops the writer, and wakes
// every waiter with a dead-connection resp.
func (cn *conn) close(cause error) {
	cn.mu.Lock()
	if cn.dead != nil {
		cn.mu.Unlock()
		return
	}
	cn.dead = cause
	waiters := cn.inflight
	cn.inflight = nil
	cn.mu.Unlock()
	close(cn.wquit)
	cn.nc.Close()
	for _, ch := range waiters {
		if ch != nil {
			select {
			case ch <- resp{}: // nil buf: consult dead
			default: // a response beat us; the waiter takes that instead
			}
		}
	}
}

// deadErr returns the recorded cause of death (or a generic closed error),
// wrapped in a NodeError naming this connection's dialed address — the
// per-node attribution every dead-connection failure surfaces with.
func (cn *conn) deadErr() error {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	if cn.dead != nil {
		return &NodeError{Addr: cn.addr, Err: cn.dead}
	}
	return &NodeError{Addr: cn.addr, Err: errClientClosed}
}

// enqueue registers the request id (wait selects a pooled waiter channel)
// and hands the complete frame buffer to the writer, taking ownership of b
// in every outcome.
func (cn *conn) enqueue(b *wire.Buf, id uint64, wait bool) (chan resp, error) {
	var ch chan resp
	if wait {
		ch = respChans.Get().(chan resp)
	}
	cn.mu.Lock()
	if cn.dead != nil {
		err := &NodeError{Addr: cn.addr, Err: cn.dead}
		cn.mu.Unlock()
		if ch != nil {
			respChans.Put(ch)
		}
		wire.PutBuf(b)
		return nil, err
	}
	cn.inflight[id] = ch
	cn.mu.Unlock()

	select {
	case cn.writec <- b:
		return ch, nil
	case <-cn.wquit:
		cn.mu.Lock()
		if _, still := cn.inflight[id]; still {
			delete(cn.inflight, id)
			if ch != nil {
				respChans.Put(ch)
				ch = nil
			}
		}
		cn.mu.Unlock()
		wire.PutBuf(b)
		// The waiter entry may already have been snapped up by close();
		// either way the request is dead.
		return nil, cn.deadErr()
	}
}

// roundTripBuf sends the frame in b — encoded with wire.BeginFrame and the
// message's Append, prefix still unpatched — and blocks for its response.
// It owns b; the returned resp's buffer is owned by the caller, who recycles
// it with wire.PutBuf after decoding.
func (cn *conn) roundTripBuf(verb wire.Verb, b *wire.Buf) (resp, error) {
	id := cn.nextID.Add(1)
	if err := wire.EndFrame(b.B, 0, id, verb); err != nil {
		wire.PutBuf(b)
		return resp{}, err
	}
	if cn.reqTimeout > 0 {
		// Armed before enqueue so the deadline also covers time spent queued
		// behind a stalled flush. Firing kicks the read loop off the socket
		// (SetReadDeadline in the past), which kills the connection with an
		// ErrTimeout cause and wakes every waiter — including this one, via
		// the dead-connection resp below. Stopped on the normal path; a
		// response racing the timer at the deadline costs a redial, nothing
		// more.
		t := time.AfterFunc(cn.reqTimeout, cn.timeoutKill)
		defer t.Stop()
	}
	ch, err := cn.enqueue(b, id, true)
	if err != nil {
		return resp{}, err
	}
	r := <-ch
	respChans.Put(ch)
	if r.buf == nil {
		return resp{}, cn.deadErr()
	}
	return r, nil
}

// roundTrip is roundTripBuf over a plain body: the convenience path for cold
// verbs.
func (cn *conn) roundTrip(verb wire.Verb, body []byte) (resp, error) {
	b := wire.GetBuf(wire.FramePrefix + len(body))
	b.B = append(wire.BeginFrame(b.B[:0]), body...)
	return cn.roundTripBuf(verb, b)
}

// postBuf sends the frame in b without waiting for its response (the read
// loop discards it on arrival). Used for READ-ANNOUNCE, which is pure
// helping: the client pipelines it behind the fetch and moves on — the
// writer coalesces the two frames into one flush when they are queued
// together.
func (cn *conn) postBuf(verb wire.Verb, b *wire.Buf) error {
	id := cn.nextID.Add(1)
	if err := wire.EndFrame(b.B, 0, id, verb); err != nil {
		wire.PutBuf(b)
		return err
	}
	_, err := cn.enqueue(b, id, false)
	return err
}

// open ensures the named object is open on this connection and returns the
// server's OpenResp; the first open also learns the connection's session
// secret. Subsequent opens of the same name on this connection are answered
// locally.
func (cn *conn) open(name string, wkind uint8, capacity uint32) (wire.OpenResp, error) {
	cn.mu.Lock()
	if prev, ok := cn.opened[name]; ok && prev.Kind == wkind && cn.hasSess {
		cn.mu.Unlock()
		return prev, nil
	}
	cn.mu.Unlock()

	req := wire.OpenReq{Name: name, Kind: wkind, Capacity: capacity, Node: cn.node}
	r, err := cn.roundTrip(wire.VerbOpen, req.Append(nil))
	if err != nil {
		return wire.OpenResp{}, err
	}
	var openResp wire.OpenResp
	err = decodeResp(r, wire.VerbOpen, &openResp)
	wire.PutBuf(r.buf)
	if err != nil {
		return wire.OpenResp{}, err
	}
	if cn.node != 0 && openResp.Node != cn.node {
		// Belt and braces: the server refuses asserted mismatches itself
		// (CodeNodeMismatch), so this only fires against a daemon that echoed
		// an id it did not check.
		return wire.OpenResp{}, &NodeError{Addr: cn.addr, Err: fmt.Errorf(
			"open %q: daemon is node %d, want %d: %w", name, openResp.Node, cn.node, ErrNodeMismatch)}
	}
	cn.mu.Lock()
	cn.session = openResp.Session
	cn.hasSess = true
	cn.epoch = openResp.Epoch
	cn.opened[name] = openResp
	cn.mu.Unlock()
	return openResp, nil
}

// epochValue returns the server boot epoch this connection observed. A TCP
// connection can only ever talk to one server process, so the value is
// stable for the connection's lifetime — which is what makes it a safe
// staleness signal for read caches (a process-wide "latest epoch" could be
// overwritten by a delayed callback from a pre-restart connection).
func (cn *conn) epochValue() uint64 {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.epoch
}

// sessionValue returns the connection's session secret.
func (cn *conn) sessionValue() [wire.SessionLen]byte {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.session
}
