package main

import (
	"bufio"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"auditreg/client"
)

// layerSnap is a cumulative reading of a system's layer counters and stage
// histograms. Two readings differenced give the timed phase's share.
type layerSnap struct {
	counters map[string]float64
	// stages maps a server pipeline stage to its per-bucket counts, keyed
	// by the bucket's upper bound in nanoseconds (buckets are powers of two).
	stages map[string]map[uint64]float64
}

func newSnap() layerSnap {
	return layerSnap{counters: map[string]float64{}, stages: map[string]map[uint64]float64{}}
}

// add accumulates o into s.
func (s layerSnap) add(o layerSnap) {
	for k, v := range o.counters {
		s.counters[k] += v
	}
	for st, bk := range o.stages {
		if s.stages[st] == nil {
			s.stages[st] = map[uint64]float64{}
		}
		for le, n := range bk {
			s.stages[st][le] += n
		}
	}
}

func (a layerSnap) sub(b layerSnap) layerSnap {
	d := newSnap()
	for k, v := range a.counters {
		d.counters[k] = v - b.counters[k]
	}
	for st, bk := range a.stages {
		m := map[uint64]float64{}
		for le, n := range bk {
			m[le] = n - b.stages[st][le]
		}
		d.stages[st] = m
	}
	return d
}

// addServer adds one server's metrics endpoint and STATS counters to s.
// The stage histograms come from the Prometheus bucket counts, which are
// exact; the quantiles the server itself exports are bucket bounds only.
func (s layerSnap) addServer(mux http.Handler, stats *client.Client) error {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	cum := map[string]map[uint64]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		const prefix = `auditreg_stage_duration_seconds_bucket{stage="`
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		stage, rest, _ := strings.Cut(rest, `",le="`)
		le, val, _ := strings.Cut(rest, `"} `)
		if le == "+Inf" {
			continue
		}
		sec, err1 := strconv.ParseFloat(le, 64)
		n, err2 := strconv.ParseFloat(val, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		if cum[stage] == nil {
			cum[stage] = map[uint64]float64{}
		}
		cum[stage][uint64(math.Round(sec*1e9))] = n
	}
	for stage, c := range cum {
		les := make([]uint64, 0, len(c))
		for le := range c {
			les = append(les, le)
		}
		sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
		if s.stages[stage] == nil {
			s.stages[stage] = map[uint64]float64{}
		}
		prev := 0.0
		for _, le := range les {
			s.stages[stage][le] += c[le] - prev
			prev = c[le]
		}
	}
	pairs, err := stats.Stats()
	if err != nil {
		return err
	}
	for _, p := range pairs {
		s.counters["server."+p.Name] += float64(p.Value)
	}
	return nil
}

// stageCount is the number of observations in a differenced stage.
func stageCount(b map[uint64]float64) float64 {
	n := 0.0
	for _, c := range b {
		n += c
	}
	return n
}

// stageQuantile interpolates the q-quantile inside the power-of-two bucket
// holding the rank; 0 when the stage saw nothing.
func stageQuantile(b map[uint64]float64, q float64) float64 {
	les := make([]uint64, 0, len(b))
	total := 0.0
	for le, c := range b {
		if c > 0 {
			les = append(les, le)
			total += c
		}
	}
	if total == 0 {
		return 0
	}
	sort.Slice(les, func(i, j int) bool { return les[i] < les[j] })
	rank, cum := q*total, 0.0
	for _, le := range les {
		c := b[le]
		if cum+c >= rank {
			lo := float64(le / 2)
			return lo + (float64(le)-lo)*(rank-cum)/c
		}
		cum += c
	}
	return float64(les[len(les)-1])
}

// wireMeter counts what a client's connections carry, read from the
// kernel's TCP_INFO for each socket the dialer made. Wrapping the net.Conn
// instead would hide the *net.TCPConn from net.Buffers and turn every
// vectored flush into one write per frame, changing what is measured.
type wireMeter struct {
	mu    sync.Mutex
	conns []*net.TCPConn
	last  map[*net.TCPConn]tcpCounts
}

type tcpCounts struct{ bytesOut, bytesIn, segsOut uint64 }

// dialer returns a client.Dialer that registers every connection it makes.
func (w *wireMeter) dialer() client.Dialer {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, timeout)
		if err != nil {
			return nil, err
		}
		if tc, ok := c.(*net.TCPConn); ok {
			w.mu.Lock()
			w.conns = append(w.conns, tc)
			w.mu.Unlock()
		}
		return c, nil
	}
}

// addTo sums the counters of every connection into s. A closed
// connection keeps the counts it last reported.
func (w *wireMeter) addTo(s layerSnap) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.last == nil {
		w.last = map[*net.TCPConn]tcpCounts{}
	}
	var sum tcpCounts
	for _, c := range w.conns {
		if tc, ok := tcpInfo(c); ok {
			w.last[c] = tc
		}
		tc := w.last[c]
		sum.bytesOut += tc.bytesOut
		sum.bytesIn += tc.bytesIn
		sum.segsOut += tc.segsOut
	}
	s.counters["wire.bytes_out"] += float64(sum.bytesOut)
	s.counters["wire.bytes_in"] += float64(sum.bytesIn)
	s.counters["wire.conn_writes"] += float64(sum.segsOut)
}

// Offsets into Linux's struct tcp_info (include/uapi/linux/tcp.h).
const (
	tcpiBytesReceived = 128 // __u64, since 4.1
	tcpiDataSegsOut   = 156 // __u32, since 4.6
	tcpiBytesSent     = 200 // __u64, since 4.19
	tcpiMinLen        = 208
)

// tcpInfo reads one socket's byte and data-segment counters. With Go's
// default TCP_NODELAY, each flush of less than one segment leaves as one
// data segment, so segments out counts the client's socket writes.
func tcpInfo(c *net.TCPConn) (tcpCounts, bool) {
	raw, err := c.SyscallConn()
	if err != nil {
		return tcpCounts{}, false
	}
	var buf [256]byte
	size := uint32(len(buf))
	var serr syscall.Errno
	err = raw.Control(func(fd uintptr) {
		_, _, serr = syscall.Syscall6(syscall.SYS_GETSOCKOPT, fd, syscall.IPPROTO_TCP, syscall.TCP_INFO,
			uintptr(unsafe.Pointer(&buf[0])), uintptr(unsafe.Pointer(&size)), 0)
	})
	if err != nil || serr != 0 || size < tcpiMinLen {
		return tcpCounts{}, false
	}
	u64 := func(off int) uint64 { return *(*uint64)(unsafe.Pointer(&buf[off])) }
	u32 := func(off int) uint32 { return *(*uint32)(unsafe.Pointer(&buf[off])) }
	return tcpCounts{bytesOut: u64(tcpiBytesSent), bytesIn: u64(tcpiBytesReceived), segsOut: uint64(u32(tcpiDataSegsOut))}, true
}
