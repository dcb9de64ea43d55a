package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spanKind names one boundary the benchmark records a span at. Every kind
// belongs to one layer: "bench" is the benchmark's own op loop (an op's
// root span), the others are the package whose public call the span wraps.
type spanKind uint8

const (
	kOpWrite spanKind = iota
	kOpRead
	kOpAudit
	kStoreWrite
	kStoreReadFetch
	kStoreAnnounce
	kStoreAuditObject
	kClientWrite
	kClientRead
	kClientAudit
	kClusterWrite
	kClusterRead
	kClusterAudit
	kSetup
	kSetupServerNew
	kSetupDial
	kSetupOpen
	kSetupWarmup
	kVerify
	kVerifyRead
	kVerifyAudit
	kVerifyShutdown
	kVerifyReopen
	kVerifyDial
	kVerifyOpen
	numKinds
)

// kindInfo names each kind and its layer; an empty layer means the
// workload's target layer (the package whose objects the workload drives).
var kindInfo = [numKinds]struct{ name, layer string }{
	kOpWrite:          {"op.write", "bench"},
	kOpRead:           {"op.read", "bench"},
	kOpAudit:          {"op.audit", "bench"},
	kStoreWrite:       {"store.Object.Write", "store"},
	kStoreReadFetch:   {"store.Object.ReadFetch", "store"},
	kStoreAnnounce:    {"store.Object.Announce", "store"},
	kStoreAuditObject: {"store.AuditPool.AuditObject", "store"},
	kClientWrite:      {"client.Object.Write", "client"},
	kClientRead:       {"client.Object.Read", "client"},
	kClientAudit:      {"client.Auditor.Audit", "client"},
	kClusterWrite:     {"cluster.Object.Write", "cluster"},
	kClusterRead:      {"cluster.Object.ReadTraced", "cluster"},
	kClusterAudit:     {"cluster.Object.Audit", "cluster"},
	kSetup:            {"setup", "bench"},
	kSetupServerNew:   {"server.New", "server"},
	kSetupDial:        {"dial", ""},
	kSetupOpen:        {"open", ""},
	kSetupWarmup:      {"warmup", ""},
	kVerify:           {"verify", "bench"},
	kVerifyRead:       {"verify.read", ""},
	kVerifyAudit:      {"verify.audit", ""},
	kVerifyShutdown:   {"server.Shutdown", "server"},
	kVerifyReopen:     {"server.New(reopen)", "persist"},
	kVerifyDial:       {"dial", ""},
	kVerifyOpen:       {"open", ""},
}

// span is one recorded interval. Spans of one op share op; parent is the id
// of the span that caused this one (0 for a root).
type span struct {
	op, id, parent uint64
	kind           spanKind
	start, end     int64 // ns since the run's clock base
}

// maxKeptSpans bounds the spans one run keeps for the trace file: they are
// taken from the first round, split evenly between its callers. The
// self-time totals and latency histograms cover every traced op regardless.
const maxKeptSpans = 50000

// tracer records spans for one goroutine. Self time is accumulated as each
// op ends, so memory stays bounded however long the run is.
type tracer struct {
	base  uint64 // id space of this tracer
	next  uint64
	spans []span
	keepN int // spans kept at most

	calls [numKinds]uint64
	total [numKinds]int64
	self  [numKinds]int64
	lat   [numKinds]hist

	root      uint64 // the open root span's id, which is also its op's id
	rootStart int64
	childNs   int64
}

func newTracer(id, keep int) *tracer { return &tracer{base: uint64(id+1) << 40, keepN: keep} }

func (t *tracer) newID() uint64 { t.next++; return t.base | t.next }

func (t *tracer) keep(s span) {
	if len(t.spans) < t.keepN {
		t.spans = append(t.spans, s)
	}
}

// beginOp opens a root span; children recorded until endOp belong to it.
func (t *tracer) beginOp(start int64) {
	t.root = t.newID()
	t.rootStart = start
	t.childNs = 0
}

// child records one call made inside the current root span.
func (t *tracer) child(k spanKind, start, end int64) {
	d := end - start
	t.calls[k]++
	t.total[k] += d
	t.self[k] += d
	t.lat[k].add(d)
	t.childNs += d
	t.keep(span{op: t.root, id: t.newID(), parent: t.root, kind: k, start: start, end: end})
}

// endOp closes the root span opened by beginOp.
func (t *tracer) endOp(k spanKind, end int64) {
	d := end - t.rootStart
	t.calls[k]++
	t.total[k] += d
	t.self[k] += d - t.childNs
	t.lat[k].add(d)
	t.keep(span{op: t.root, id: t.root, kind: k, start: t.rootStart, end: end})
}

func (t *tracer) merge(o *tracer) {
	for k := range t.calls {
		t.calls[k] += o.calls[k]
		t.total[k] += o.total[k]
		t.self[k] += o.self[k]
		t.lat[k].merge(&o.lat[k])
	}
	t.spans = append(t.spans, o.spans...)
}

// phases records set-up and verification spans as a nested stack; unlike
// the op tracer it keeps every span, because those phases make few calls.
type phases struct {
	t     *tracer
	now   func() int64
	stack []phaseFrame
	op    uint64
}

type phaseFrame struct {
	id      uint64
	start   int64
	childNs int64
}

func newPhases(now func() int64) *phases {
	return &phases{t: newTracer(1<<20, 0), now: now}
}

// begin opens a span nested in the innermost open one and returns its
// closer; spans close in reverse order of opening. A nil *phases records
// nothing.
func (p *phases) begin(k spanKind) func() {
	if p == nil {
		return func() {}
	}
	f := phaseFrame{id: p.t.newID(), start: p.now()}
	var parent uint64
	if len(p.stack) == 0 {
		p.op = f.id
	} else {
		parent = p.stack[len(p.stack)-1].id
	}
	p.stack = append(p.stack, f)
	return func() {
		end := p.now()
		top := p.stack[len(p.stack)-1]
		p.stack = p.stack[:len(p.stack)-1]
		d := end - top.start
		p.t.calls[k]++
		p.t.total[k] += d
		p.t.self[k] += d - top.childNs
		if n := len(p.stack); n > 0 {
			p.stack[n-1].childNs += d
		}
		p.t.spans = append(p.t.spans, span{op: p.op, id: top.id, parent: parent, kind: k, start: top.start, end: end})
	}
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	phase, layer    string
	totalNs, selfNs int64
}

func layerOf(k spanKind, target string) string {
	if l := kindInfo[k].layer; l != "" {
		return l
	}
	return target
}

// selfTable groups a tracer's kinds by phase (op, setup, verify) and layer.
func selfTable(t *tracer, target string) []selfRow {
	idx := map[[2]string]*selfRow{}
	var rows []*selfRow
	for k := spanKind(0); k < numKinds; k++ {
		if t.calls[k] == 0 {
			continue
		}
		key := [2]string{phaseOf(k), layerOf(k, target)}
		r := idx[key]
		if r == nil {
			r = &selfRow{phase: key[0], layer: key[1]}
			idx[key] = r
			rows = append(rows, r)
		}
		r.totalNs += t.total[k]
		r.selfNs += t.self[k]
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].phase != out[j].phase {
			return out[i].phase < out[j].phase
		}
		return out[i].selfNs > out[j].selfNs
	})
	return out
}

func phaseOf(k spanKind) string {
	switch {
	case k < kSetup:
		return "op"
	case k < kVerify:
		return "setup"
	default:
		return "verify"
	}
}

func printSelfTable(w io.Writer, workload string, rows []selfRow) {
	fmt.Fprintf(w, "self time by layer (%s):\n", workload)
	fmt.Fprintf(w, "  %-7s %-8s %12s %12s %7s\n", "phase", "layer", "total_ms", "self_ms", "share")
	phaseSelf := map[string]int64{}
	for _, r := range rows {
		phaseSelf[r.phase] += r.selfNs
	}
	for _, r := range rows {
		share := 0.0
		if s := phaseSelf[r.phase]; s > 0 {
			share = 100 * float64(r.selfNs) / float64(s)
		}
		fmt.Fprintf(w, "  %-7s %-8s %12.3f %12.3f %6.1f%%\n", r.phase, r.layer, float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, share)
	}
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, spans []span, target string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(struct {
			Op      uint64 `json:"op"`
			ID      uint64 `json:"id"`
			Parent  uint64 `json:"parent"`
			Name    string `json:"name"`
			Layer   string `json:"layer"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
		}{s.op, s.id, s.parent, kindInfo[s.kind].name, layerOf(s.kind, target), s.start, s.end}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
