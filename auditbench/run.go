package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Op kinds, in the order of the per-kind latency arrays.
const (
	opWrite = iota
	opRead
	opAudit
	numOps
)

var opNames = [numOps]string{"write", "read", "audit"}

// An op is packed into 32 bits: kind (2) | reader (6) | object (24).
func packOp(kind, reader, obj int) uint32 { return uint32(kind)<<30 | uint32(reader)<<24 | uint32(obj) }

func unpackOp(op uint32) (kind, reader, obj int) {
	return int(op >> 30), int(op>>24) & 63, int(op & (1<<24 - 1))
}

// genOps makes the run's fixed op sequence from the seed: total ops split
// evenly into one list per caller, each walked once. The lists are made
// before anything is timed; write values are not part of them (each write
// takes the object's next value when it runs, so values stay unique).
func genOps(wl *workload, seed uint64, total int) [][]uint32 {
	perm := rand.New(rand.NewPCG(seed, 0x5eed)).Perm(wl.objects)
	out := make([][]uint32, wl.callers)
	for c := range out {
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1))
		var zipf *rand.Zipf
		if wl.zipf > 0 {
			zipf = rand.NewZipf(rng, wl.zipf, 1, uint64(wl.objects-1))
		}
		ops := make([]uint32, total/wl.callers)
		for i := range ops {
			var obj int
			if zipf != nil {
				obj = perm[zipf.Uint64()] // popularity rank -> object, scattered over shards
			} else {
				obj = rng.IntN(wl.objects)
			}
			kind := opAudit
			switch p := rng.IntN(100); {
			case p < wl.readPct:
				kind = opRead
			case p < wl.readPct+wl.writePct:
				kind = opWrite
			}
			ops[i] = packOp(kind, rng.IntN(readers), obj)
		}
		out[c] = ops
	}
	return out
}

// historyCapacity sizes an object's audit history for the writes the op
// lists plan for it plus the warm-up write, so that no write or audit runs
// out of history; objects the default covers keep it.
func historyCapacity(planned, def int) int {
	c := def
	for c < planned+1 {
		c <<= 1
	}
	return c
}

// readers is the reader count m of every object in every workload.
const readers = 16

// clusterReadStats sums the ReadTrace fields of cluster reads.
type clusterReadStats struct {
	reads, responded, retries, stale uint64
	undecided, audits                uint64
}

func (s *clusterReadStats) add(o clusterReadStats) {
	s.reads += o.reads
	s.responded += o.responded
	s.retries += o.retries
	s.stale += o.stale
	s.undecided += o.undecided
	s.audits += o.audits
}

// caller is one closed-loop client goroutine's state. Nothing in it is
// shared while the run is going; the benchmark merges callers afterwards.
type caller struct {
	id  int
	r   *runCtx
	ops []uint32

	lat      [numOps]hist
	done     [numOps]uint64
	failed   uint64
	firstErr error

	// Per (object, reader) slot: the write numbers of the values read, and
	// whether the slot was read at all or had a read fail.
	seen    []bitset
	readBy  []bool
	ambig   []bool
	badRead error      // first read that returned a value never issued
	last    []writeRec // per object
	fetched uint64     // local store reads that applied a fetch&xor

	cl clusterReadStats

	tr      *tracer // nil unless the run is traced
	tracing bool    // tracer active for the current op
	opsIn   [2]uint64
	winOps  []uint64 // ops completed in each window of the timed phase
}

// runCtx is the state all callers of one set-up share.
type runCtx struct {
	wl      *workload
	base    time.Time
	counter []atomic.Uint64 // next write value per object
	callers []*caller
	planned []int // writes the op lists hold per object

	timedStart int64 // clock reading when the timed phase began
}

// window is the length of the slices the timed phase is reported in.
const window = time.Second

func (r *runCtx) now() int64 { return int64(time.Since(r.base)) }

// newRunCtx prepares one round's callers. keepSpans is how many spans the
// round's tracers keep for the trace file, split between the callers.
func newRunCtx(wl *workload, ops [][]uint32, traced bool, keepSpans int) *runCtx {
	r := &runCtx{wl: wl, base: time.Now(), counter: make([]atomic.Uint64, wl.objects), planned: make([]int, wl.objects)}
	for _, list := range ops {
		for _, op := range list {
			if kind, _, obj := unpackOp(op); kind == opWrite {
				r.planned[obj]++
			}
		}
	}
	for c := 0; c < wl.callers; c++ {
		cl := &caller{
			id:     c,
			r:      r,
			ops:    ops[c],
			seen:   make([]bitset, wl.objects*readers),
			readBy: make([]bool, wl.objects*readers),
			ambig:  make([]bool, wl.objects*readers),
			last:   make([]writeRec, wl.objects),
		}
		if traced {
			cl.tr = newTracer(c, keepSpans/wl.callers)
		}
		r.callers = append(r.callers, cl)
	}
	return r
}

// nextValue issues obj's next write value.
func (r *runCtx) nextValue(obj int) uint64 { return tagValue(obj, r.counter[obj].Add(1)) }

// span records a child span of the current op when the op is traced.
func (c *caller) span(k spanKind, start int64) {
	if c.tracing {
		c.tr.child(k, start, c.r.now())
	}
}

// clock returns the time for a child span's start, or 0 when untraced.
func (c *caller) clock() int64 {
	if c.tracing {
		return c.r.now()
	}
	return 0
}

// exec runs one op against sys and records its outcome. It returns when
// the op ended and its latency, in nanoseconds.
func (c *caller) exec(sys system, kind, reader, obj int) (end, d int64, err error) {
	start := c.r.now()
	if c.tracing {
		c.tr.beginOp(start)
	}
	switch kind {
	case opWrite:
		v := c.r.nextValue(obj)
		err = sys.write(c, obj, v)
		if err == nil {
			c.last[obj] = writeRec{value: v, start: start, end: c.r.now()}
		}
	case opRead:
		var v uint64
		v, err = sys.read(c, obj, reader)
		slot := obj*readers + reader
		c.readBy[slot] = true
		switch {
		case err != nil:
			c.ambig[slot] = true
		case issued(obj, v, c.r.counter[obj].Load()):
			c.seen[slot].set(valueCount(v))
		case c.badRead == nil:
			c.badRead = fmt.Errorf("object %d: reader %d read %#x, a value no write on this object issued", obj, reader, v)
		}
	case opAudit:
		err = sys.audit(c, obj)
	}
	end = c.r.now()
	if c.tracing {
		c.tr.endOp(spanKind(kind), end)
	}
	return end, end - start, err
}

// loop walks the caller's op list once, or until stop is set.
func (c *caller) loop(sys system, stop *atomic.Bool, traceOn *atomic.Bool) {
	for _, op := range c.ops {
		if stop.Load() {
			break
		}
		c.tracing = c.tr != nil && traceOn.Load()
		kind, reader, obj := unpackOp(op)
		end, d, err := c.exec(sys, kind, reader, obj)
		if c.tracing {
			c.opsIn[1]++
		} else {
			c.opsIn[0]++
		}
		if err != nil {
			if c.failed++; c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s of object %d: %w", opNames[kind], obj, err)
			}
			continue
		}
		c.lat[kind].add(d)
		c.done[kind]++
		w := int((end - c.r.timedStart) / int64(window))
		for len(c.winOps) <= w {
			c.winOps = append(c.winOps, 0)
		}
		c.winOps[w]++
	}
	c.tracing = false
}

// warmup writes every object once and then reads it with every reader, so
// each object, reader handle and connection is live before timing starts.
// Callers split the objects between them.
func warmup(r *runCtx, sys system) error {
	var wg sync.WaitGroup
	errs := make([]error, len(r.callers))
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			n := len(r.callers)
			for obj := c.id; obj < r.wl.objects; obj += n {
				if _, _, err := c.exec(sys, opWrite, 0, obj); err != nil {
					errs[c.id] = err
					return
				}
			}
			for obj := c.id; obj < r.wl.objects; obj += n {
				for j := 0; j < readers; j++ {
					if _, _, err := c.exec(sys, opRead, j, obj); err != nil {
						errs[c.id] = err
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// timed runs every caller's op list closed-loop and returns once all are
// done, or once limit has passed (capped then reports true). When traced,
// span recording is switched on and off in alternating slices so that one
// run measures both the per-layer spans and the throughput tracing costs.
func timed(r *runCtx, sys system, limit time.Duration, traced bool) (elapsed time.Duration, modeTime [2]time.Duration, capped bool) {
	var stop, traceOn atomic.Bool
	var wg sync.WaitGroup
	done := make(chan struct{})
	for _, c := range r.callers {
		c.fetched, c.cl = 0, clusterReadStats{} // count the timed phase only
	}
	start := time.Now()
	r.timedStart = r.now()
	for _, c := range r.callers {
		wg.Add(1)
		go func(c *caller) {
			defer wg.Done()
			c.loop(sys, &stop, &traceOn)
		}(c)
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	const slice = 50 * time.Millisecond
	tick := time.NewTicker(slice)
	defer tick.Stop()
	mode, sliceStart := 0, start
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		case now := <-tick.C:
			if now.Sub(start) >= limit && !capped {
				capped = true
				stop.Store(true)
			}
			if traced {
				modeTime[mode] += now.Sub(sliceStart)
				sliceStart = now
				mode ^= 1
				traceOn.Store(mode == 1)
			}
		}
	}
	end := time.Now()
	elapsed = end.Sub(start)
	modeTime[mode] += end.Sub(sliceStart)
	runtime.GC()
	return elapsed, modeTime, capped
}

// buildOracle merges every caller's observations into the oracle.
func buildOracle(r *runCtx, kinds []objKind, stale bool) (*oracle, error) {
	o := newOracle(kinds, len(r.callers), stale)
	for obj := range o.objs {
		o.objs[obj].writes = valueCount(r.counter[obj].Load())
	}
	for _, c := range r.callers {
		if c.badRead != nil {
			return nil, c.badRead
		}
		for slot := range c.seen {
			t := &o.objs[slot/readers]
			t.seen[slot%readers].or(c.seen[slot])
			t.readBy[slot%readers] = t.readBy[slot%readers] || c.readBy[slot]
			t.ambiguous[slot%readers] = t.ambiguous[slot%readers] || c.ambig[slot]
		}
		for obj, w := range c.last {
			o.objs[obj].last[c.id] = w
		}
	}
	return o, nil
}
