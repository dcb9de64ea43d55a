package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/internal/benchfmt"
)

// daemon is one spawned auditd process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
}

// daemonTuning carries the auditd tuning flags loadgen forwards to the
// daemons it spawns (zero values: the daemon's defaults).
type daemonTuning struct {
	walBatchDelay time.Duration
	shards        int // shard executors (-shards)
	shardQueue    int // per-executor queue depth (-shard-queue)
	// metricsAddr is the daemon's -metrics-addr; set internally by
	// runDurableCell (not a tuning knob, so it stays out of suffix()). The
	// restart watcher reuses the same tuning, so the restarted daemon
	// re-listens on the same metrics port and the end-of-cell scrape works
	// whichever process is alive.
	metricsAddr string
	// nodeID is the daemon's -node-id; set by runClusterCell, which bakes
	// the cluster geometry into the cell name itself, so it too stays out
	// of suffix().
	nodeID uint32
	// corruptShares forwards -corrupt-shares: the chaos cell's Byzantine
	// phase restarts one node with the bit-flipping share server (the
	// positive control its detection assertions key on). Not a tuning knob;
	// stays out of suffix().
	corruptShares bool
}

// suffix renders the non-default tuning knobs as extra benchmark name
// dimensions, so cells measured under different daemon tunings keep
// distinct names when several runs are merged into one BENCH_*.json.
func (t daemonTuning) suffix() string {
	var s string
	if t.shards != 0 {
		s += fmt.Sprintf("/shards=%d", t.shards)
	}
	if t.shardQueue != 0 {
		s += fmt.Sprintf("/queue=%d", t.shardQueue)
	}
	return s
}

// startDaemon execs the auditd binary against dataDir and waits for its
// "listening on" line.
func startDaemon(bin, addr, dataDir string, seed uint64, readers int, tune daemonTuning) (*daemon, error) {
	args := []string{
		"-addr", addr,
		"-seed", fmt.Sprint(seed),
		"-readers", fmt.Sprint(readers),
		"-data-dir", dataDir,
		"-fsync", "always",
		"-poolinterval", "2ms",
	}
	if tune.walBatchDelay != 0 {
		args = append(args, "-wal-batch-delay", tune.walBatchDelay.String())
	}
	if tune.shards != 0 {
		args = append(args, "-shards", fmt.Sprint(tune.shards))
	}
	if tune.shardQueue != 0 {
		args = append(args, "-shard-queue", fmt.Sprint(tune.shardQueue))
	}
	if tune.metricsAddr != "" {
		args = append(args, "-metrics-addr", tune.metricsAddr)
	}
	if tune.nodeID != 0 {
		args = append(args, "-node-id", fmt.Sprint(tune.nodeID))
	}
	if tune.corruptShares {
		args = append(args, "-corrupt-shares")
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd}
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "auditd: listening on "); ok {
				select {
				case listening <- rest:
				default:
				}
			}
		}
	}()
	select {
	case got := <-listening:
		d.addr = got
		return d, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("auditd did not report listening within 15s")
	}
}

// kill9 delivers SIGKILL and reaps the process: the crash the WAL must
// survive.
func (d *daemon) kill9() {
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
}

func (d *daemon) terminate() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	return d.cmd.Wait()
}

// freePort reserves an ephemeral port and releases it for the daemon; the
// same port is reused across the restart so one client pool spans the kill.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// ambiguousKey marks a (object, reader) pair whose read failed around the
// kill: the server may have performed (and audited) the fetch without the
// driver ever seeing the value.
type ambiguousKey struct {
	obj    int
	reader int
}

// runDurableCell is one grid cell of the durability series (E14 shape,
// re-measured as E16 after the zero-allocation/group-commit overhaul): drive
// traffic against a spawned auditd with a data dir, SIGKILL it mid-cell,
// restart it from the same directory while the workers retry through the
// same client pool (which redials and drops its caches on the new boot
// epoch), and verify that a fresh audit matches exactly what the driver
// observed — the paper's guarantee, now across a crash.
//
// An op that errors is retried — same object, same value, same reader —
// until it succeeds or a deadline expires, so the op stream survives the
// crash intact. failed-ops counts only ops that never completed (expected
// 0); retried-ops counts ops that succeeded after at least one failure —
// the requests whose first ack the kill genuinely lost. Earlier drivers
// counted one failed op per worker goroutine at the kill even though the
// workload went on to complete, overstating the damage (BENCH_4's
// failed-ops == goroutines).
//
// Verification is two-sided with a precise concession to physics: every
// pair the driver observed must be audited (fsync=always: an acknowledged
// effective read is durable), and every audited pair must either have been
// observed or be attributable to a read that failed on that same (object,
// reader), with a value some write attempted — a fetch the server may have
// performed (and audited) without the driver ever seeing the value.
func runDurableCell(cfg cellConfig, auditdBin, baseDir string, conns int, tune daemonTuning) (benchfmt.Result, error) {
	m := cfg.readers
	if m == 0 {
		m = cfg.goroutines
		if m > auditreg.MaxReaders {
			m = auditreg.MaxReaders
		}
	}
	dataDir := filepath.Join(baseDir, fmt.Sprintf("cell-o%d-g%d", cfg.objects, cfg.goroutines))
	addr, err := freePort()
	if err != nil {
		return benchfmt.Result{}, err
	}
	if tune.metricsAddr, err = freePort(); err != nil {
		return benchfmt.Result{}, err
	}
	d, err := startDaemon(auditdBin, addr, dataDir, cfg.seed, m, tune)
	if err != nil {
		return benchfmt.Result{}, err
	}
	var dmu sync.Mutex // guards d across the background restart
	curDaemon := func() *daemon {
		dmu.Lock()
		defer dmu.Unlock()
		return d
	}
	defer func() {
		if dd := curDaemon(); dd != nil {
			dd.kill9()
		}
	}()

	cl, err := client.Dial(addr,
		client.WithKey(auditreg.KeyFromSeed(cfg.seed)),
		client.WithConns(conns))
	if err != nil {
		return benchfmt.Result{}, err
	}
	defer cl.Close()

	names := make([]string, cfg.objects)
	objs := make([]*client.Object, cfg.objects)
	auds := make([]*client.Auditor, cfg.objects)
	for i := range names {
		kind := remoteKinds[i%len(remoteKinds)]
		names[i] = fmt.Sprintf("e14/o%d-g%d/%v-%05d", cfg.objects, cfg.goroutines, kind, i)
		if objs[i], err = cl.Open(names[i], kind); err != nil {
			return benchfmt.Result{}, err
		}
		if auds[i], err = objs[i].Auditor(); err != nil {
			return benchfmt.Result{}, err
		}
	}

	// Per-goroutine observation logs (folded after the traffic) and atomic
	// counters keep the driver's own bookkeeping off the measured path: a
	// global mutex here would contend on every op and share CPU with the
	// very daemon being measured. attempted and ambiguous stay under a
	// mutex — writes and failures are the rarer events.
	var mu sync.Mutex
	obsLogs := make([][]observation, cfg.goroutines)
	// Per-goroutine op latencies (retry-inclusive: first attempt to final
	// ack), folded and sorted after the traffic for the p50/p99 metrics the
	// admission-control cells gate on. Kept per-goroutine for the same
	// reason as obsLogs: no shared state on the measured path.
	latLogs := make([][]int64, cfg.goroutines)
	attempted := make([]map[uint64]bool, cfg.objects)
	for i := range attempted {
		attempted[i] = map[uint64]bool{0: true} // 0 is the initial value
	}
	ambiguous := make(map[ambiguousKey]bool)
	var reads, writes, audits, failedOps, retriedOps atomic.Uint64

	// The kill-and-restart watcher runs concurrently with the traffic:
	// once roughly a quarter of the cell's ops have completed (or a
	// deadline passes — the cell must never hang on an op count that will
	// not arrive), it SIGKILLs the daemon and restarts it from the same
	// data dir on the same address, while the workers' retries ride out
	// the outage through the redialing client pool.
	trafficDone := make(chan struct{})
	watcher := make(chan error, 1)
	// aborted tells the workers the daemon is not coming back (a failed
	// restart): abandon retries instead of grinding out per-op deadlines
	// against a dead server. The cell then fails fast with the restart
	// error.
	aborted := make(chan struct{})
	var kills uint64
	go func() {
		target := uint64(cfg.ops / 4)
		deadline := time.Now().Add(2 * time.Minute)
		for {
			select {
			case <-trafficDone:
				watcher <- nil
				return
			default:
			}
			done := reads.Load() + writes.Load() + audits.Load()
			if done >= target || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		curDaemon().kill9()
		nd, err := startDaemon(auditdBin, addr, dataDir, cfg.seed, m, tune)
		if err != nil {
			watcher <- fmt.Errorf("restart: %w", err)
			close(aborted)
			return
		}
		dmu.Lock()
		d = nd
		dmu.Unlock()
		kills = 1 // read only after the watcher channel synchronizes
		watcher <- nil
	}()

	mallocs0, bytes0 := memCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.seed) + int64(g)*7919))
			reader := g % m
			n := cfg.ops / cfg.goroutines
			if g < cfg.ops%cfg.goroutines {
				n++
			}
			obs := make([]observation, 0, n)
			lats := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				idx := rng.Intn(len(objs))
				roll := rng.Intn(100)
				isRead := false
				var wval uint64
				switch {
				case roll < cfg.writePct:
					wval = uint64(rng.Intn(1 << 20))
					mu.Lock()
					attempted[idx][wval] = true
					mu.Unlock()
				case roll < cfg.writePct+cfg.auditPct:
				default:
					isRead = true
				}
				failures := 0
				opStart := time.Now()
				deadline := opStart.Add(90 * time.Second)
				for {
					var err error
					var rval uint64
					switch {
					case roll < cfg.writePct:
						err = objs[idx].Write(wval)
					case roll < cfg.writePct+cfg.auditPct:
						_, err = auds[idx].Latest()
					default:
						rval, err = objs[idx].Read(reader)
					}
					if err == nil {
						switch {
						case roll < cfg.writePct:
							writes.Add(1)
						case roll < cfg.writePct+cfg.auditPct:
							audits.Add(1)
						default:
							obs = append(obs, observation{obj: idx, reader: reader, val: rval})
							reads.Add(1)
						}
						if failures > 0 {
							retriedOps.Add(1)
						}
						lats = append(lats, int64(time.Since(opStart)))
						break
					}
					failures++
					if failures == 1 {
						if isRead {
							// The server may have performed (and audited)
							// the fetch without the driver seeing the
							// value: the pair is ambiguous even if a retry
							// later succeeds.
							mu.Lock()
							ambiguous[ambiguousKey{obj: idx, reader: reader}] = true
							mu.Unlock()
						}
					}
					if time.Now().After(deadline) {
						failedOps.Add(1) // never completed: a genuinely lost op
						break
					}
					select {
					case <-aborted:
						failedOps.Add(1)
						return // the daemon is not coming back; fail the cell fast
					case <-time.After(25 * time.Millisecond): // daemon restarting
					}
				}
			}
			obsLogs[g] = obs
			latLogs[g] = lats
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	mallocs1, bytes1 := memCounters()
	close(trafficDone)
	if err := <-watcher; err != nil {
		return benchfmt.Result{}, err
	}

	// Fold and sort the latency logs; quantiles over completed ops.
	var lats []int64
	for _, l := range latLogs {
		lats = append(lats, l...)
	}
	slices.Sort(lats)
	quantile := func(q float64) int64 {
		if len(lats) == 0 {
			return 0
		}
		i := int(q * float64(len(lats)-1))
		return lats[i]
	}
	p50, p99 := quantile(0.50), quantile(0.99)

	// Fold the per-goroutine observation logs into per-object sets.
	observed := make(map[int]map[auditreg.Entry[uint64]]bool, cfg.objects)
	for i := range names {
		observed[i] = make(map[auditreg.Entry[uint64]]bool)
	}
	for _, obs := range obsLogs {
		for _, o := range obs {
			observed[o.obj][auditreg.Entry[uint64]{Reader: o.reader, Value: o.val}] = true
		}
	}

	// Verify end-to-end audit exactness across the crash.
	perm := rand.New(rand.NewSource(int64(cfg.seed))).Perm(len(names))
	if cfg.verify < len(perm) {
		perm = perm[:max(0, cfg.verify)]
	}
	checked := 0
	var pairs, ambiguousPairs uint64
	for _, i := range perm {
		rep, err := auds[i].Audit()
		if err != nil {
			return benchfmt.Result{}, fmt.Errorf("verify %s: %w", names[i], err)
		}
		entries := rep.Report.Entries()
		pairs += uint64(len(entries))
		got := make(map[auditreg.Entry[uint64]]bool, len(entries))
		for _, e := range entries {
			got[e] = true
			if observed[i][e] {
				continue
			}
			if !attempted[i][e.Value] {
				return benchfmt.Result{}, fmt.Errorf("verify %s: audited pair (%d, %#x) has a value no write ever attempted", names[i], e.Reader, e.Value)
			}
			if !ambiguous[ambiguousKey{obj: i, reader: e.Reader}] {
				return benchfmt.Result{}, fmt.Errorf("verify %s: audited pair (%d, %#x) was never observed and no read by that reader failed", names[i], e.Reader, e.Value)
			}
			ambiguousPairs++
		}
		for e := range observed[i] {
			if !got[e] {
				return benchfmt.Result{}, fmt.Errorf("verify %s: observed pair (%d, %#x) missing from the post-recovery audit — an acknowledged effective read was lost", names[i], e.Reader, e.Value)
			}
		}
		checked++
	}

	srvStats, err := statsMap(cl)
	if err != nil {
		return benchfmt.Result{}, err
	}
	// Scrape the per-stage latency breakdown off the (restarted) daemon's
	// metrics endpoint, then add the client's retry-inclusive RTT as one
	// more stage — the same trace, seen from both ends of the wire.
	stages, err := scrapeStages("http://" + tune.metricsAddr + "/metrics")
	if err != nil {
		return benchfmt.Result{}, fmt.Errorf("scrape stages: %w", err)
	}
	stages["client-rtt"] = rttStage(cl)
	if err := cl.Close(); err != nil {
		return benchfmt.Result{}, err
	}
	if err := curDaemon().terminate(); err != nil {
		return benchfmt.Result{}, fmt.Errorf("drain restarted daemon: %w", err)
	}
	dmu.Lock()
	d = nil
	dmu.Unlock()

	// Records-per-fsync mass beyond two records (every histogram bucket
	// above le-2), straight from the server's group-commit histogram: the
	// batching claim as a counter, not an inference.
	var bigBatchSyncs uint64
	for name, v := range srvStats {
		if strings.HasPrefix(name, "wal-sync-batch-") &&
			name != "wal-sync-batch-le-1" && name != "wal-sync-batch-le-2" {
			bigBatchSyncs += v
		}
	}

	totalOps := reads.Load() + writes.Load() + audits.Load()
	metrics, err := benchfmt.Metric(
		"ns/op", float64(elapsed.Nanoseconds())/float64(totalOps),
		"ops/s", float64(totalOps)/elapsed.Seconds(),
		"allocs/op", float64(mallocs1-mallocs0)/float64(totalOps),
		"bytes/op", float64(bytes1-bytes0)/float64(totalOps),
		"reads", reads.Load(),
		"writes", writes.Load(),
		"audit-lookups", audits.Load(),
		"failed-ops", failedOps.Load(),
		"retried-ops", retriedOps.Load(),
		"p50-ns", p50,
		"p99-ns", p99,
		"verified-objects", checked,
		"audited-pairs", pairs,
		"ambiguous-pairs", ambiguousPairs,
		"kills", kills,
		"conns", conns,
		"srv-wal-records", srvStats["wal-records"],
		"srv-wal-syncs", srvStats["wal-syncs"],
		"srv-wal-sync-batch-gt-2", bigBatchSyncs,
		"srv-conn-flushes", srvStats["conn-flushes"],
		"srv-conn-flushed-frames", srvStats["conn-flushed-frames"],
		"srv-shards", srvStats["shards"],
		"srv-shard-enqueues", srvStats["shard-enqueues"],
		"srv-shard-sheds", srvStats["shard-sheds"],
	)
	if err != nil {
		return benchfmt.Result{}, err
	}
	return benchfmt.Result{
		Name:    fmt.Sprintf("LoadgenDurable/objects=%d/goroutines=%d%s", cfg.objects, cfg.goroutines, tune.suffix()),
		Package: "auditreg/cmd/loadgen",
		Iters:   int64(totalOps),
		Metrics: metrics,
		Stages:  stages,
	}, nil
}
