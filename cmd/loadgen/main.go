// Command loadgen drives mixed read/write/audit traffic against the sharded
// multi-object store (package auditreg/store): N named objects, P client
// goroutines, and a background audit pool sweeping the shards. It measures
// multi-object scaling — the dimension the per-object benchmarks of
// cmd/benchjson cannot see — and writes results in the same BENCH_*.json
// schema (internal/benchfmt), so workload numbers join the perf trajectory
// alongside benchmark numbers. See EXPERIMENTS.md (series E12 local, E13
// remote) for the methodology.
//
// Usage:
//
//	go run ./cmd/loadgen                                        # default grid, text summary
//	go run ./cmd/loadgen -objects 64,1024 -goroutines 1,8 -out BENCH_2.json
//	go run -race ./cmd/loadgen -objects 1024 -goroutines 8      # correctness soak
//	go run ./cmd/loadgen -remote 127.0.0.1:7433 -out BENCH_3.json
//
// Each (objects, goroutines) grid cell runs -ops operations split across the
// goroutines: reads (and snapshot scans), writes (and snapshot component
// updates), and audit-report lookups against the pool, in the proportions of
// -writepct and -auditpct. After the traffic quiesces, the pool is flushed
// and -verify objects are checked against a fresh synchronous per-object
// audit — the driver doubles as an end-to-end equivalence check of the
// batched audit pipeline.
//
// With -remote addr the same grid drives a live auditd daemon (cmd/auditd,
// started with the same -seed) through the wire client instead of a local
// store: objects are registers and max registers (snapshots are not
// remotable), reads flow through the fetch/announce verb pair, audit
// lookups hit the server's pool, and -verify checks that a fresh audit over
// the wire equals, exactly, the set of (reader, value) pairs the driver
// observed — end-to-end audit exactness across the network.
//
// With -durable (series E14/E16) loadgen owns the daemon's whole life
// cycle: it spawns the auditd binary named by -auditd with a per-cell
// -data-dir and -fsync always, SIGKILLs it once roughly a quarter of the
// cell's operations have completed, restarts it from the same directory on
// the same address while the workers retry their failed ops through the
// same client pool (which redials and drops its silent-read caches on the
// new boot epoch), and -verify-checks audit exactness across the crash:
// every acknowledged effective read must appear in the post-recovery
// audit, and every audited pair must be observed or attributable to a read
// that failed on that (object, reader). failed-ops counts ops that never
// completed (expected 0); retried-ops the ops whose first ack the kill
// lost.
//
// With -cluster (series E19) loadgen spawns a whole dispersal cluster:
// -cluster-n durable auditd nodes with positional -node-id identities, a
// cluster client (package auditreg/cluster) splitting every write into
// per-node masked IDA shares, one node SIGKILLed mid-cell and restarted
// from its own WAL after a degraded stretch. The cell fails unless every
// op completes (zero lost acked ops) and the end-of-cell merged audit is
// exact on both sides of the kill: every acknowledged cluster read appears
// in the merge, and every merged pair traces to a reader that actually
// fetched shares on that object.
//
// With -cluster -chaos (series E20) the same cluster runs behind an
// in-process netsim fabric and is walked through four fault phases —
// kill+restart, partition+heal, a hung node (hour-long link delay,
// bounded by the client request timeout), and a Byzantine node restarted
// with -corrupt-shares — while workers sustain traffic. The cell fails on
// any wrong read, any op missing its retry deadline, a corruptor that
// goes undetected (ReadTrace.Corrupted, client quarantine, and the node's
// own STATS confession are all required) or mislabeled, a quarantine that
// fails to lift after an honest restart, or a merged audit that is
// inexact or reports journal corruption.
//
// -cpuprofile/-memprofile write driver-side pprof profiles; -baseline
// gates a run against a checked-in BENCH_*.json, failing beyond
// -max-regress-pct ops/s regression (the CI bench-smoke job).
//
//	go build -o /tmp/auditd ./cmd/auditd
//	go run ./cmd/loadgen -durable -auditd /tmp/auditd -objects 64 -goroutines 8 -conns 1 -out BENCH_5.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auditreg"
	"auditreg/internal/benchfmt"
	"auditreg/store"
)

func main() {
	objectsFlag := flag.String("objects", "64,1024", "comma-separated object counts (grid axis)")
	goroutinesFlag := flag.String("goroutines", "1,8", "comma-separated client goroutine counts (grid axis)")
	ops := flag.Int("ops", 200000, "total operations per grid cell")
	writePct := flag.Int("writepct", 25, "percent of operations that write")
	auditPct := flag.Int("auditpct", 5, "percent of operations that fetch the pool's audit report")
	readers := flag.Int("readers", 0, "reader principals per object (0: min(goroutines, 64))")
	components := flag.Int("components", 4, "components per snapshot object")
	poolWorkers := flag.Int("poolworkers", 4, "audit pool worker goroutines")
	poolInterval := flag.Duration("poolinterval", 2*time.Millisecond, "audit pool sweep interval")
	verify := flag.Int("verify", 64, "objects per cell to check against a fresh synchronous audit (0: none)")
	seed := flag.Uint64("seed", 1, "base seed for keys, nonces, and traffic")
	out := flag.String("out", "", "write results as BENCH_*.json to this file")
	remote := flag.String("remote", "", "drive a live auditd at this address instead of a local store (E13)")
	metricsURL := flag.String("metrics-url", "", "the remote daemon's metrics endpoint (http://host:port/metrics); scraped at cell end for the per-stage latency breakdown in -remote mode")
	conns := flag.Int("conns", 4, "client connection pool size in -remote mode")
	durable := flag.Bool("durable", false, "durability mode (E14/E16): spawn auditd with a data dir, kill -9 it mid-cell, restart, verify audit exactness")
	clusterMode := flag.Bool("cluster", false, "dispersal-cluster mode (E19): spawn -cluster-n durable auditd nodes, kill -9 one mid-cell, restart it, verify merged audit exactness")
	clusterN := flag.Int("cluster-n", 5, "cluster node count in -cluster mode (needs n >= 2f+2)")
	clusterF := flag.Int("cluster-f", 1, "cluster crash-fault budget in -cluster mode")
	chaos := flag.Bool("chaos", false, "fault-injection mode (E20, with -cluster): cycle crash, partition, hang, and Byzantine faults through a netsim fabric, asserting zero wrong reads, zero lost acked ops, corruptor detection, and bounded latency")
	auditdBin := flag.String("auditd", "", "path to a prebuilt auditd binary (required with -durable and -cluster)")
	dataDir := flag.String("data-dir", "", "base directory for -durable data dirs (default: a temp dir)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole grid to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	walBatchDelay := flag.Duration("wal-batch-delay", 0, "forwarded to spawned auditd daemons in -durable mode (0: daemon default)")
	shards := flag.Int("shards", 0, "auditd shard executors, forwarded in -durable mode (0: daemon default, GOMAXPROCS)")
	shardQueue := flag.Int("shard-queue", 0, "auditd per-executor queue depth, forwarded in -durable mode (0: daemon default)")
	baseline := flag.String("baseline", "", "BENCH_*.json to gate against: fail on ops/s regression beyond -max-regress-pct")
	maxRegress := flag.Float64("max-regress-pct", 20, "largest tolerated ops/s regression vs -baseline, in percent")
	flag.Parse()

	objectCounts, err := parseInts(*objectsFlag)
	if err != nil {
		fatalf("bad -objects: %v", err)
	}
	goroutineCounts, err := parseInts(*goroutinesFlag)
	if err != nil {
		fatalf("bad -goroutines: %v", err)
	}
	if *writePct < 0 || *auditPct < 0 || *writePct+*auditPct > 100 {
		fatalf("-writepct + -auditpct must fit in [0, 100]")
	}
	if *durable || *clusterMode {
		if *auditdBin == "" {
			fatalf("spawning modes need -auditd (path to a prebuilt auditd binary)")
		}
		if *dataDir == "" {
			dir, err := os.MkdirTemp("", "loadgen-durable-*")
			if err != nil {
				fatalf("%v", err)
			}
			defer os.RemoveAll(dir)
			*dataDir = dir
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("%v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fatalf("memprofile: %v", err)
			}
		}()
	}

	var results []benchfmt.Result
	for _, n := range objectCounts {
		for _, p := range goroutineCounts {
			cfg := cellConfig{
				objects: n, goroutines: p, ops: *ops,
				writePct: *writePct, auditPct: *auditPct,
				readers: *readers, components: *components,
				poolWorkers: *poolWorkers, poolInterval: *poolInterval,
				verify: *verify, seed: *seed,
			}
			var res benchfmt.Result
			var err error
			switch {
			case *clusterMode && *chaos:
				res, err = runChaosCell(cfg, *auditdBin, *dataDir, *conns, *clusterN, *clusterF)
			case *clusterMode:
				res, err = runClusterCell(cfg, *auditdBin, *dataDir, *conns, *clusterN, *clusterF)
			case *durable:
				res, err = runDurableCell(cfg, *auditdBin, *dataDir, *conns, daemonTuning{
					walBatchDelay: *walBatchDelay,
					shards:        *shards,
					shardQueue:    *shardQueue,
				})
			case *remote != "":
				res, err = runRemoteCell(cfg, *remote, *conns, *metricsURL)
			default:
				res, err = runCell(cfg)
			}
			if err != nil {
				fatalf("objects=%d goroutines=%d: %v", n, p, err)
			}
			results = append(results, res)
			fmt.Printf("%-44s %10.0f ns/op %12.0f ops/s  reads=%.0f writes=%.0f audits=%.0f pool-audits=%.0f pairs=%.0f\n",
				res.Name, res.Metrics["ns/op"], res.Metrics["ops/s"],
				res.Metrics["reads"], res.Metrics["writes"], res.Metrics["audit-lookups"],
				res.Metrics["pool-audits"], res.Metrics["audited-pairs"])
		}
	}

	if *baseline != "" {
		if err := checkBaseline(results, *baseline, *maxRegress); err != nil {
			pprof.StopCPUProfile() // flush before the hard exit
			fatalf("%v", err)
		}
		fmt.Printf("loadgen: within %.0f%% of baseline %s\n", *maxRegress, *baseline)
	}

	if *out != "" {
		series := "Loadgen"
		switch {
		case *clusterMode && *chaos:
			series = "LoadgenChaos"
		case *clusterMode:
			series = "LoadgenCluster"
		case *durable:
			series = "LoadgenDurable"
		case *remote != "":
			series = "LoadgenRemote"
		}
		rep := benchfmt.NewReport(
			fmt.Sprintf("%s/objects=%s/goroutines=%s", series, *objectsFlag, *goroutinesFlag),
			fmt.Sprintf("%dx", *ops), 1, []string{"auditreg/cmd/loadgen"})
		rep.Results = results
		if err := rep.WriteFile(*out); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("loadgen: %d configurations -> %s\n", len(results), *out)
	}
}

// checkBaseline compares each result's ops/s against the same-named result
// of a checked-in baseline report, failing on a regression beyond
// maxRegressPct. Results absent from the baseline pass (new cells enter the
// trajectory freely), but at least one must match — a gate that compares
// nothing protects nothing. Cross-machine caveat: BENCH numbers are
// comparable only on similar hardware; the CI gate pairs this with a wide
// tolerance.
func checkBaseline(results []benchfmt.Result, path string, maxRegressPct float64) error {
	rep, err := benchfmt.ReadFile(path)
	if err != nil {
		return err
	}
	base := make(map[string]float64, len(rep.Results))
	for _, r := range rep.Results {
		if v, ok := r.Metrics["ops/s"]; ok {
			base[r.Name] = v
		}
	}
	matched := 0
	for _, r := range results {
		want, ok := base[r.Name]
		if !ok {
			continue
		}
		matched++
		got := r.Metrics["ops/s"]
		floor := want * (1 - maxRegressPct/100)
		if got < floor {
			return fmt.Errorf("%s: %.0f ops/s is a >%.0f%% regression vs baseline %.0f (floor %.0f)",
				r.Name, got, maxRegressPct, want, floor)
		}
	}
	if matched == 0 {
		return fmt.Errorf("baseline %s shares no result names with this run", path)
	}
	return nil
}

// memCounters snapshots the runtime allocation counters behind the
// client-side allocs/op and bytes/op metrics of every cell.
func memCounters() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

type cellConfig struct {
	objects, goroutines, ops int
	writePct, auditPct       int
	readers, components      int
	poolWorkers              int
	poolInterval             time.Duration
	verify                   int
	seed                     uint64
}

var kinds = []store.Kind{store.Register, store.MaxRegister, store.Snapshot}

// runCell builds a fresh store, opens the objects, runs the traffic, flushes
// the pool, verifies a sample, and folds the counters into one Result.
func runCell(cfg cellConfig) (benchfmt.Result, error) {
	m := cfg.readers
	if m == 0 {
		m = cfg.goroutines
		if m > auditreg.MaxReaders {
			m = auditreg.MaxReaders
		}
	}
	st, err := store.New[uint64](auditreg.KeyFromSeed(cfg.seed),
		store.WithReaders[uint64](m),
		store.WithLess[uint64](func(a, b uint64) bool { return a < b }),
		store.WithComponents[uint64](cfg.components),
		store.WithNonces[uint64](func(id uint64) auditreg.NonceSource {
			return auditreg.NewSeededNonces(cfg.seed+id, uint8(id))
		}),
	)
	if err != nil {
		return benchfmt.Result{}, err
	}

	names := make([]string, cfg.objects)
	for i := range names {
		kind := kinds[i%len(kinds)]
		names[i] = fmt.Sprintf("%v-%05d", kind, i)
		if _, err := st.Open(names[i], kind); err != nil {
			return benchfmt.Result{}, err
		}
	}

	pool, err := st.NewAuditPool(store.WithPoolWorkers(cfg.poolWorkers), store.WithPoolInterval(cfg.poolInterval))
	if err != nil {
		return benchfmt.Result{}, err
	}
	if err := pool.Start(); err != nil {
		return benchfmt.Result{}, err
	}

	var reads, writes, audits atomic.Uint64
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, &err)
	}

	mallocs0, bytes0 := memCounters()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < cfg.goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(cfg.seed) + int64(g)*7919))
			reader := g % m
			n := cfg.ops / cfg.goroutines
			if g < cfg.ops%cfg.goroutines {
				n++
			}
			for i := 0; i < n; i++ {
				name := names[rng.Intn(len(names))]
				obj, _ := st.Lookup(name)
				switch roll := rng.Intn(100); {
				case roll < cfg.writePct:
					v := uint64(rng.Intn(1 << 20))
					var err error
					if obj.Kind() == store.Snapshot {
						err = obj.UpdateAt(rng.Intn(obj.Components()), v)
					} else {
						err = obj.Write(v)
					}
					if err != nil {
						fail(err)
						return
					}
					writes.Add(1)
				case roll < cfg.writePct+cfg.auditPct:
					pool.Report(name) // lock-free latest report; absent early on
					audits.Add(1)
				default:
					var err error
					if obj.Kind() == store.Snapshot {
						_, err = obj.Scan(reader)
					} else {
						_, err = obj.Read(reader)
					}
					if err != nil {
						fail(err)
						return
					}
					reads.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	mallocs1, bytes1 := memCounters()
	pool.Stop()

	if errp := firstErr.Load(); errp != nil {
		return benchfmt.Result{}, *errp
	}
	if err := pool.Flush(); err != nil {
		return benchfmt.Result{}, err
	}
	if err := pool.Err(); err != nil {
		return benchfmt.Result{}, err
	}

	// Equivalence check: the pool's batched report must equal a fresh
	// synchronous per-object audit on a deterministic sample. The sample is
	// a seeded shuffle, not a stride — a stride that is a multiple of
	// len(kinds) would align with the round-robin kind assignment and only
	// ever verify one kind.
	perm := rand.New(rand.NewSource(int64(cfg.seed))).Perm(len(names))
	if cfg.verify < len(perm) {
		perm = perm[:max(0, cfg.verify)]
	}
	checked := 0
	for _, i := range perm {
		name := names[i]
		ground, err := st.Audit(name)
		if err != nil {
			return benchfmt.Result{}, err
		}
		rep, ok := pool.Report(name)
		if !ok {
			return benchfmt.Result{}, fmt.Errorf("pool has no report for %s", name)
		}
		if !rep.Same(ground) {
			return benchfmt.Result{}, fmt.Errorf("pool report for %s (%d pairs) != synchronous audit (%d pairs)",
				name, rep.Len(), ground.Len())
		}
		checked++
	}

	var pairs uint64
	for _, aud := range pool.Merged() {
		pairs += uint64(aud.Len())
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
		"pool-audits", pool.Audited(),
		"pool-sweeps", pool.Sweeps(),
		"audited-pairs", pairs,
		"verified-objects", checked,
	)
	if err != nil {
		return benchfmt.Result{}, err
	}
	return benchfmt.Result{
		Name:    fmt.Sprintf("Loadgen/objects=%d/goroutines=%d", cfg.objects, cfg.goroutines),
		Package: "auditreg/cmd/loadgen",
		Iters:   int64(totalOps),
		Metrics: metrics,
	}, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("counts must be positive, got %d", n)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
