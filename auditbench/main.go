// Command auditbench is auditreg's benchmark: one seeded program over three
// workloads (the local store, a durable auditd, a five-node cluster), each
// checked by one audit-exactness oracle. See README.md for how to run it.
//
//	auditbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	auditbench compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, measured in
// a run that switches span recording on and off in alternate slices.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported number with its unit and the count of samples
// it summarizes.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples uint64  `json:"samples"`
}

// result is the full record of one run, as --out writes it.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Env       envStamp          `json:"env"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("auditbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed of the op streams and keys")
	seconds := fs.Int("seconds", 10, "run length: the timed phase runs seconds times the workload's nominal rate of ops")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	out := fs.String("out", "", "append the full result as one JSON line to this file")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/traces/WORKLOAD-seedN.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "auditbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	root := os.Getenv("AUDITBENCH_ROOT")
	if root == "" {
		root = "."
	}
	build := filepath.Join(root, ".bench_build")
	work := filepath.Join(build, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "auditbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	res, spans, err := measure(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, work, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "auditbench: %s: %v\n", wl.name, err)
		return 1
	}
	res.Seconds = *seconds
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			err = writeSpans(path, spans, wl.layer)
		}
		if err != nil {
			fmt.Fprintln(stderr, "auditbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(spans), path)
	}
	if *out != "" {
		if err := appendJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "auditbench: write result:", err)
			return 1
		}
	}
	printResult(stdout, res, *trace == 1)
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// rounds is how many times one run sets the workload up afresh and runs
// its share of the op list. Throughput, CPU and median latencies are
// medians over the rounds, which keeps one disturbed round from moving
// them; every round starts from an empty history, so no round's audits
// scan more than a round's worth of it.
const rounds = 10

// roundOut is what one round measured: its callers' counts merged.
type roundOut struct {
	lat      [numOps]hist
	done     uint64
	failed   uint64
	fetched  uint64
	opsIn    [2]uint64 // ops run untraced and traced
	cl       clusterReadStats
	diff     layerSnap
	vr       verifyResult
	elapsed  time.Duration
	modeTime [2]time.Duration
	cpu      time.Duration
	setup    time.Duration
}

// measure runs the workload's rounds and derives every metric. Every round
// sets up fresh servers, stores and data directories, runs the same seeded
// op lists, and must pass the exactness oracle.
func measure(wl *workload, seed uint64, d time.Duration, traced bool, work string, log io.Writer) (*result, []span, error) {
	ops := genOps(wl, seed, wl.rate*int(d/time.Second)/rounds)
	env := &benchEnv{seed: seed, conns: runtime.NumCPU()}
	var ph *phases
	var tr *tracer
	var outs []roundOut
	var knobs map[string]any
	base := time.Now()
	if traced {
		ph = newPhases(func() int64 { return int64(time.Since(base)) })
		tr = newTracer(0, 0)
	}
	for k := 0; k < rounds; k++ {
		env.dataDir = filepath.Join(work, fmt.Sprintf("round-%d", k))
		if err := os.MkdirAll(env.dataDir, 0o755); err != nil {
			return nil, nil, err
		}
		keep := 0
		if k == 0 {
			keep = maxKeptSpans
		}
		out, kn, err := round(wl, env, ops, runLimit(d)/time.Duration(rounds), tr, keep, ph, log)
		if err != nil {
			return nil, nil, fmt.Errorf("round %d: %w", k+1, err)
		}
		os.RemoveAll(env.dataDir)
		outs, knobs = append(outs, out), kn
		runtime.GC()
	}
	res := &result{Workload: wl.name, Seed: seed, Trace: traced, Env: stampEnv(work, knobs), Metrics: map[string]metric{}}
	collect(res, wl, outs, tr)
	var spans []span
	if traced {
		printSelfTable(log, wl.name, selfTable(tr, wl.layer))
		printSelfTable(log, wl.name+" set-up and verification", selfTable(ph.t, wl.layer))
		spans = append(ph.t.spans, tr.spans...)
	}
	return res, spans, nil
}

// round sets the workload up, runs the op lists once (for at most limit),
// verifies the result and tears everything down. When tr is not nil the
// round is traced and its callers' spans are merged into tr.
func round(wl *workload, env *benchEnv, ops [][]uint32, limit time.Duration, tr *tracer, keepSpans int, ph *phases, log io.Writer) (out roundOut, knobs map[string]any, err error) {
	traced := tr != nil
	r := newRunCtx(wl, ops, traced, keepSpans)
	t0 := time.Now()
	end := ph.begin(kSetup)
	sys, err := wl.setup(env, r, ph)
	end()
	if err != nil {
		return out, nil, fmt.Errorf("set-up: %w", err)
	}
	out.setup = time.Since(t0)
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	before, err := sys.snapshot()
	if err != nil {
		return out, nil, fmt.Errorf("snapshot: %w", err)
	}
	cpu0 := cpuTime()
	var capped bool
	out.elapsed, out.modeTime, capped = timed(r, sys, limit, traced)
	out.cpu = cpuTime() - cpu0
	if capped {
		fmt.Fprintf(log, "timed phase stopped at its %v limit before the op lists were done\n", limit)
	}
	after, err := sys.snapshot()
	if err != nil {
		return out, nil, fmt.Errorf("snapshot: %w", err)
	}
	out.diff = after.sub(before)
	var wins []uint64
	var done uint64
	for _, c := range r.callers {
		for w, n := range c.winOps {
			for len(wins) <= w {
				wins = append(wins, 0)
			}
			wins[w] += n
			done += n
		}
		if c.firstErr != nil {
			fmt.Fprintf(log, "caller %d: %d failed ops, first: %v\n", c.id, c.failed, c.firstErr)
		}
	}
	fmt.Fprintf(log, "round: %.0f ops/s over %v; ops per %v window: %v\n",
		float64(done)/out.elapsed.Seconds(), out.elapsed.Round(time.Millisecond), window, wins)

	switch s := sys.(type) {
	case *auditdSys:
		knobs = serverKnobs(s.node)
	case *clusterSys:
		knobs = serverKnobs(s.nodes[0])
	default:
		knobs = map[string]any{"readers": readers, "pool": "default"}
	}
	out.vr, err = verify(r, sys, ph)
	if err != nil {
		return out, nil, fmt.Errorf("exactness oracle: %w", err)
	}
	fmt.Fprintf(log, "oracle: %d objects exact, %d audit pairs, %d stale-read pairs accepted\n", wl.objects, out.vr.pairs, out.vr.staleCharged)
	err = sys.close()
	sys = nil
	if err != nil {
		return out, nil, fmt.Errorf("close: %w", err)
	}
	for _, c := range r.callers {
		for k := range out.lat {
			out.lat[k].merge(&c.lat[k])
			out.done += c.done[k]
		}
		out.failed += c.failed
		out.fetched += c.fetched
		out.opsIn[0] += c.opsIn[0]
		out.opsIn[1] += c.opsIn[1]
		out.cl.add(c.cl)
		if traced {
			tr.merge(c.tr)
		}
	}
	return out, knobs, nil
}

// verifyResult carries what the oracle measured besides pass/fail.
type verifyResult struct {
	pairs, staleCharged int
	recovery            time.Duration
	recRecords          int
}

// verify runs the oracle once traffic has stopped: it reads each object's
// final value and checks it, then compares a fresh audit of every object
// with what the benchmark observed. The durable target then shuts its server
// down, reopens the data directory, and is checked again.
func verify(r *runCtx, sys system, ph *phases) (verifyResult, error) {
	defer ph.begin(kVerify)()
	wl := r.wl
	kinds := make([]objKind, wl.objects)
	for i := range kinds {
		kinds[i] = wl.kinds(i)
	}
	var vr verifyResult
	o, err := buildOracle(r, kinds, wl.stale)
	if err != nil {
		return vr, err
	}
	check := func() ([]uint64, error) {
		finals := make([]uint64, wl.objects)
		end := ph.begin(kVerifyRead)
		for obj := range finals {
			v, isRead, err := sys.final(obj)
			if err != nil {
				end()
				return nil, fmt.Errorf("final read of object %d: %w", obj, err)
			}
			if isRead {
				if err := o.observe(obj, 0, v); err != nil {
					end()
					return nil, err
				}
			}
			finals[obj] = v
		}
		end()
		for obj, v := range finals {
			if err := o.checkFinal(obj, v); err != nil {
				return nil, err
			}
		}
		defer ph.begin(kVerifyAudit)()
		vr.pairs, vr.staleCharged = 0, 0
		for obj := range finals {
			pairs, err := sys.freshAudit(obj)
			if err != nil {
				return nil, fmt.Errorf("audit of object %d: %w", obj, err)
			}
			n, err := o.checkAudit(obj, pairs)
			if err != nil {
				return nil, err
			}
			vr.pairs += len(pairs)
			vr.staleCharged += n
		}
		return finals, nil
	}
	finals, err := check()
	if err != nil {
		return vr, err
	}
	s, durable := sys.(*auditdSys)
	if !durable {
		return vr, nil
	}
	if err := s.reopen(ph); err != nil {
		return vr, err
	}
	vr.recovery, vr.recRecords = s.recovery, s.recRecords
	again, err := check()
	if err != nil {
		return vr, fmt.Errorf("after reopen: %w", err)
	}
	for obj := range finals {
		if again[obj] != finals[obj] {
			return vr, fmt.Errorf("after reopen: object %d holds %#x, held %#x before shutdown", obj, again[obj], finals[obj])
		}
	}
	return vr, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// printResult prints every metric by name with unit and sample count, then
// the one-line JSON result: end-to-end metrics, or per-layer ones when
// traced.
func printResult(w io.Writer, res *result, traced bool) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "workload %s seed %d: attempted %d failed %d\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-34s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	out := map[string]any{}
	for _, d := range want {
		m := res.Metrics[d.name]
		out[d.name] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

func appendJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runLimit bounds the timed phases of a run whose op lists were sized for
// d, so that a much slower build still finishes (and reports) in time.
func runLimit(d time.Duration) time.Duration { return min(4*d, 100*time.Second) }
