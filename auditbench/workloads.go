package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"auditreg"
	"auditreg/client"
	"auditreg/cluster"
	"auditreg/persist"
	"auditreg/server"
	"auditreg/store"
)

// system is one workload's target as the benchmark sees it: the three op
// kinds, and what verification needs.
type system interface {
	write(c *caller, obj int, v uint64) error
	read(c *caller, obj, reader int) (uint64, error)
	audit(c *caller, obj int) error
	// final returns obj's current value once traffic has stopped. read
	// reports whether it was obtained by a read (by reader 0), which the
	// oracle then counts as observed.
	final(obj int) (v uint64, read bool, err error)
	// freshAudit audits obj afresh and returns its (reader, value) pairs.
	freshAudit(obj int) ([]pair, error)
	// snapshot reads the layer counters cumulatively.
	snapshot() (layerSnap, error)
	close() error
}

// workload is one seeded traffic mix over one target.
type workload struct {
	name, why         string
	layer             string // the package whose objects the ops call
	objects, callers  int
	readPct, writePct int // the rest are audits
	zipf              float64
	rate              int // nominal ops/s: --seconds S runs rate*S ops
	kinds             func(obj int) objKind
	stale             bool // the cluster's stale-read rule applies
	setup             func(env *benchEnv, r *runCtx, ph *phases) (system, error)
}

// benchEnv is what set-up needs from the run: the seed, a fresh data
// directory per set-up, and the connection count per server.
type benchEnv struct {
	seed    uint64
	dataDir string
	conns   int
}

var workloads = []*workload{
	{
		name:    "store-zipf-read",
		layer:   "store",
		why:     "in-process store, 16384 objects under Zipf(1.1): Algorithms 1-2, pads, shard map and pool sweeps with no wire, server, disk or cluster code",
		objects: 16384, callers: 2, readPct: 80, writePct: 15, zipf: 1.1,
		rate:  850000,
		kinds: alternateKinds,
		setup: setupStore,
	},
	{
		name:    "auditd-durable-write",
		layer:   "client",
		why:     "one durable auditd on loopback (WAL synced every 50 ms), 64 objects, 16 callers, 50% writes: the WAL append and group-commit path; recovery is timed after a reopen",
		objects: 64, callers: 16, readPct: 45, writePct: 50,
		rate:  50000,
		kinds: alternateKinds,
		setup: setupAuditd,
	},
	{
		name:    "cluster-n5-mixed",
		layer:   "cluster",
		why:     "five volatile auditd nodes behind one dispersing client (n=5, f=1, k=3): fan-out, IDA split, verified decode and share pads, 5x wire traffic, no disk",
		objects: 64, callers: 8, readPct: 70, writePct: 28,
		rate:  10000,
		kinds: func(int) objKind { return kindRegister },
		stale: true,
		setup: setupCluster,
	},
}

func alternateKinds(obj int) objKind {
	if obj%2 == 1 {
		return kindMax
	}
	return kindRegister
}

func storeKind(k objKind) store.Kind {
	if k == kindMax {
		return store.MaxRegister
	}
	return store.Register
}

func objName(obj int) string { return fmt.Sprintf("bench/%05d", obj) }

func auditPairs(rep auditreg.Report[uint64]) []pair {
	es := rep.Entries()
	out := make([]pair, len(es))
	for i, e := range es {
		out[i] = pair{e.Reader, e.Value}
	}
	return out
}

// ---- store-zipf-read: the local store and its audit pool ----

type storeSys struct {
	st    *store.Store[uint64]
	pool  *store.AuditPool[uint64]
	objs  []*store.Object[uint64]
	names []string
}

func setupStore(env *benchEnv, r *runCtx, ph *phases) (system, error) {
	st, err := store.New[uint64](auditreg.KeyFromSeed(env.seed), store.WithLess[uint64](func(a, b uint64) bool { return a < b }))
	if err != nil {
		return nil, err
	}
	s := &storeSys{st: st}
	endOpen := ph.begin(kSetupOpen)
	for obj := 0; obj < r.wl.objects; obj++ {
		name := objName(obj)
		o, err := st.Open(name, storeKind(r.wl.kinds(obj)), store.WithObjectCapacity(historyCapacity(r.planned[obj], store.DefaultCapacity)))
		if err != nil {
			return nil, err
		}
		s.objs = append(s.objs, o)
		s.names = append(s.names, name)
	}
	if s.pool, err = st.NewAuditPool(); err != nil {
		return nil, err
	}
	endOpen()
	endWarm := ph.begin(kSetupWarmup)
	err = warmup(r, s)
	endWarm()
	if err != nil {
		return nil, err
	}
	return s, s.pool.Start()
}

func (s *storeSys) write(c *caller, obj int, v uint64) error {
	t := c.clock()
	err := s.objs[obj].Write(v)
	c.span(kStoreWrite, t)
	return err
}

func (s *storeSys) read(c *caller, obj, reader int) (uint64, error) {
	o := s.objs[obj]
	t := c.clock()
	v, seq, fetched, err := o.ReadFetch(reader)
	c.span(kStoreReadFetch, t)
	if err != nil || !fetched {
		return v, err
	}
	c.fetched++
	t = c.clock()
	// As in Object.Read, an announce failure is not the read's: the fetch
	// already took effect and is audited; announcing only helps.
	_ = o.Announce(reader, seq)
	c.span(kStoreAnnounce, t)
	return v, nil
}

func (s *storeSys) audit(c *caller, obj int) error {
	t := c.clock()
	_, err := s.pool.AuditObject(s.names[obj])
	c.span(kStoreAuditObject, t)
	return err
}

func (s *storeSys) final(obj int) (uint64, bool, error) {
	v, err := s.objs[obj].Read(0)
	return v, true, err
}

func (s *storeSys) freshAudit(obj int) ([]pair, error) {
	a, err := s.st.Audit(s.names[obj])
	if err != nil {
		return nil, err
	}
	return auditPairs(a.Report), nil
}

func (s *storeSys) snapshot() (layerSnap, error) {
	snap := newSnap()
	snap.counters["store.pool_audited"] = float64(s.pool.Audited())
	snap.counters["store.pool_sweeps"] = float64(s.pool.Sweeps())
	return snap, s.pool.Err()
}

func (s *storeSys) close() error {
	s.pool.Stop()
	return nil
}

// ---- servers on loopback, shared by the auditd and cluster targets ----

// node is one in-process auditd serving on a loopback listener.
type node struct {
	cfg   server.Config
	srv   *server.Server
	mux   http.Handler
	addr  string
	done  chan error
	stats *client.Client // STATS scrapes, outside the measured connections
}

func startNode(cfg server.Config, ph *phases, k spanKind) (*node, error) {
	end := ph.begin(k)
	srv, err := server.New(cfg)
	end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	n := &node{cfg: cfg, srv: srv, mux: srv.MetricsMux(), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

// scrape adds the node's counters and stage histograms to snap.
func (n *node) scrape(snap layerSnap) error {
	if n.stats == nil {
		c, err := client.Dial(n.addr, client.WithConns(1), client.WithNode(n.cfg.NodeID))
		if err != nil {
			return err
		}
		n.stats = c
	}
	return snap.addServer(n.mux, n.stats)
}

// stop shuts the server down and waits for Serve to return. Stopping a
// stopped node does nothing.
func (n *node) stop() error {
	if n.done == nil {
		return nil
	}
	defer func() { n.done = nil }()
	if n.stats != nil {
		n.stats.Close()
		n.stats = nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	if serr := <-n.done; serr != nil && !errors.Is(serr, net.ErrClosed) && err == nil {
		err = serr
	}
	return err
}

// serverKnobs reports the server settings in effect: all at their defaults
// except the durable server's fsync policy.
func serverKnobs(n *node) map[string]any {
	k := map[string]any{
		"readers":         store.DefaultReaders,
		"exec_shards":     pow2ceil(runtime.GOMAXPROCS(0)),
		"shard_queue":     "default",
		"pool_workers":    store.DefaultPoolWorkers,
		"pool_interval":   store.DefaultPoolInterval.String(),
		"object_capacity": store.DefaultCapacity,
	}
	if n != nil && n.stats != nil {
		if pairs, err := n.stats.Stats(); err == nil {
			for _, p := range pairs {
				switch p.Name {
				case "shards":
					k["exec_shards"] = p.Value
				case "shard-queue-cap":
					k["shard_queue"] = p.Value
				}
			}
		}
	}
	if n != nil && n.cfg.DataDir != "" {
		k["fsync"] = n.cfg.Fsync.String()
		if n.cfg.Fsync == persist.SyncInterval {
			k["fsync_interval"] = persist.DefaultInterval.String()
		}
		if rec := n.srv.Recovery(); rec != nil {
			k["wal_stripes"] = rec.Stripes
		}
		k["wal_batch_delay"] = persist.DefaultBatchDelay.String()
		k["wal_batch_bytes"] = persist.DefaultBatchBytes
	}
	return k
}

func pow2ceil(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ---- auditd-durable-write: one durable server, one client ----

type auditdSys struct {
	env   *benchEnv
	key   auditreg.Key
	node  *node
	wire  wireMeter
	cl    *client.Client
	objs  []*client.Object
	auds  []*client.Auditor
	kinds []store.Kind

	recovery   time.Duration
	recRecords int
}

func setupAuditd(env *benchEnv, r *runCtx, ph *phases) (system, error) {
	s := &auditdSys{env: env, key: auditreg.KeyFromSeed(env.seed)}
	for obj := 0; obj < r.wl.objects; obj++ {
		s.kinds = append(s.kinds, storeKind(r.wl.kinds(obj)))
	}
	var err error
	// The WAL syncs on an interval, not per commit: on the reference box the
	// disk's fsync rate swings threefold within seconds, and with fsync
	// always the throughput of two runs differed by up to 2.5 times.
	cfg := server.Config{Key: s.key, DataDir: filepath.Join(env.dataDir, "auditd"), Fsync: persist.SyncInterval}
	s.node, err = startNode(cfg, ph, kSetupServerNew)
	if err != nil {
		return nil, err
	}
	if err := s.connect(ph, kSetupDial, kSetupOpen); err != nil {
		s.close()
		return nil, err
	}
	end := ph.begin(kSetupWarmup)
	err = warmup(r, s)
	end()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// connect dials the client and opens every object and its auditor.
func (s *auditdSys) connect(ph *phases, dial, open spanKind) error {
	end := ph.begin(dial)
	cl, err := client.Dial(s.node.addr, client.WithConns(s.env.conns), client.WithKey(s.key), client.WithDialer(s.wire.dialer()))
	end()
	if err != nil {
		return err
	}
	s.cl = cl
	s.objs, s.auds = nil, nil
	end = ph.begin(open)
	defer end()
	for obj, k := range s.kinds {
		o, err := cl.Open(objName(obj), k)
		if err != nil {
			return err
		}
		a, err := o.Auditor()
		if err != nil {
			return err
		}
		s.objs = append(s.objs, o)
		s.auds = append(s.auds, a)
	}
	return nil
}

func (s *auditdSys) write(c *caller, obj int, v uint64) error {
	t := c.clock()
	err := s.objs[obj].Write(v)
	c.span(kClientWrite, t)
	return err
}

func (s *auditdSys) read(c *caller, obj, reader int) (uint64, error) {
	t := c.clock()
	v, err := s.objs[obj].Read(reader)
	c.span(kClientRead, t)
	return v, err
}

func (s *auditdSys) audit(c *caller, obj int) error {
	t := c.clock()
	_, err := s.auds[obj].Audit()
	c.span(kClientAudit, t)
	return err
}

func (s *auditdSys) final(obj int) (uint64, bool, error) {
	v, err := s.objs[obj].Read(0)
	return v, true, err
}

func (s *auditdSys) freshAudit(obj int) ([]pair, error) {
	a, err := s.auds[obj].Audit()
	if err != nil {
		return nil, err
	}
	return auditPairs(a.Report), nil
}

func (s *auditdSys) snapshot() (layerSnap, error) {
	snap := newSnap()
	s.wire.addTo(snap)
	snap.counters["persist.disk_bytes"] = float64(dirBytes(s.node.cfg.DataDir))
	return snap, s.node.scrape(snap)
}

// reopen shuts the server down and boots a new one on the same data
// directory, timing the boot (which runs recovery), then reconnects.
func (s *auditdSys) reopen(ph *phases) error {
	s.cl.Close()
	end := ph.begin(kVerifyShutdown)
	err := s.node.stop()
	end()
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	t0 := time.Now()
	n, err := startNode(s.node.cfg, ph, kVerifyReopen)
	s.recovery = time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	s.node = n
	if rec := n.srv.Recovery(); rec != nil {
		s.recRecords = rec.Records
	}
	return s.connect(ph, kVerifyDial, kVerifyOpen)
}

func (s *auditdSys) close() error {
	if s.cl != nil {
		s.cl.Close()
	}
	return s.node.stop()
}

// dirBytes is the apparent size of every file under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

// ---- cluster-n5-mixed: five volatile nodes, one dispersing client ----

const clusterN, clusterF = 5, 1

type clusterSys struct {
	nodes []*node
	wire  wireMeter
	cl    *cluster.Client
	objs  []*cluster.Object
}

func setupCluster(env *benchEnv, r *runCtx, ph *phases) (system, error) {
	s := &clusterSys{}
	addrs := make([]string, clusterN)
	for i := 0; i < clusterN; i++ {
		n, err := startNode(server.Config{Key: auditreg.KeyFromSeed(env.seed + uint64(i) + 1), NodeID: uint32(i + 1)}, ph, kSetupServerNew)
		if err != nil {
			s.close()
			return nil, err
		}
		s.nodes = append(s.nodes, n)
		addrs[i] = n.addr
	}
	m := cluster.SeededMembership(addrs, clusterF, env.seed)
	end := ph.begin(kSetupDial)
	cl, err := cluster.Dial(m, cluster.WithClientOptions(func(cluster.Node) []client.Option {
		return []client.Option{client.WithConns(1), client.WithDialer(s.wire.dialer())}
	}))
	end()
	if err != nil {
		s.close()
		return nil, err
	}
	s.cl = cl
	end = ph.begin(kSetupOpen)
	for obj := 0; obj < r.wl.objects; obj++ {
		o, err := cl.Open(objName(obj))
		if err != nil {
			end()
			s.close()
			return nil, err
		}
		s.objs = append(s.objs, o)
	}
	end()
	end = ph.begin(kSetupWarmup)
	err = warmup(r, s)
	end()
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *clusterSys) write(c *caller, obj int, v uint64) error {
	t := c.clock()
	err := s.objs[obj].Write(v)
	c.span(kClusterWrite, t)
	return err
}

func (s *clusterSys) read(c *caller, obj, reader int) (uint64, error) {
	t := c.clock()
	v, tr, err := s.objs[obj].ReadTraced(reader)
	c.span(kClusterRead, t)
	if err == nil {
		c.cl.reads++
		c.cl.responded += uint64(tr.Responded)
		c.cl.retries += uint64(tr.Retries)
		if tr.Stale {
			c.cl.stale++
		}
	}
	return v, err
}

func (s *clusterSys) audit(c *caller, obj int) error {
	t := c.clock()
	m, err := s.objs[obj].Audit()
	c.span(kClusterAudit, t)
	if err == nil {
		c.cl.audits++
		c.cl.undecided += uint64(len(m.Undecided))
	}
	return err
}

func (s *clusterSys) final(obj int) (uint64, bool, error) {
	v, err := s.objs[obj].Read(0)
	return v, true, err
}

// freshAudit merges all n node audits; exactness is claimed only relative
// to a merge that covers every node.
func (s *clusterSys) freshAudit(obj int) ([]pair, error) {
	m, err := s.objs[obj].Audit()
	if err != nil {
		return nil, err
	}
	if m.Nodes != clusterN || len(m.Corrupted) != 0 {
		return nil, fmt.Errorf("merged audit of %s covers %d of %d nodes, corrupted %v", objName(obj), m.Nodes, clusterN, m.Corrupted)
	}
	return auditPairs(m.Report), nil
}

func (s *clusterSys) snapshot() (layerSnap, error) {
	snap := newSnap()
	s.wire.addTo(snap)
	ctr := s.cl.Counters()
	snap.counters["cluster.verified_decodes"] = float64(ctr.VerifiedDecodes)
	snap.counters["cluster.consensus_decodes"] = float64(ctr.ConsensusDecodes)
	for _, n := range s.nodes {
		if err := n.scrape(snap); err != nil {
			return snap, err
		}
	}
	return snap, nil
}

func (s *clusterSys) close() error {
	if s.cl != nil {
		s.cl.Close()
	}
	var first error
	for _, n := range s.nodes {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
