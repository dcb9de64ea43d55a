package main

// metricDef is one metric the JSON result line carries.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of auditreg sees; --trace 0 reports them.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"cpu_us_per_op", "us"},
	{"write_p50_us", "us"},
	{"read_p50_us", "us"},
	{"audit_p50_us", "us"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the single-layer metrics --trace 1 reports. A layer a
// workload does not run reports 0. The p99 latencies are here rather than
// end to end because their run-to-run spread on the reference box exceeds
// a tenth.
var perLayer = []metricDef{
	{"write_p99_us", "us"},
	{"read_p99_us", "us"},
	{"audit_p99_us", "us"},
	{"error_rate", "ratio"},
	{"recovery_s", "s"},
	{"disk_bytes_per_write", "B"},
	{"store.write_p50_ns", "ns"},
	{"store.write_p99_ns", "ns"},
	{"store.readfetch_p50_ns", "ns"},
	{"store.readfetch_p99_ns", "ns"},
	{"store.announce_p50_ns", "ns"},
	{"store.auditobject_p50_ns", "ns"},
	{"store.auditobject_p99_ns", "ns"},
	{"store.fetch_ratio", "ratio"},
	{"store.pool_audited_per_s", "1/s"},
	{"store.pool_sweeps_per_s", "1/s"},
	{"wire.bytes_out_per_op", "B"},
	{"wire.bytes_in_per_op", "B"},
	{"wire.conn_writes_per_op", "count"},
	{"server.conn-decode_p50_ns", "ns"},
	{"server.store-op_p50_ns", "ns"},
	{"server.store-op_p99_ns", "ns"},
	{"server.conn-flush_p50_ns", "ns"},
	{"server.exec-queue-wait_p50_ns", "ns"},
	{"server.exec-queue-wait_p99_ns", "ns"},
	{"server.completion_p99_ns", "ns"},
	{"server.frames_per_flush", "count"},
	{"server.shed_ratio", "ratio"},
	{"server.fetch_ratio", "ratio"},
	{"persist.records_per_sync", "count"},
	{"persist.syncs_per_s", "1/s"},
	{"persist.wal-commit-wait_p50_ns", "ns"},
	{"persist.wal-commit-wait_p99_ns", "ns"},
	{"persist.wal-fsync_p50_ns", "ns"},
	{"persist.wal-fsync_p99_ns", "ns"},
	{"persist.bytes_per_record", "B"},
	{"persist.recover_records_per_s", "1/s"},
	{"cluster.verified_decodes_per_read", "count"},
	{"cluster.shares_per_read", "count"},
	{"cluster.read_retry_ratio", "ratio"},
	{"cluster.stale_read_ratio", "ratio"},
	{"cluster.audit_undecided_pairs", "count"},
	{"cluster.consensus_decodes", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"self.bench_ns_per_op", "ns"},
	{"self.store_ns_per_op", "ns"},
	{"self.client_ns_per_op", "ns"},
	{"self.cluster_ns_per_op", "ns"},
}

// collect derives every metric of one run into res: throughput, CPU and
// median latencies as medians over the rounds, everything else from the
// rounds pooled.
func collect(res *result, wl *workload, outs []roundOut, tr *tracer) {
	put := func(name, unit string, v float64, n uint64) { res.Metrics[name] = metric{v, unit, n} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	// Pool the rounds; keep each round's end-to-end readings.
	var lat [numOps]hist
	var ops, failed, fetched, plainOps, tracedOps uint64
	var cl clusterReadStats
	var secs, plainSecs, tracedSecs, recSecs float64
	var recRecords int
	d := newSnap()
	perRound := map[string][]float64{}
	var setups, recoveries []float64
	for _, o := range outs {
		for k := range lat {
			lat[k].merge(&o.lat[k])
		}
		ops += o.done
		failed += o.failed
		fetched += o.fetched
		plainOps += o.opsIn[0]
		tracedOps += o.opsIn[1]
		cl.add(o.cl)
		secs += o.elapsed.Seconds()
		plainSecs += o.modeTime[0].Seconds()
		tracedSecs += o.modeTime[1].Seconds()
		d.add(o.diff)
		setups = append(setups, o.setup.Seconds())
		if o.vr.recovery > 0 {
			recoveries = append(recoveries, o.vr.recovery.Seconds())
			recSecs += o.vr.recovery.Seconds()
			recRecords += o.vr.recRecords
		}
		perRound["throughput_ops_s"] = append(perRound["throughput_ops_s"], float64(o.done)/o.elapsed.Seconds())
		perRound["cpu_us_per_op"] = append(perRound["cpu_us_per_op"], ratio(float64(o.cpu.Microseconds()), float64(o.done)))
		for k, n := range opNames {
			perRound[n+"_p50_us"] = append(perRound[n+"_p50_us"], o.lat[k].quantile(0.50)/1e3)
		}
	}
	res.Attempted = ops + failed
	res.Failed = failed
	c := d.counters

	// End to end.
	put("throughput_ops_s", "1/s", median(perRound["throughput_ops_s"]), ops)
	put("cpu_us_per_op", "us", median(perRound["cpu_us_per_op"]), ops)
	for k, n := range opNames {
		put(n+"_p50_us", "us", median(perRound[n+"_p50_us"]), lat[k].n)
		// One round holds too few samples past its 99th percentile, so
		// p99s are taken over every round's samples pooled.
		put(n+"_p99_us", "us", lat[k].quantile(0.99)/1e3, lat[k].n)
	}
	put("setup_s", "s", median(setups), uint64(len(setups)))
	put("peak_rss_mb", "MiB", peakRSSMB(), 1)

	// Per layer.
	put("error_rate", "ratio", ratio(float64(failed), float64(res.Attempted)), res.Attempted)
	if len(recoveries) > 0 {
		put("recovery_s", "s", median(recoveries), uint64(len(recoveries)))
	} else {
		put("recovery_s", "s", 0, 0)
	}
	put("disk_bytes_per_write", "B", ratio(c["persist.disk_bytes"], float64(lat[opWrite].n)), lat[opWrite].n)

	spanQ := func(name string, k spanKind, q float64) {
		if tr == nil {
			put(name, "ns", 0, 0)
			return
		}
		put(name, "ns", tr.lat[k].quantile(q), tr.lat[k].n)
	}
	spanQ("store.write_p50_ns", kStoreWrite, 0.50)
	spanQ("store.write_p99_ns", kStoreWrite, 0.99)
	spanQ("store.readfetch_p50_ns", kStoreReadFetch, 0.50)
	spanQ("store.readfetch_p99_ns", kStoreReadFetch, 0.99)
	spanQ("store.announce_p50_ns", kStoreAnnounce, 0.50)
	spanQ("store.auditobject_p50_ns", kStoreAuditObject, 0.50)
	spanQ("store.auditobject_p99_ns", kStoreAuditObject, 0.99)
	put("store.fetch_ratio", "ratio", ratio(float64(fetched), float64(lat[opRead].n)), lat[opRead].n)
	// The pool runs inside every server too; its counters come from STATS.
	put("store.pool_audited_per_s", "1/s", (c["store.pool_audited"]+c["server.pool-audits"])/secs, uint64(len(outs)))
	put("store.pool_sweeps_per_s", "1/s", (c["store.pool_sweeps"]+c["server.pool-sweeps"])/secs, uint64(len(outs)))

	put("wire.bytes_out_per_op", "B", ratio(c["wire.bytes_out"], float64(ops)), ops)
	put("wire.bytes_in_per_op", "B", ratio(c["wire.bytes_in"], float64(ops)), ops)
	put("wire.conn_writes_per_op", "count", ratio(c["wire.conn_writes"], float64(ops)), ops)

	stage := func(name, st string, q float64) {
		b := d.stages[st]
		put(name, "ns", stageQuantile(b, q), uint64(stageCount(b)))
	}
	stage("server.conn-decode_p50_ns", "conn-decode", 0.50)
	stage("server.store-op_p50_ns", "store-op", 0.50)
	stage("server.store-op_p99_ns", "store-op", 0.99)
	stage("server.conn-flush_p50_ns", "conn-flush", 0.50)
	stage("server.exec-queue-wait_p50_ns", "exec-queue-wait", 0.50)
	stage("server.exec-queue-wait_p99_ns", "exec-queue-wait", 0.99)
	stage("server.completion_p99_ns", "completion", 0.99)
	put("server.frames_per_flush", "count", ratio(c["server.conn-flushed-frames"], c["server.conn-flushes"]), uint64(c["server.conn-flushes"]))
	put("server.shed_ratio", "ratio", ratio(c["server.shard-sheds"], c["server.shard-enqueues"]), uint64(c["server.shard-enqueues"]))
	fetches := c["server.reads-fetched"] + c["server.share-fetches"]
	silent := c["server.reads-silent"] + c["server.share-silent"]
	put("server.fetch_ratio", "ratio", ratio(fetches, fetches+silent), uint64(fetches+silent))

	put("persist.records_per_sync", "count", ratio(c["server.wal-records"], c["server.wal-syncs"]), uint64(c["server.wal-syncs"]))
	put("persist.syncs_per_s", "1/s", c["server.wal-syncs"]/secs, uint64(c["server.wal-syncs"]))
	stage("persist.wal-commit-wait_p50_ns", "wal-commit-wait", 0.50)
	stage("persist.wal-commit-wait_p99_ns", "wal-commit-wait", 0.99)
	stage("persist.wal-fsync_p50_ns", "wal-fsync", 0.50)
	stage("persist.wal-fsync_p99_ns", "wal-fsync", 0.99)
	put("persist.bytes_per_record", "B", ratio(c["server.wal-bytes"], c["server.wal-records"]), uint64(c["server.wal-records"]))
	put("persist.recover_records_per_s", "1/s", ratio(float64(recRecords), recSecs), uint64(recRecords))

	cr := float64(cl.reads)
	put("cluster.verified_decodes_per_read", "count", ratio(c["cluster.verified_decodes"], cr), cl.reads)
	put("cluster.shares_per_read", "count", ratio(float64(cl.responded), cr), cl.reads)
	put("cluster.read_retry_ratio", "ratio", ratio(float64(cl.retries), cr), cl.reads)
	put("cluster.stale_read_ratio", "ratio", ratio(float64(cl.stale), cr), cl.reads)
	put("cluster.audit_undecided_pairs", "count", float64(cl.undecided), cl.audits)
	put("cluster.consensus_decodes", "count", c["cluster.consensus_decodes"], cl.reads)

	overhead, selfPerOp := 0.0, map[string]float64{}
	var tracedCalls uint64
	if tr != nil && plainSecs > 0 && tracedSecs > 0 {
		overhead = 1 - (float64(tracedOps)/tracedSecs)/(float64(plainOps)/plainSecs)
		tracedCalls = tr.calls[kOpWrite] + tr.calls[kOpRead] + tr.calls[kOpAudit]
		for _, row := range selfTable(tr, wl.layer) {
			if row.phase == "op" {
				selfPerOp[row.layer] = ratio(float64(row.selfNs), float64(tracedCalls))
			}
		}
	}
	put("trace.overhead_ratio", "ratio", overhead, tracedOps)
	for _, l := range []string{"bench", "store", "client", "cluster"} {
		put("self."+l+"_ns_per_op", "ns", selfPerOp[l], tracedCalls)
	}
}
