package cluster_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"auditreg/client"
	"auditreg/cluster"
	"auditreg/internal/netsim"
	"auditreg/server"
)

// benchReaders is the reader count of the benchmarks' objects, as in the
// repository benchmark's cluster workload.
const benchReaders = 16

// benchCluster boots an n=5, f=1 cluster on a netsim fabric with instant
// links (no sockets, no simulated delay), dials one cluster client with one
// connection per node, and opens one object on it.
func benchCluster(b *testing.B, name string) *cluster.Object {
	b.Helper()
	const n, f = 5, 1
	fab := netsim.NewFabric(1, 0)
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("node%d", i+1)
	}
	m := cluster.SeededMembership(addrs, f, 77)
	for i := 0; i < n; i++ {
		srv, err := server.New(server.Config{Key: m.Nodes[i].Key, Readers: benchReaders, NodeID: m.Nodes[i].ID})
		if err != nil {
			b.Fatalf("server.New node %d: %v", i+1, err)
		}
		ln, err := fab.Listen(addrs[i])
		if err != nil {
			b.Fatalf("fabric listen %s: %v", addrs[i], err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		b.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			<-done
		})
	}
	cc, err := cluster.Dial(m, cluster.WithClientOptions(func(cluster.Node) []client.Option {
		return []client.Option{client.WithDialer(fab.Dialer("bench")), client.WithConns(1)}
	}))
	if err != nil {
		b.Fatalf("cluster.Dial: %v", err)
	}
	b.Cleanup(func() { cc.Close() })
	obj, err := cc.Open(name)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	return obj
}

// BenchmarkWrite measures one dispersed write: split, n share pads, and the
// fan-out until a quorum has acknowledged.
func BenchmarkWrite(b *testing.B) {
	obj := benchCluster(b, "bench/write")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obj.Write(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures one dispersed read of an unchanging value, the
// readers taking turns: the share fetch fan-out, the unmasking and the
// verified decode of a quorum's surplus shares.
func BenchmarkRead(b *testing.B) {
	obj := benchCluster(b, "bench/read")
	if err := obj.Write(0xBE11C4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Read(i % benchReaders); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAudit measures one merged audit of a fixed history: auditW
// writes, each read by all benchReaders readers, every fetch logged on all
// n nodes before timing starts. The first audit decodes every write; the
// timed audits are the steady state, in which the merge charges every pair
// from the decoded-writes table.
func BenchmarkAudit(b *testing.B) {
	const auditW = 64
	obj := benchCluster(b, "bench/audit")
	for w := 1; w <= auditW; w++ {
		if err := obj.Write(uint64(w) << 8); err != nil {
			b.Fatal(err)
		}
		for r := 0; r < benchReaders; r++ {
			if _, err := obj.Read(r); err != nil {
				b.Fatal(err)
			}
		}
	}
	// A read returns at a quorum; wait until every node's fetch has landed
	// and the merge charges every pair with nothing undecided.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, err := obj.Audit()
		if err != nil {
			b.Fatal(err)
		}
		if m.Report.Len() == auditW*benchReaders && len(m.Undecided) == 0 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatalf("history never settled: %d pairs charged, %d undecided", m.Report.Len(), len(m.Undecided))
		}
		time.Sleep(time.Millisecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Audit(); err != nil {
			b.Fatal(err)
		}
	}
}
