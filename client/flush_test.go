package client_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"auditreg"
	"auditreg/client"
	"auditreg/server"
	"auditreg/store"
)

// TestWriterCoalescesCallers pins the client writer's batching: 8 goroutines
// doing round trips on one connection must share flushes, at least 2 request
// frames per writev on average, at every GOMAXPROCS. A writer that flushes
// as soon as the first caller wakes it averages close to one frame per
// flush.
func TestWriterCoalescesCallers(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			_, addr := startServer(t, server.Config{Key: auditreg.KeyFromSeed(31), Readers: 4})
			cl, err := client.Dial(addr, client.WithConns(1))
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer cl.Close()

			const callers, trips = 8, 400
			objs := make([]*client.Object, callers)
			for g := range objs {
				if objs[g], err = cl.Open(fmt.Sprintf("co-%d", g), store.Register); err != nil {
					t.Fatalf("Open: %v", err)
				}
			}
			flushes0, frames0 := cl.Flushes()
			var wg sync.WaitGroup
			for g := range objs {
				wg.Add(1)
				go func(obj *client.Object) {
					defer wg.Done()
					for i := 0; i < trips; i++ {
						if err := obj.Write(uint64(i)); err != nil {
							t.Errorf("Write: %v", err)
							return
						}
					}
				}(objs[g])
			}
			wg.Wait()
			flushes1, frames1 := cl.Flushes()
			flushes, frames := flushes1-flushes0, frames1-frames0
			if frames != callers*trips {
				t.Fatalf("flushes carried %d frames, want %d", frames, callers*trips)
			}
			perFlush := float64(frames) / float64(flushes)
			t.Logf("%d frames in %d flushes: %.2f per flush", frames, flushes, perFlush)
			if perFlush < 2 {
				t.Fatalf("%.2f frames per flush, want >= 2", perFlush)
			}
		})
	}
}

// BenchmarkRoundTrip measures one read round trip (a silent READ-FETCH)
// over loopback to an in-process server, from 4×GOMAXPROCS parallel callers
// sharing the default pool, each on its own object, and reports the pool
// writers' frames per flush.
func BenchmarkRoundTrip(b *testing.B) {
	_, addr := startServer(b, server.Config{Key: auditreg.KeyFromSeed(32), Readers: 4})
	cl, err := client.Dial(addr)
	if err != nil {
		b.Fatalf("Dial: %v", err)
	}
	defer cl.Close()
	const parallelism = 4
	objs := make([]*client.Object, parallelism*runtime.GOMAXPROCS(0))
	for i := range objs {
		if objs[i], err = cl.Open(fmt.Sprintf("bench-%d", i), store.Register); err != nil {
			b.Fatalf("Open: %v", err)
		}
		if err := objs[i].Write(uint64(i)); err != nil {
			b.Fatalf("Write: %v", err)
		}
	}
	var next atomic.Int32
	flushes0, frames0 := cl.Flushes()
	b.SetParallelism(parallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		obj := objs[int(next.Add(1)-1)%len(objs)]
		for pb.Next() {
			if _, err := obj.Read(0); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.StopTimer()
	flushes1, frames1 := cl.Flushes()
	b.ReportMetric(float64(frames1-frames0)/float64(max(flushes1-flushes0, 1)), "frames/flush")
}
