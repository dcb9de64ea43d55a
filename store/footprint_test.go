package store_test

import (
	"fmt"
	"runtime"
	"testing"

	"auditreg"
	"auditreg/store"
)

// heapPerObject opens n objects in a store with default readers and capacity,
// alternating Register and MaxRegister, and writes each three times, every
// write followed by a read with every reader, so the writes after the first
// copy reader sets into B. It returns the growth of the live heap per object.
func heapPerObject(tb testing.TB, n int) float64 {
	tb.Helper()
	st, err := store.New(auditreg.KeyFromSeed(7), store.WithLess[uint64](func(a, b uint64) bool { return a < b }))
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		kind := store.Register
		if i%2 == 1 {
			kind = store.MaxRegister
		}
		obj, err := st.Open(fmt.Sprintf("obj-%d", i), kind)
		if err != nil {
			tb.Fatalf("Open: %v", err)
		}
		for w := uint64(1); w <= 3; w++ {
			if err := obj.Write(uint64(i)<<32 | w); err != nil {
				tb.Fatalf("Write: %v", err)
			}
			for r := 0; r < st.Readers(); r++ {
				if _, err := obj.Read(r); err != nil {
					tb.Fatalf("Read: %v", err)
				}
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(st)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// TestObjectFootprint: an object with a short history costs a few KiB of
// heap, not the full-size audit arrays its default capacity could hold.
func TestObjectFootprint(t *testing.T) {
	const n, limit = 4096, 6 << 10
	per := heapPerObject(t, n)
	if per > limit {
		t.Fatalf("heap per object = %.0f B, want <= %d B", per, limit)
	}
	t.Logf("heap per object = %.0f B over %d objects", per, n)
}

// BenchmarkObjectFootprint times opening, writing and reading b.N objects and
// reports the live heap each one adds. Objects go into stores of at most
// 4,096 so a long run does not hold b.N objects at once.
func BenchmarkObjectFootprint(b *testing.B) {
	b.ReportAllocs()
	var heap float64
	for done := 0; done < b.N; done += 4096 {
		n := min(4096, b.N-done)
		heap += heapPerObject(b, n) * float64(n)
	}
	b.ReportMetric(heap/float64(b.N), "heap-B/object")
}
