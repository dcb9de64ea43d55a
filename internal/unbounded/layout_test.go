package unbounded_test

import (
	"sync"
	"testing"

	"auditreg/internal/unbounded"
)

// kind builds one of the three array types behind a common surface, so the
// layout tests run unchanged over each of them. Store(i) records value(i).
type kind struct {
	name  string
	new   func(t *testing.T, capacity int) layout
	value func(i uint64) uint64
}

type layout interface {
	Capacity() uint64
	Store(i uint64) error
	Load(i uint64) (uint64, bool)
}

type arrayLayout struct{ a *unbounded.Array[uint64] }

func (l arrayLayout) Capacity() uint64             { return l.a.Capacity() }
func (l arrayLayout) Store(i uint64) error         { return l.a.Store(i, i^0xA5) }
func (l arrayLayout) Load(i uint64) (uint64, bool) { return l.a.Load(i) }

type u64Layout struct{ a *unbounded.U64Array }

func (l u64Layout) Capacity() uint64             { return l.a.Capacity() }
func (l u64Layout) Store(i uint64) error         { return l.a.Store(i, i^0xA5) }
func (l u64Layout) Load(i uint64) (uint64, bool) { return l.a.Load(i) }

type bitLayout struct{ t *unbounded.BitTable }

func (l bitLayout) Capacity() uint64     { return l.t.Capacity() }
func (l bitLayout) Store(i uint64) error { return l.t.Or(i, i|1<<63) }
func (l bitLayout) Load(i uint64) (uint64, bool) {
	row := l.t.Row(i)
	return row, row != 0
}

var kinds = []kind{
	{"Array", func(t *testing.T, c int) layout {
		a, err := unbounded.NewArray[uint64](c)
		if err != nil {
			t.Fatalf("NewArray(%d): %v", c, err)
		}
		return arrayLayout{a}
	}, func(i uint64) uint64 { return i ^ 0xA5 }},
	{"U64Array", func(t *testing.T, c int) layout {
		a, err := unbounded.NewU64Array(c)
		if err != nil {
			t.Fatalf("NewU64Array(%d): %v", c, err)
		}
		return u64Layout{a}
	}, func(i uint64) uint64 { return i ^ 0xA5 }},
	{"BitTable", func(t *testing.T, c int) layout {
		b, err := unbounded.NewBitTable(c)
		if err != nil {
			t.Fatalf("NewBitTable(%d): %v", c, err)
		}
		return bitLayout{b}
	}, func(i uint64) uint64 { return i | 1<<63 }},
}

// TestCapacityIsRoundedToChunks pins Capacity() for each capacity the
// constructors accept: the capacity asked for, rounded up to a multiple of
// 1,024, with 0 meaning DefaultCapacity.
func TestCapacityIsRoundedToChunks(t *testing.T) {
	for _, tc := range []struct {
		capacity int
		want     uint64
	}{
		{1, 1024},
		{100, 1024},
		{1024, 1024},
		{1025, 2048},
		{65536, 65536},
		{0, unbounded.DefaultCapacity},
	} {
		for _, k := range kinds {
			if got := k.new(t, tc.capacity).Capacity(); got != tc.want {
				t.Errorf("%s capacity %d: Capacity() = %d, want %d", k.name, tc.capacity, got, tc.want)
			}
		}
	}
}

// TestBucketEdges stores at the first and last index of every bucket, the
// first chunk-sized ones and the last addressable index, then checks that
// each edge reads back and that no other index became visible: an offset or
// bucket-index error would alias one slot onto another.
func TestBucketEdges(t *testing.T) {
	for _, capacity := range []int{1, 3000, 0} {
		for _, k := range kinds {
			a := k.new(t, capacity)
			last := a.Capacity() - 1
			edges := map[uint64]bool{last: true}
			for _, e := range []uint64{0, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 511, 512, 1023, 1024, 1025, 2047} {
				if e <= last {
					edges[e] = true
				}
			}
			for e := range edges {
				if err := a.Store(e); err != nil {
					t.Fatalf("%s cap %d: Store(%d): %v", k.name, capacity, e, err)
				}
			}
			for i := uint64(0); i <= min(last, 2100); i++ {
				v, ok := a.Load(i)
				if edges[i] && (!ok || v != k.value(i)) {
					t.Fatalf("%s cap %d: Load(%d) = (%#x, %t), want (%#x, true)", k.name, capacity, i, v, ok, k.value(i))
				}
				if !edges[i] && ok {
					t.Fatalf("%s cap %d: unwritten index %d reads (%#x, true)", k.name, capacity, i, v)
				}
			}
			if v, ok := a.Load(last); !ok || v != k.value(last) {
				t.Fatalf("%s cap %d: Load(Capacity()-1) = (%#x, %t)", k.name, capacity, v, ok)
			}
			for _, beyond := range []uint64{last + 1, last + 1024, 1 << 62} {
				if err := a.Store(beyond); err == nil {
					t.Fatalf("%s cap %d: Store(%d) beyond capacity accepted", k.name, capacity, beyond)
				}
				if _, ok := a.Load(beyond); ok {
					t.Fatalf("%s cap %d: Load(%d) beyond capacity reported written", k.name, capacity, beyond)
				}
			}
		}
	}
}

// TestBucketsFillDensely writes every index of the small buckets and the two
// chunks after them and reads each one back.
func TestBucketsFillDensely(t *testing.T) {
	for _, k := range kinds {
		a := k.new(t, 0)
		const n = 3 * 1024
		for i := uint64(0); i < n; i++ {
			if err := a.Store(i); err != nil {
				t.Fatalf("%s: Store(%d): %v", k.name, i, err)
			}
		}
		for i := uint64(0); i < n; i++ {
			if v, ok := a.Load(i); !ok || v != k.value(i) {
				t.Fatalf("%s: Load(%d) = (%#x, %t), want (%#x, true)", k.name, i, v, ok, k.value(i))
			}
		}
		if _, ok := a.Load(n); ok {
			t.Fatalf("%s: index %d reported written", k.name, n)
		}
	}
}

// TestFirstTouchRace has eight goroutines create the same small buckets at
// once. In [0, 64) each stores only its own slots, so a store into a bucket
// that lost the installing CAS would go missing; in [64, 256) all store every
// slot with the same value, as concurrent copies of V[s] do under Lemma 18.
// Every slot must hold its value afterwards. Run under -race.
func TestFirstTouchRace(t *testing.T) {
	const procs, own, shared = 8, 64, 256
	for _, k := range kinds {
		for round := 0; round < 50; round++ {
			a := k.new(t, 0)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := uint64(0); g < procs; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := g; i < shared; i++ {
						if i < own && i%procs != g {
							continue
						}
						if err := a.Store(i); err != nil {
							t.Errorf("%s: Store(%d): %v", k.name, i, err)
						}
					}
				}()
			}
			close(start)
			wg.Wait()
			for i := uint64(0); i < shared; i++ {
				if v, ok := a.Load(i); !ok || v != k.value(i) {
					t.Fatalf("%s round %d: Load(%d) = (%#x, %t), want (%#x, true)", k.name, round, i, v, ok, k.value(i))
				}
			}
		}
	}
}
