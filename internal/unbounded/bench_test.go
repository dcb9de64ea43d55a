package unbounded_test

import (
	"testing"

	"auditreg/internal/unbounded"
)

// The benchmarks walk indexes [0, 4096) of arrays whose buckets all exist,
// so they time the steady-state lookup through the small buckets and the
// first three chunk-sized ones, not bucket creation.
const benchSpan = 4096

func BenchmarkU64ArrayStore(b *testing.B) {
	a, err := unbounded.NewU64Array(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < benchSpan; i++ {
		if err := a.Store(i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := uint64(0); b.Loop(); i++ {
		if err := a.Store(i%benchSpan, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitTableOr(b *testing.B) {
	t, err := unbounded.NewBitTable(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < benchSpan; i++ {
		if err := t.Or(i, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := uint64(0); b.Loop(); i++ {
		if err := t.Or(i%benchSpan, 1<<(i&63)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkArrayLoad(b *testing.B) {
	a, err := unbounded.NewArray[uint64](0)
	if err != nil {
		b.Fatal(err)
	}
	for i := uint64(0); i < benchSpan; i++ {
		if err := a.Store(i, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := uint64(0); b.Loop(); i++ {
		if _, ok := a.Load(i % benchSpan); !ok {
			b.Fatalf("slot %d unwritten", i%benchSpan)
		}
	}
}
