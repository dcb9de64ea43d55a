package persist

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"auditreg/store"
)

// BenchmarkRecover times Open over a cleanly closed directory whose log is
// one segment of about 100k records (writes, fetches, announces over 16
// objects). Recovery streams each file into the replay model, so B/op is
// the model and the replayed store; a recovery that materialized whole
// files again would show up as a jump in B/op.
//
//	go test -run '^$' -bench Recover -benchmem ./persist
func BenchmarkRecover(b *testing.B) {
	src := filepath.Join(b.TempDir(), "src")
	w, _, st := openWAL(b, src, Options{Policy: SyncNever})
	drive(b, st, 1, 16, 110000)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	records := w.Stats().Records
	if records < 90000 {
		b.Fatalf("setup wrote %d records", records)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(b.TempDir(), fmt.Sprint(i))
		copyDir(b, src, dir)
		st := newTestStore(b)
		b.StartTimer()
		w, res, err := Open(dir, testKey(), st, Options{Policy: SyncNever})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if uint64(res.Records) != records {
			b.Fatalf("recovered %d records, want %d", res.Records, records)
		}
		w.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkAppendCommit times one journaled write as 8 concurrent mutators
// see it, under SyncInterval (append only; fsync on the interval) and under
// SyncAlways (each write blocks until its group commit is stable). It
// reports records per fsync, the group commit's batching.
//
//	go test -run '^$' -bench AppendCommit ./persist
func BenchmarkAppendCommit(b *testing.B) {
	const mutators = 8
	for _, policy := range []Policy{SyncInterval, SyncAlways} {
		b.Run(policy.String(), func(b *testing.B) {
			st := newTestStore(b)
			w, _, err := Open(b.TempDir(), testKey(), st, Options{Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for m := 0; m < mutators; m++ {
				n := b.N / mutators
				if m < b.N%mutators {
					n++
				}
				wg.Add(1)
				go func(name string, n int) {
					defer wg.Done()
					for k := 1; k <= n; k++ {
						rec := store.JournalRecord[uint64]{Op: store.JournalWrite, Name: name, Kind: store.Register, Seq: uint64(k), Value: uint64(k)}
						if err := w.Record(rec); err != nil {
							b.Error(err)
							return
						}
					}
				}(fmt.Sprintf("bench-%d", m), n)
			}
			wg.Wait()
			b.StopTimer()
			if s := w.Stats(); s.Syncs > 0 {
				b.ReportMetric(float64(s.Records)/float64(s.Syncs), "records/sync")
			}
		})
	}
}
