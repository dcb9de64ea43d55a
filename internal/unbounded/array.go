// Package unbounded provides the "infinite" shared arrays of Algorithms 1-3:
// V[0..∞] holding past values and B[0..∞][0..m-1] holding decrypted reader
// sets, all on one lazily populated bucket directory with lock-free reads and
// writes. Indexes below 1,024 live in buckets of 16, 16, 32, ..., 512
// entries, so a short history stays small; every later bucket holds 1,024.
// Capacity is bounded by the directory size (16 Mi entries by default),
// standing in for the paper's truly infinite arrays; every slot below the
// current sequence number is written before R's sequence number advances
// past it, so readers always find initialized slots.
package unbounded

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

const (
	chunkBits = 10
	chunkSize = 1 << chunkBits            // entries per bucket from index chunkSize on
	firstBits = 4                         // the first two buckets hold 1<<firstBits entries each
	small     = chunkBits - firstBits + 1 // buckets below index chunkSize
)

// DefaultCapacity is the default maximum index plus one.
const DefaultCapacity = 1 << 24

// dir is the bucket directory shared by Array, U64Array and BitTable: one
// atomic pointer per bucket, installed by CAS on the first store into it.
type dir[E any] struct {
	buckets []atomic.Pointer[[]E]
	// grouped heads every run of 64 entries with its presence word
	// (U64Array): a bucket of n entries holds n + ⌈n/64⌉ elements.
	grouped bool
}

func newDir[E any](capacity int, grouped bool) (dir[E], error) {
	if capacity == 0 {
		capacity = DefaultCapacity
	}
	if capacity < 0 {
		return dir[E]{}, fmt.Errorf("unbounded: negative capacity %d", capacity)
	}
	nChunks := (capacity + chunkSize - 1) / chunkSize
	return dir[E]{buckets: make([]atomic.Pointer[[]E], small-1+nChunks), grouped: grouped}, nil
}

// Capacity returns the number of addressable entries: the capacity asked
// for, rounded up to a multiple of 1,024.
func (d *dir[E]) Capacity() uint64 { return uint64(len(d.buckets)-small+1) * chunkSize }

// locate returns the bucket holding index i and i's offset within it,
// installing the bucket first when create is set. A nil bucket with a nil
// error means nothing has been stored in it yet. Concurrent creators race
// one CAS; the losers adopt the winner's bucket.
func (d *dir[E]) locate(i uint64, create bool) ([]E, uint64, error) {
	k, off, n := uint64(0), i, uint64(1)<<firstBits
	switch {
	case i >= chunkSize:
		k, off, n = i>>chunkBits+small-1, i&(chunkSize-1), chunkSize
	case i >= n:
		top := uint64(bits.Len64(i)) - 1
		k, off, n = top+1-firstBits, i-1<<top, 1<<top
	}
	if k >= uint64(len(d.buckets)) {
		return nil, 0, fmt.Errorf("unbounded: index %d beyond capacity %d", i, d.Capacity())
	}
	if b := d.buckets[k].Load(); b != nil {
		return *b, off, nil
	}
	if !create {
		return nil, off, nil
	}
	if d.grouped {
		n += (n + 63) / 64
	}
	fresh := make([]E, n)
	if !d.buckets[k].CompareAndSwap(nil, &fresh) {
		return *d.buckets[k].Load(), off, nil
	}
	return fresh, off, nil
}

// Array is an unbounded array of T with atomic Store and Load per slot.
// Slots follow the register semantics of the paper's V[s]: concurrent stores
// to the same slot always carry the same value (established by Lemma 18), so
// last-writer-wins is indistinguishable from write-once.
//
// Construct with NewArray; the zero value is not usable.
type Array[T any] struct {
	dir[atomic.Pointer[T]]
}

// NewArray returns an array addressable on [0, capacity). A capacity of 0
// selects DefaultCapacity.
func NewArray[T any](capacity int) (*Array[T], error) {
	d, err := newDir[atomic.Pointer[T]](capacity, false)
	if err != nil {
		return nil, err
	}
	return &Array[T]{d}, nil
}

// Store atomically publishes v at index i. It returns an error only when i is
// beyond the array's capacity.
func (a *Array[T]) Store(i uint64, v T) error {
	b, off, err := a.locate(i, true)
	if err != nil {
		return err
	}
	b[off].Store(&v)
	return nil
}

// Load returns the value at index i and whether the slot has been written.
func (a *Array[T]) Load(i uint64) (v T, ok bool) {
	b, off, err := a.locate(i, false)
	if err != nil || b == nil {
		return v, false
	}
	if p := b[off].Load(); p != nil {
		return *p, true
	}
	return v, false
}

// Log is the audit array V as the registers use it.
type Log[V any] interface {
	Store(i uint64, v V) error
	Load(i uint64) (V, bool)
}

// NewLog returns the audit array V addressable on [0, capacity): a U64Array
// when V is uint64, whose Store never allocates once its bucket exists, and
// an Array[V] otherwise, which boxes every stored value.
func NewLog[V any](capacity int) (Log[V], error) {
	if _, is64 := any(*new(V)).(uint64); is64 {
		a, err := NewU64Array(capacity)
		if err != nil {
			return nil, err
		}
		return any(a).(Log[V]), nil
	}
	a, err := NewArray[V](capacity)
	if err != nil {
		return nil, err
	}
	return a, nil
}
