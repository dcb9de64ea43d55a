package unbounded

import "sync/atomic"

// U64Array is the word-sized specialization of Array: values live inline in
// atomic words instead of behind per-slot pointers, so Store is
// allocation-free once a slot's bucket exists (Array[T].Store heap-allocates
// a boxed value on every call). A presence bit per slot distinguishes
// "never written" from a stored zero.
//
// As for Array, concurrent stores to the same slot always carry the same
// value (Lemma 18), so the value word and its presence bit need no joint
// atomicity: a reader that sees the bit sees some writer's store of the one
// value the slot can hold.
//
// Construct with NewU64Array; the zero value is not usable.
type U64Array struct {
	dir[atomic.Uint64]
}

// NewU64Array returns an array addressable on [0, capacity). A capacity of 0
// selects DefaultCapacity.
func NewU64Array(capacity int) (*U64Array, error) {
	d, err := newDir[atomic.Uint64](capacity, true)
	if err != nil {
		return nil, err
	}
	return &U64Array{d}, nil
}

// words returns where offset off's presence word and value sit in its bucket.
func words(off uint64) (present, val uint64) {
	run := off / 64 * 65
	return run, run + 1 + off&63
}

// Store atomically publishes v at index i. It returns an error only when i is
// beyond the array's capacity.
func (a *U64Array) Store(i uint64, v uint64) error {
	b, off, err := a.locate(i, true)
	if err != nil {
		return err
	}
	p, w := words(off)
	b[w].Store(v)
	b[p].Or(1 << (off & 63))
	return nil
}

// Load returns the value at index i and whether the slot has been written.
func (a *U64Array) Load(i uint64) (uint64, bool) {
	b, off, err := a.locate(i, false)
	if err != nil || b == nil {
		return 0, false
	}
	p, w := words(off)
	if b[p].Load()&(1<<(off&63)) == 0 {
		return 0, false
	}
	return b[w].Load(), true
}
