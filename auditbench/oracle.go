package main

import (
	"fmt"
	"math/bits"
)

// Values are unique per object: the high 32 bits tag the object (index+1),
// the low 32 bits count that object's writes from 1. A read's value
// therefore names the object and the write it came from, so the oracle can
// attribute every (reader, value) pair and spot one that crossed objects.
func tagValue(obj int, n uint64) uint64 { return uint64(obj+1)<<32 | n }

func valueObject(v uint64) int { return int(v>>32) - 1 }

func valueCount(v uint64) uint64 { return v & 0xffffffff }

// issued reports whether v is a value the benchmark issued to a write on obj,
// given that writes numbered 1..writes have been issued there.
func issued(obj int, v uint64, writes uint64) bool {
	n := valueCount(v)
	return valueObject(v) == obj && n >= 1 && n <= writes
}

// bitset is a growable set of write numbers.
type bitset []uint64

func (b *bitset) set(n uint64) {
	w := int(n / 64)
	if w >= len(*b) {
		*b = append(*b, make([]uint64, w+1-len(*b))...)
	}
	(*b)[w] |= 1 << (n % 64)
}

func (b bitset) has(n uint64) bool {
	w := int(n / 64)
	return w < len(b) && b[w]&(1<<(n%64)) != 0
}

func (b *bitset) or(o bitset) {
	if len(o) > len(*b) {
		*b = append(*b, make([]uint64, len(o)-len(*b))...)
	}
	for w, x := range o {
		(*b)[w] |= x
	}
}

// firstMissing returns a write number in b that is not in o.
func (b bitset) firstMissing(o bitset) (uint64, bool) {
	for w, x := range b {
		if w < len(o) {
			x &^= o[w]
		}
		if x != 0 {
			return uint64(w)*64 + uint64(bits.TrailingZeros64(x)), true
		}
	}
	return 0, false
}

// pair is one audit entry: reader j obtained value v.
type pair struct {
	reader int
	value  uint64
}

// writeRec is one completed write as its caller saw it.
type writeRec struct {
	value      uint64
	start, end int64
}

// objKind is how an object's final value follows from its writes.
type objKind uint8

const (
	kindRegister objKind = iota // last write wins
	kindMax                     // the largest value written wins
)

// objTruth is everything the benchmark observed about one object.
type objTruth struct {
	kind objKind
	// seen[j] holds the write numbers of the values reader j's reads
	// returned.
	seen [readers]bitset
	// writes counts the values issued for the object (1..writes); every
	// issued value was attempted by a write.
	writes uint64
	// last holds each caller's latest write to the object that returned
	// without error. An earlier write of the same caller ended before its
	// later one started, so only these can decide the final value.
	last []writeRec
	// readBy marks readers that read the object at all; ambiguous marks
	// readers whose read failed, so whether it fetched is unknown.
	readBy, ambiguous [readers]bool
}

// oracle is the audit-exactness check shared by every workload.
//
// Exact mode (local store, auditd): a fresh audit of an object must hold
// exactly the (reader, value) pairs the benchmark's reads returned. The one
// allowance is a reader whose read failed: it may be charged a value some
// write attempted on that object, since the failed read may have fetched.
//
// Stale mode (cluster): a dispersed read fans out to every node, so a
// reader that raced a write holds k shares of a neighbouring write too, and
// the merged audit rightly charges it. An unobserved merged pair is
// accepted only if its value was attempted by a write on that object and
// its reader read that object (the stale-read rule of the cluster drills).
// Every observed pair must still be charged.
//
// In both modes the final value of an object must be one an acknowledged
// write could have left: for a register, a caller's last write that was
// still running when the newest write began; for a max register, the
// largest value written.
type oracle struct {
	stale bool
	objs  []objTruth
}

func newOracle(kinds []objKind, callers int, stale bool) *oracle {
	o := &oracle{stale: stale, objs: make([]objTruth, len(kinds))}
	for i, k := range kinds {
		o.objs[i] = objTruth{kind: k, last: make([]writeRec, callers)}
	}
	return o
}

// observe records that reader j of obj read v. A value no write on obj
// was issued fails at once: the read returned something it cannot have.
func (o *oracle) observe(obj, reader int, v uint64) error {
	t := &o.objs[obj]
	if !issued(obj, v, t.writes) {
		return fmt.Errorf("object %d: reader %d read %#x, a value no write on this object issued", obj, reader, v)
	}
	t.seen[reader].set(valueCount(v))
	t.readBy[reader] = true
	return nil
}

// checkAudit compares a fresh audit of obj with what the benchmark observed.
// It returns how many pairs the stale rule accepted.
func (o *oracle) checkAudit(obj int, audit []pair) (staleCharged int, err error) {
	t := &o.objs[obj]
	var got [readers]bitset
	for _, p := range audit {
		if p.reader < 0 || p.reader >= readers {
			return staleCharged, fmt.Errorf("object %d: audit names reader %d of %d", obj, p.reader, readers)
		}
		if !issued(obj, p.value, t.writes) {
			return staleCharged, fmt.Errorf("object %d: audit charges reader %d with %#x, a value no write on this object attempted", obj, p.reader, p.value)
		}
		n := valueCount(p.value)
		got[p.reader].set(n)
		if t.seen[p.reader].has(n) {
			continue
		}
		switch {
		case t.ambiguous[p.reader]:
		case o.stale && t.readBy[p.reader]:
			staleCharged++
		default:
			return staleCharged, fmt.Errorf("object %d: audit charges reader %d with %#x, which no read returned", obj, p.reader, p.value)
		}
	}
	for j := range t.seen {
		if n, ok := t.seen[j].firstMissing(got[j]); ok {
			return staleCharged, fmt.Errorf("object %d: reader %d read %#x, but the audit does not charge it", obj, j, tagValue(obj, n))
		}
	}
	return staleCharged, nil
}

// checkFinal checks that v is a value the object's acknowledged writes
// could have left behind once all of them had returned.
func (o *oracle) checkFinal(obj int, v uint64) error {
	t := &o.objs[obj]
	var newest writeRec // the write that started last, or the largest value
	for _, w := range t.last {
		if w.value == 0 {
			continue
		}
		switch t.kind {
		case kindMax:
			if w.value > newest.value {
				newest = w
			}
		default:
			if newest.value == 0 || w.start > newest.start {
				newest = w
			}
		}
	}
	if newest.value == 0 {
		return fmt.Errorf("object %d: no acknowledged write to check the final value %#x against", obj, v)
	}
	if t.kind == kindMax {
		// Writes that failed may still have taken effect, so the register
		// may hold more than the largest acknowledged value, never less.
		if v < newest.value || !issued(obj, v, t.writes) {
			return fmt.Errorf("object %d: final value %#x, want the largest written value %#x", obj, v, newest.value)
		}
		return nil
	}
	for _, w := range t.last {
		if w.value == v && w.end >= newest.start {
			return nil
		}
	}
	return fmt.Errorf("object %d: final value %#x is not one the last acknowledged writes left (newest %#x)", obj, v, newest.value)
}
