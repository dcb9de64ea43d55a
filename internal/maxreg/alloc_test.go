package maxreg_test

import (
	"testing"

	"auditreg/internal/maxreg"
	"auditreg/internal/otp"
	"auditreg/internal/shmem"
)

// TestUint64WriteMaxAllocationFree: with in-place backends for M and R, a
// uint64 writeMax performs no heap allocation once the history bucket it
// copies into exists: the outgoing value lands inline in V (no boxed copy)
// and its reader set is ORed into B in place. FixedPads keep pad derivation
// out of the measurement.
func TestUint64WriteMaxAllocationFree(t *testing.T) {
	pads, err := otp.NewFixedPads(0xA5A5, 0x5A5A, 0xFFFF, 0x0101)
	if err != nil {
		t.Fatalf("NewFixedPads: %v", err)
	}
	init := maxreg.Nonced[uint64]{}
	reg, err := maxreg.NewAuditable(4, 0, lessU64, pads,
		maxreg.WithM[uint64](maxreg.NewLockedMax(init, func(a, b maxreg.Nonced[uint64]) bool {
			return a.Val < b.Val || a.Val == b.Val && a.Nonce < b.Nonce
		})),
		maxreg.WithAuditableTripleReg[uint64](shmem.NewLockedTriple(shmem.Triple[maxreg.Nonced[uint64]]{Bits: pads.Mask(0) & otp.MaskBits(4)})))
	if err != nil {
		t.Fatalf("NewAuditable: %v", err)
	}
	w := newWriter(t, reg, 1)
	if err := w.WriteMax(1); err != nil { // materialize history bucket 0
		t.Fatalf("WriteMax: %v", err)
	}
	var v uint64 = 1
	// Stay within the first history bucket (16 sequence numbers) so no
	// bucket is created during the measured writes.
	if n := testing.AllocsPerRun(10, func() {
		v++
		if err := w.WriteMax(v); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("uint64 WriteMax allocated %v times per run", n)
	}
}
