package main

import (
	"strings"
	"testing"
)

// faultySys wraps a real target and plants one fault into what
// verification sees.
type faultySys struct {
	system
	plantAudit func(obj int, pairs []pair) []pair
	plantFinal func(obj int, v uint64) uint64
}

func (f *faultySys) freshAudit(obj int) ([]pair, error) {
	pairs, err := f.system.freshAudit(obj)
	if err == nil && f.plantAudit != nil {
		pairs = f.plantAudit(obj, pairs)
	}
	return pairs, err
}

func (f *faultySys) final(obj int) (uint64, bool, error) {
	v, read, err := f.system.final(obj)
	if err == nil && f.plantFinal != nil {
		v = f.plantFinal(obj, v)
	}
	return v, read, err
}

// smallStoreRun drives a small local store through a few hundred seeded
// ops per caller, one caller after the other, and returns it ready for
// verification.
func smallStoreRun(t *testing.T) (*runCtx, system) {
	t.Helper()
	wl := &workload{
		name: "test-store", layer: "store",
		objects: 4, callers: 2, readPct: 60, writePct: 30,
		kinds: alternateKinds, setup: setupStore,
	}
	r := newRunCtx(wl, genOps(wl, 7, 800), false, 0)
	sys, err := wl.setup(&benchEnv{seed: 7}, r, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.close() })
	for _, c := range r.callers {
		for _, op := range c.ops {
			kind, reader, obj := unpackOp(op)
			if _, _, err := c.exec(sys, kind, reader, obj); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r, sys
}

func TestOracleAcceptsHonestRun(t *testing.T) {
	r, sys := smallStoreRun(t)
	vr, err := verify(r, sys, nil)
	if err != nil {
		t.Fatalf("honest run failed the oracle: %v", err)
	}
	if vr.pairs == 0 {
		t.Fatal("verification compared no audit pairs")
	}
}

func TestOracleCatchesPlantedFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		sys  func(system) *faultySys
		want string
	}{
		{
			name: "dropped audit pair",
			sys: func(s system) *faultySys {
				return &faultySys{system: s, plantAudit: func(obj int, p []pair) []pair {
					if obj == 1 {
						return p[1:]
					}
					return p
				}}
			},
			want: "does not charge it",
		},
		{
			name: "phantom audit pair",
			sys: func(s system) *faultySys {
				return &faultySys{system: s, plantAudit: func(obj int, p []pair) []pair {
					if obj != 0 {
						return p
					}
					// Charge the newest charged value to a reader the audit
					// does not already charge with it.
					var newest uint64
					for _, q := range p {
						newest = max(newest, q.value)
					}
					for j := 0; j < readers; j++ {
						if phantom := (pair{j, newest}); !containsPair(p, phantom) {
							return append(p, phantom)
						}
					}
					return p
				}}
			},
			want: "which no read returned",
		},
		{
			name: "value swapped between objects",
			sys: func(s system) *faultySys {
				return &faultySys{system: s, plantAudit: func(obj int, p []pair) []pair {
					if obj == 2 {
						q := append([]pair(nil), p...)
						q[0].value = tagValue(3, valueCount(q[0].value))
						return q
					}
					return p
				}}
			},
			want: "no write on this object attempted",
		},
		{
			name: "lost acknowledged write on a register",
			sys: func(s system) *faultySys {
				return &faultySys{system: s, plantFinal: func(obj int, v uint64) uint64 {
					if obj == 0 {
						return v - 1 // the write before the last one
					}
					return v
				}}
			},
			want: "last acknowledged writes",
		},
		{
			name: "lost acknowledged write on a max register",
			sys: func(s system) *faultySys {
				return &faultySys{system: s, plantFinal: func(obj int, v uint64) uint64 {
					if obj == 1 {
						return v - 1
					}
					return v
				}}
			},
			want: "largest written value",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, sys := smallStoreRun(t)
			_, err := verify(r, tc.sys(sys), nil)
			if err == nil {
				t.Fatal("planted fault passed the oracle")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("oracle failed for another reason: %v (want %q)", err, tc.want)
			}
		})
	}
}

func containsPair(ps []pair, p pair) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// TestStaleRule checks the cluster allowance: an unobserved pair is
// accepted only in stale mode, only for a value written on the object, and
// only for a reader that read the object.
func TestStaleRule(t *testing.T) {
	build := func(stale bool) *oracle {
		o := newOracle([]objKind{kindRegister, kindRegister}, 1, stale)
		o.objs[0].writes = 3
		o.objs[1].writes = 3
		if err := o.observe(0, 2, tagValue(0, 2)); err != nil {
			t.Fatal(err)
		}
		return o
	}
	raced := []pair{{2, tagValue(0, 2)}, {2, tagValue(0, 3)}}
	if n, err := build(true).checkAudit(0, raced); err != nil || n != 1 {
		t.Fatalf("stale mode: got %d accepted, err %v; want 1, nil", n, err)
	}
	if _, err := build(false).checkAudit(0, raced); err == nil {
		t.Fatal("exact mode accepted an unobserved pair")
	}
	if _, err := build(true).checkAudit(0, append(raced, pair{5, tagValue(0, 3)})); err == nil {
		t.Fatal("stale mode charged a reader that never read the object")
	}
	if _, err := build(true).checkAudit(0, append(raced, pair{2, tagValue(1, 1)})); err == nil {
		t.Fatal("stale mode accepted a value written on another object")
	}
	if err := build(true).observe(0, 1, tagValue(1, 1)); err == nil {
		t.Fatal("a read of another object's value was accepted")
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.98 || got > want*1.02 {
			t.Errorf("q%.2f = %.0f, want %.0f within 2%%", q, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 63, 64, 65, 127, 128, 1 << 20, 1<<40 + 12345} {
		i := bucketOf(v)
		if v < bucketLow(i) || v > bucketHigh(i) {
			t.Errorf("%d lands in bucket %d = [%d, %d]", v, i, bucketLow(i), bucketHigh(i))
		}
	}
}
