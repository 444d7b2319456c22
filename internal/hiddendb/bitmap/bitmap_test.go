package bitmap

import (
	"math/rand"
	"sort"
	"testing"
)

// refSet builds a Bitmap plus a sorted reference slice from the same
// values, optionally optimized to run shape.
func refSet(t *testing.T, vals []uint32, optimize bool) (*Bitmap, []uint32) {
	t.Helper()
	b := New()
	seen := make(map[uint32]bool, len(vals))
	for _, v := range vals {
		b.Add(v)
		seen[v] = true
	}
	ref := make([]uint32, 0, len(seen))
	for v := range seen {
		ref = append(ref, v)
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	if optimize {
		b.Optimize()
	}
	if b.Cardinality() != len(ref) {
		t.Fatalf("cardinality %d, want %d", b.Cardinality(), len(ref))
	}
	return b, ref
}

// shapes generates value sets exercising all three container shapes:
// sparse (array), dense (bitmap), clustered (runs after Optimize), and
// a mix spanning several chunk keys.
func shapes(rng *rand.Rand) map[string][]uint32 {
	sparse := make([]uint32, 500)
	for i := range sparse {
		sparse[i] = rng.Uint32() % (8 << 16)
	}
	dense := make([]uint32, 30000)
	for i := range dense {
		dense[i] = rng.Uint32() % (2 << 16)
	}
	clustered := make([]uint32, 0, 40000)
	for start := uint32(0); start < 200000; start += uint32(1000 + rng.Intn(4000)) {
		runLen := uint32(100 + rng.Intn(900))
		for v := start; v < start+runLen; v++ {
			clustered = append(clustered, v)
		}
	}
	mixed := append(append(append([]uint32{}, sparse...), dense...), clustered...)
	mixed = append(mixed, 0, 1<<16-1, 1<<16, 5<<16+12345, 1<<31, ^uint32(0))
	return map[string][]uint32{
		"sparse": sparse, "dense": dense, "clustered": clustered, "mixed": mixed,
	}
}

func TestAddContainsIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, vals := range shapes(rng) {
		for _, opt := range []bool{false, true} {
			b, ref := refSet(t, vals, opt)
			it := b.Iterator()
			for i, want := range ref {
				got, ok := it.Next()
				if !ok || got != want {
					t.Fatalf("%s(opt=%v): iterator[%d] = %d,%v want %d", name, opt, i, got, ok, want)
				}
			}
			if v, ok := it.Next(); ok {
				t.Fatalf("%s: iterator overran with %d", name, v)
			}
			// Probe membership at, around and far from set values.
			for _, v := range ref[:min(len(ref), 200)] {
				if !b.Contains(v) {
					t.Fatalf("%s: Contains(%d) = false", name, v)
				}
			}
			misses := 0
			for i := 0; i < 200; i++ {
				v := rng.Uint32()
				idx := sort.Search(len(ref), func(i int) bool { return ref[i] >= v })
				want := idx < len(ref) && ref[idx] == v
				if b.Contains(v) != want {
					t.Fatalf("%s: Contains(%d) = %v, want %v", name, v, !want, want)
				}
				if !want {
					misses++
				}
			}
			if misses == 0 {
				t.Fatalf("%s: probe generator never missed; test is vacuous", name)
			}
		}
	}
}

func TestOutOfOrderAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]uint32, 20000)
	for i := range vals {
		vals[i] = rng.Uint32() % (40 << 16)
	}
	// Build one bitmap in ascending order, one shuffled: they must agree.
	asc := append([]uint32{}, vals...)
	sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
	a, _ := refSet(t, asc, false)
	b, _ := refSet(t, vals, false)
	if a.Cardinality() != b.Cardinality() {
		t.Fatalf("order-dependent cardinality: %d vs %d", a.Cardinality(), b.Cardinality())
	}
	ia, ib := a.Iterator(), b.Iterator()
	for {
		va, oka := ia.Next()
		vb, okb := ib.Next()
		if oka != okb || va != vb {
			t.Fatalf("order-dependent contents: %d,%v vs %d,%v", va, oka, vb, okb)
		}
		if !oka {
			break
		}
	}
}

func TestResetReuse(t *testing.T) {
	b := New()
	for i := uint32(0); i < 100000; i += 3 {
		b.Add(i)
	}
	b.Optimize()
	b.Reset()
	if !b.IsEmpty() || b.Cardinality() != 0 {
		t.Fatalf("Reset left card %d", b.Cardinality())
	}
	it := b.Iterator()
	if _, ok := it.Next(); ok {
		t.Fatal("Reset bitmap iterates values")
	}
	// Reuse after Reset: contents must be exactly the new values.
	b.Add(7)
	b.Add(70000)
	if b.Cardinality() != 2 || !b.Contains(7) || !b.Contains(70000) || b.Contains(9) {
		t.Fatalf("reused bitmap corrupt: card %d", b.Cardinality())
	}
}
