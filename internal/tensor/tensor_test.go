package tensor

import (
	"bytes"
	"crypto/sha256"
	"math"
	"math/rand"
	"testing"
)

func TestNewZeroFilled(t *testing.T) {
	x := New(2, 3)
	if x.Rank() != 2 || x.Dim(0) != 2 || x.Dim(1) != 3 {
		t.Fatalf("shape = %v, want [2 3]", x.Shape())
	}
	if x.NumElements() != 6 {
		t.Fatalf("NumElements = %d, want 6", x.NumElements())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatalf("New tensor not zero filled: %v", x.Data())
		}
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.5)
	if s.Rank() != 0 || s.NumElements() != 1 {
		t.Fatalf("scalar shape wrong: rank=%d n=%d", s.Rank(), s.NumElements())
	}
	if got := s.At(); got != 3.5 {
		t.Fatalf("At() = %v, want 3.5", got)
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7 {
		t.Fatalf("At(1,2,3) = %v, want 7", got)
	}
	// Row-major layout: offset of (1,2,3) in [2,3,4] is 1*12+2*4+3 = 23.
	if x.Data()[23] != 7 {
		t.Fatalf("row-major layout broken, data=%v", x.Data())
	}
}

func TestFromValuesLengthCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromValues with wrong length did not panic")
		}
	}()
	FromValues([]int{2, 2}, []float64{1, 2, 3})
}

func TestIota(t *testing.T) {
	x := Iota(2, 2)
	want := []float64{0, 1, 2, 3}
	for i, v := range x.Data() {
		if v != want[i] {
			t.Fatalf("Iota data = %v, want %v", x.Data(), want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := Iota(2, 2)
	y := x.Clone()
	y.Set(99, 0, 0)
	if x.At(0, 0) == 99 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEqualAndAllClose(t *testing.T) {
	a := Iota(2, 3)
	b := Iota(2, 3)
	if !a.Equal(b) {
		t.Fatal("identical tensors not Equal")
	}
	b.Set(b.At(1, 2)+1e-12, 1, 2)
	if a.Equal(b) {
		t.Fatal("perturbed tensor reported Equal")
	}
	if !a.AllClose(b, 1e-9) {
		t.Fatal("tiny perturbation not AllClose at 1e-9")
	}
	if a.AllClose(b, 1e-15) {
		t.Fatal("AllClose tolerance not respected")
	}
	c := Iota(3, 2)
	if a.AllClose(c, 1) {
		t.Fatal("AllClose across different shapes must be false")
	}
}

// TestEqualComparesBits pins Equal as the byte contract's comparison:
// it tells −0 from +0, which == cannot, and takes a NaN to equal a NaN
// of the same payload, which == never does; NaNs of different payloads
// differ.
func TestEqualComparesBits(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	other := math.Float64frombits(0x7ff8000000000002)
	of := func(v float64) *Tensor { return FromValues([]int{2}, []float64{1, v}) }
	for _, tc := range []struct {
		name string
		a, b float64
		want bool
	}{
		{"−0 and +0", math.Copysign(0, -1), 0, false},
		{"−0 and −0", math.Copysign(0, -1), math.Copysign(0, -1), true},
		{"NaN and the same NaN", nan, nan, true},
		{"NaNs of two payloads", nan, other, false},
		{"NaN and a number", nan, 1, false},
	} {
		if got := of(tc.a).Equal(of(tc.b)); got != tc.want {
			t.Errorf("%s: Equal is %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(42)), 3, 3)
	b := Rand(rand.New(rand.NewSource(42)), 3, 3)
	if !a.Equal(b) {
		t.Fatal("Rand with identical seeds differs")
	}
	for _, v := range a.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("Rand value %v outside [-1,1)", v)
		}
	}
}

func TestIndexIteratorCoversSpace(t *testing.T) {
	it := newIndexIterator([]int{2, 3})
	var got [][]int
	for idx, ok := it.next(); ok; idx, ok = it.next() {
		got = append(got, idx)
	}
	if len(got) != 6 {
		t.Fatalf("iterator yielded %d indices, want 6", len(got))
	}
	if got[0][0] != 0 || got[0][1] != 0 || got[5][0] != 1 || got[5][1] != 2 {
		t.Fatalf("iterator order wrong: %v", got)
	}
}

func TestIndexIteratorEmptySpace(t *testing.T) {
	it := newIndexIterator([]int{2, 0})
	if _, ok := it.next(); ok {
		t.Fatal("iterator over empty space yielded an index")
	}
}

func TestIndexIteratorScalar(t *testing.T) {
	it := newIndexIterator(nil)
	n := 0
	for _, ok := it.next(); ok; _, ok = it.next() {
		n++
	}
	if n != 1 {
		t.Fatalf("scalar space yielded %d indices, want 1", n)
	}
}

func TestNegativeShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with negative dim did not panic")
		}
	}()
	New(2, -1)
}

func TestOutOfBoundsIndexPanics(t *testing.T) {
	x := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds At did not panic")
		}
	}()
	x.At(2, 0)
}

// TestHashBitsAllocatesNothing: the staging block is pooled, so a digest
// that calls HashBits once per tensor list (training hashes one call per
// weight) allocates nothing per call, and how the tensors split across
// calls does not change the bytes the hash sees.
func TestHashBitsAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := Rand(rng, 33, 17), Rand(rng, 700) // b crosses a block boundary
	one, two := sha256.New(), sha256.New()
	HashBits(one, a, b)
	HashBits(two, a)
	HashBits(two, b)
	if !bytes.Equal(one.Sum(nil), two.Sum(nil)) {
		t.Fatal("HashBits over [a b] and over [a] then [b] fed the hash different bytes")
	}
	if raceEnabled {
		t.Skip("sync.Pool deliberately drops items under the race detector")
	}
	h := sha256.New()
	if allocs := testing.AllocsPerRun(100, func() { HashBits(h, a, b) }); allocs != 0 {
		t.Fatalf("HashBits allocates %.1f objects per call, want 0", allocs)
	}
}
