package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseEinsumValid(t *testing.T) {
	s, err := ParseEinsum("bf,fh->bh")
	if err != nil {
		t.Fatal(err)
	}
	if s.Inputs[0] != "bf" || s.Inputs[1] != "fh" || s.Output != "bh" {
		t.Fatalf("parsed = %+v", s)
	}
	if s.String() != "bf,fh->bh" {
		t.Fatalf("String = %q", s.String())
	}
	if got := s.ContractedLabels(); got != "f" {
		t.Fatalf("ContractedLabels = %q, want f", got)
	}
	if got := s.BatchLabels(); got != "" {
		t.Fatalf("BatchLabels = %q, want empty", got)
	}
}

func TestParseEinsumBatchLabels(t *testing.T) {
	s, err := ParseEinsum("gbf,gfh->gbh")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.BatchLabels(); got != "g" {
		t.Fatalf("BatchLabels = %q, want g", got)
	}
	if got := s.ContractedLabels(); got != "f" {
		t.Fatalf("ContractedLabels = %q, want f", got)
	}
}

func TestParseEinsumErrors(t *testing.T) {
	bad := []string{
		"bf,fh",      // no arrow
		"bf,fh->bz",  // output label absent from operands
		"b1,1h->bh",  // non-letter label
		"bb,bh->bh",  // repeated label within operand
		"bf,fh->bhh", // repeated output label
		"a,b,c->abc", // three operands
		"->a",        // empty operand with unknown output label
	}
	for _, spec := range bad {
		if _, err := ParseEinsum(spec); err == nil {
			t.Errorf("ParseEinsum(%q) succeeded, want error", spec)
		}
	}
}

func TestEinsumMatmul(t *testing.T) {
	a := FromValues([]int{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	b := FromValues([]int{3, 2}, []float64{7, 8, 9, 10, 11, 12})
	got := Einsum("ik,kj->ij", a, b)
	want := FromValues([]int{2, 2}, []float64{58, 64, 139, 154})
	if !got.Equal(want) {
		t.Fatalf("matmul = %v, want %v", got.Data(), want.Data())
	}
}

func TestEinsumTranspose(t *testing.T) {
	a := Iota(2, 3)
	got := Einsum("ij->ji", a)
	if !got.Equal(Transpose(a, 1, 0)) {
		t.Fatalf("einsum transpose = %v", got.Data())
	}
}

func TestEinsumSumReduction(t *testing.T) {
	a := Iota(2, 3) // 0..5
	got := Einsum("ij->i", a)
	want := FromValues([]int{2}, []float64{3, 12})
	if !got.Equal(want) {
		t.Fatalf("row sums = %v, want %v", got.Data(), want.Data())
	}
}

func TestEinsumBatchedMatmul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := Rand(rng, 4, 2, 3)
	b := Rand(rng, 4, 3, 5)
	got := Einsum("gik,gkj->gij", a, b)
	// Reference: per-batch plain matmul.
	for g := 0; g < 4; g++ {
		ag := Slice(a, []int{g, 0, 0}, []int{g + 1, 2, 3})
		bg := Slice(b, []int{g, 0, 0}, []int{g + 1, 3, 5})
		ref := Einsum("ik,kj->ij", Reshape(ag, 2, 3), Reshape(bg, 3, 5))
		sub := Reshape(Slice(got, []int{g, 0, 0}, []int{g + 1, 2, 5}), 2, 5)
		if !sub.AllClose(ref, 1e-12) {
			t.Fatalf("batched matmul differs at batch %d", g)
		}
	}
}

func TestEinsumOuterProduct(t *testing.T) {
	a := FromValues([]int{2}, []float64{1, 2})
	b := FromValues([]int{3}, []float64{3, 4, 5})
	got := Einsum("i,j->ij", a, b)
	want := FromValues([]int{2, 3}, []float64{3, 4, 5, 6, 8, 10})
	if !got.Equal(want) {
		t.Fatalf("outer product = %v", got.Data())
	}
}

func TestEinsumZeroSizeDim(t *testing.T) {
	a := New(0, 3)
	b := New(3, 2)
	got := Einsum("ik,kj->ij", a, b)
	if got.Dim(0) != 0 || got.Dim(1) != 2 {
		t.Fatalf("zero-size einsum shape = %v", got.Shape())
	}
}

func TestOutputShapeAndFlops(t *testing.T) {
	s, err := ParseEinsum("bf,fh->bh")
	if err != nil {
		t.Fatal(err)
	}
	shape, err := s.OutputShape([]int{8, 4}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if shape[0] != 8 || shape[1] != 16 {
		t.Fatalf("OutputShape = %v", shape)
	}
	flops, err := s.Flops([]int{8, 4}, []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if flops != 2*8*4*16 {
		t.Fatalf("Flops = %d, want %d", flops, 2*8*4*16)
	}
	if _, err := s.OutputShape([]int{8, 4}, []int{5, 16}); err == nil {
		t.Fatal("mismatched contraction sizes must error")
	}
}

// Property: einsum is linear in its first operand.
func TestEinsumLinearity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(4)
		a1 := Rand(rng, m, k)
		a2 := Rand(rng, m, k)
		b := Rand(rng, k, n)
		lhs := Einsum("ik,kj->ij", Add(a1, a2), b)
		rhs := Add(Einsum("ik,kj->ij", a1, b), Einsum("ik,kj->ij", a2, b))
		return lhs.AllClose(rhs, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting the contracting dimension and summing the partial
// einsums reproduces the full einsum — the core identity behind the
// Einsum-ReduceScatter decomposition (paper §5.1 Case 2).
func TestEinsumContractionSplitIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		k := parts * (1 + rng.Intn(3))
		n := 1 + rng.Intn(4)
		a := Rand(rng, m, k)
		b := Rand(rng, k, n)
		full := Einsum("ik,kj->ij", a, b)
		aParts := Split(a, 1, parts)
		bParts := Split(b, 0, parts)
		acc := New(m, n)
		for p := 0; p < parts; p++ {
			acc = Add(acc, Einsum("ik,kj->ij", aParts[p], bParts[p]))
		}
		return acc.AllClose(full, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: splitting a non-contracting dimension and concatenating the
// partial results reproduces the full einsum — the identity behind the
// AllGather-Einsum decomposition (paper §5.1 Case 1).
func TestEinsumNonContractingSplitIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		parts := 1 + rng.Intn(4)
		m := parts * (1 + rng.Intn(3))
		k := 1 + rng.Intn(4)
		n := 1 + rng.Intn(4)
		a := Rand(rng, m, k)
		b := Rand(rng, k, n)
		full := Einsum("ik,kj->ij", a, b)
		aParts := Split(a, 0, parts)
		var partials []*Tensor
		for p := 0; p < parts; p++ {
			partials = append(partials, Einsum("ik,kj->ij", aParts[p], b))
		}
		return Concat(0, partials...).AllClose(full, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEinsumMatmul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := Rand(rng, 64, 64)
	y := Rand(rng, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Einsum("ik,kj->ij", x, y)
	}
}

// TestEinsumIntoAllocatesNothing: an executor evaluates every einsum
// into the buffer its plan assigned, every step, so checking the
// operands' and the destination's shapes against the spec costs no
// allocation on any layout the kernels read in place.
func TestEinsumIntoAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct {
		spec   string
		lhs    []int
		rhs    []int
		result []int
	}{
		{"mk,kn->mn", []int{8, 16}, []int{16, 4}, []int{8, 4}},
		{"mk,nk->mn", []int{8, 16}, []int{4, 16}, []int{8, 4}},
		{"km,kn->mn", []int{16, 8}, []int{16, 4}, []int{8, 4}},
	} {
		a, b, dst := Rand(rng, tc.lhs...), Rand(rng, tc.rhs...), New(tc.result...)
		if allocs := testing.AllocsPerRun(50, func() { EinsumIntoSplitK(dst, nil, 0, tc.spec, a, b) }); allocs != 0 {
			t.Errorf("%s into a given destination allocates %v times a call", tc.spec, allocs)
		}
	}
}
