package dsp

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

// TestOverlapSaveMatchesDirect checks block-wise correlation against
// the direct sum for signals shorter than one block, exactly one block,
// many blocks and a ragged tail.
func TestOverlapSaveMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := make([]float64, 37)
	for i := range h {
		h[i] = rng.NormFloat64()
	}
	for _, n := range []int{37, 38, 100, 256, 257, 1000, 4099} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		offset := complex(rng.NormFloat64(), rng.NormFloat64())
		want := make([]complex128, n-len(h)+1)
		for i := range want {
			for j, hv := range h {
				want[i] += (x[i+j] - offset) * complex(hv, 0)
			}
		}
		o, err := NewOverlapSave(h, OverlapSaveBlock(len(h), n))
		if err != nil {
			t.Fatal(err)
		}
		got := o.Correlate(nil, x, offset)
		if len(got) != len(want) {
			t.Fatalf("n=%d: %d outputs, want %d", n, len(got), len(want))
		}
		for i := range want {
			if cmplx.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d: out[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestOverlapSaveBlockAndValidation(t *testing.T) {
	if b := OverlapSaveBlock(1746, 60000); b != 16384 {
		t.Errorf("block for a 1746-sample template over 60k = %d, want 16384", b)
	}
	if b := OverlapSaveBlock(1746, 2000); b != 2048 {
		t.Errorf("block for a short signal = %d, want 2048", b)
	}
	if b := OverlapSaveBlock(100, 10); b != 128 {
		t.Errorf("block never below the template: got %d, want 128", b)
	}
	if _, err := NewOverlapSave(make([]float64, 10), 8); err == nil {
		t.Error("block shorter than template accepted")
	}
	if _, err := NewOverlapSave(make([]float64, 10), 24); err == nil {
		t.Error("non-power-of-two block accepted")
	}
	if _, err := NewOverlapSave(nil, 8); err == nil {
		t.Error("empty template accepted")
	}
	o, _ := NewOverlapSave(make([]float64, 10), 16)
	if o.Correlate(nil, make([]complex128, 9), 0) != nil {
		t.Error("signal shorter than template gave output")
	}
}
