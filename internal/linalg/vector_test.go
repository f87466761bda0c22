package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDotNormNormalize(t *testing.T) {
	a := []float64{3, 4}
	if Dot(a, a) != 25 {
		t.Fatalf("Dot = %v", Dot(a, a))
	}
	if Norm(a) != 5 {
		t.Fatalf("Norm = %v", Norm(a))
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestCosineSimilarity(t *testing.T) {
	if got := CosineSimilarity([]float64{1, 0}, []float64{1, 0}); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("identical cos = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{0, 1}); !almostEqual(got, 0, 1e-12) {
		t.Fatalf("orthogonal cos = %v", got)
	}
	if got := CosineSimilarity([]float64{1, 0}, []float64{-1, 0}); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("opposite cos = %v", got)
	}
	if got := CosineSimilarity([]float64{0, 0}, []float64{1, 0}); got != 0 {
		t.Fatalf("zero-vector cos = %v", got)
	}
}

func TestDistances(t *testing.T) {
	a, b := []float64{0, 0}, []float64{3, 4}
	if SquaredDistance(a, b) != 25 {
		t.Fatalf("sqdist = %v", SquaredDistance(a, b))
	}
	if Distance(a, b) != 5 {
		t.Fatalf("dist = %v", Distance(a, b))
	}
}

func TestMeanStdDev(t *testing.T) {
	v := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(v) != 5 {
		t.Fatalf("Mean = %v", Mean(v))
	}
	if !almostEqual(StdDev(v), 2, 1e-12) {
		t.Fatalf("StdDev = %v", StdDev(v))
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty stats should be 0")
	}
}

// Property: Cauchy–Schwarz, |a·b| ≤ ‖a‖·‖b‖, and cosine similarity ∈ [−1, 1].
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		if math.Abs(Dot(a, b)) > Norm(a)*Norm(b)+1e-9 {
			return false
		}
		cs := CosineSimilarity(a, b)
		return cs >= -1-1e-9 && cs <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
