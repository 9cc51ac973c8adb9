package dtw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistanceIdentity(t *testing.T) {
	a := []float64{1, 2, 3, 2, 1}
	if d := Distance(a, a, -1); d != 0 {
		t.Fatalf("DTW(a, a) = %v, want 0", d)
	}
	if d := Distance(a, a, 0); d != 0 {
		t.Fatalf("banded DTW(a, a) = %v, want 0", d)
	}
}

func TestDistanceEmpty(t *testing.T) {
	if d := Distance(nil, []float64{1}, -1); !math.IsInf(d, 1) {
		t.Fatalf("empty DTW = %v, want +Inf", d)
	}
}

func TestDistanceBandZeroIsEuclidean(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 2, 5}
	want := math.Sqrt(1 + 0 + 4)
	if d := Distance(a, b, 0); math.Abs(d-want) > 1e-12 {
		t.Fatalf("band-0 DTW = %v, want Euclidean %v", d, want)
	}
}

func TestDistanceBandUnreachable(t *testing.T) {
	// Length difference 3 with band 1: no path reaches the corner.
	if d := Distance([]float64{1, 2, 3, 4, 5}, []float64{1, 2}, 1); !math.IsInf(d, 1) {
		t.Fatalf("unreachable band DTW = %v, want +Inf", d)
	}
}

// TestDistanceHandlesShift: DTW of a shifted bump against the original is
// far smaller than the Euclidean distance — the property that makes it a
// candidate dissimilarity for shifted patterns (Sec. 8).
func TestDistanceHandlesShift(t *testing.T) {
	n := 60
	a := make([]float64, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = bump(i, 25)
		b[i] = bump(i, 32) // the same bump, 7 ticks later
	}
	euclid := Distance(a, b, 0)
	warped := Distance(a, b, 10)
	if warped > euclid/4 {
		t.Fatalf("DTW %v not clearly below Euclidean %v on a shifted bump", warped, euclid)
	}
}

func bump(i, center int) float64 {
	d := float64(i - center)
	return math.Exp(-d * d / 18)
}

// TestDistanceSymmetry: DTW is symmetric on equal-length inputs.
func TestDistanceSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randomPair(seed, 20)
		return math.Abs(Distance(a, b, -1)-Distance(b, a, -1)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDistanceUpperBoundedByEuclidean: unconstrained DTW never exceeds the
// diagonal (Euclidean) alignment on equal-length inputs.
func TestDistanceUpperBoundedByEuclidean(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randomPair(seed, 16)
		return Distance(a, b, -1) <= Distance(a, b, 0)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBandMonotonicity: widening the band can only decrease the distance.
func TestBandMonotonicity(t *testing.T) {
	f := func(seed int64) bool {
		a, b := randomPair(seed, 14)
		prev := math.Inf(1)
		for _, band := range []int{0, 1, 2, 4, 8, -1} {
			d := Distance(a, b, band)
			if d > prev+1e-9 {
				return false
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBestLagRecoversShift(t *testing.T) {
	n := 400
	s := make([]float64, n)
	r := make([]float64, n)
	const shift = 17
	for i := 0; i < n; i++ {
		s[i] = math.Sin(2*math.Pi*float64(i)/97) + 0.3*math.Sin(2*math.Pi*float64(i)/41)
		j := i - shift
		r[i] = math.Sin(2*math.Pi*float64(j)/97) + 0.3*math.Sin(2*math.Pi*float64(j)/41)
	}
	if got := BestLag(s, r, 40); got != -shift {
		t.Fatalf("BestLag = %d, want %d (r trails s by %d)", got, -shift, shift)
	}
	// Aligning r by the estimated lag must make the series nearly equal.
	aligned := Align(r, BestLag(s, r, 40))
	worst := 0.0
	for i := 50; i < n-50; i++ {
		if e := math.Abs(aligned[i] - s[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-9 {
		t.Fatalf("aligned residual %v, want ≈ 0", worst)
	}
}

func TestBestLagZeroForAligned(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 4, 3, 2}
	if got := BestLag(s, s, 4); got != 0 {
		t.Fatalf("BestLag(s, s) = %d, want 0", got)
	}
	if got := BestLag(nil, nil, 3); got != 0 {
		t.Fatalf("BestLag on empty = %d, want 0", got)
	}
}

func TestBestLagSkipsMissing(t *testing.T) {
	n := 200
	s := make([]float64, n)
	r := make([]float64, n)
	for i := 0; i < n; i++ {
		s[i] = math.Sin(float64(i) / 7)
		r[i] = math.Sin(float64(i-5) / 7)
	}
	s[10] = math.NaN()
	r[60] = math.NaN()
	if got := BestLag(s, r, 20); got != -5 {
		t.Fatalf("BestLag with NaNs = %d, want -5", got)
	}
}

func TestAlignBoundaries(t *testing.T) {
	r := []float64{1, 2, 3, 4}
	got := Align(r, 2)
	want := []float64{1, 1, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Align(+2) = %v, want %v", got, want)
		}
	}
	got = Align(r, -2)
	want = []float64{3, 4, 4, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Align(-2) = %v, want %v", got, want)
		}
	}
}

func randomPair(seed int64, n int) (a, b []float64) {
	state := uint64(seed)*0x9e3779b97f4a7c15 + 1
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%200)/10 - 10
	}
	a = make([]float64, n)
	b = make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = next(), next()
	}
	return a, b
}
