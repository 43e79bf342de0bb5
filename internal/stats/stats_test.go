package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v", got)
	}
	if got := GeoMean([]float64{3}); !almostEqual(got, 3, 1e-12) {
		t.Errorf("GeoMean(3) = %v", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v", got)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GeoMean(0) did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestGeoMeanBetweenMinAndMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-9 && v < 1e9 && !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := GeoMean(xs)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty-input Mean nonzero")
	}
}

// TestStandardize checks the column scaling LinReg regresses on: zero
// mean and unit population variance.
func TestStandardize(t *testing.T) {
	out := standardize([]float64{2, 4, 4, 4, 5, 5, 7, 9}) // mean 5, sd 2
	ss := 0.0
	for _, v := range out {
		ss += v * v
	}
	if !almostEqual(Mean(out), 0, 1e-12) || !almostEqual(ss/float64(len(out)), 1, 1e-12) || !almostEqual(out[0], -1.5, 1e-12) {
		t.Errorf("standardized %v: mean %v, variance %v", out, Mean(out), ss/float64(len(out)))
	}
	// Constant column maps to zeros, not NaN.
	for _, v := range standardize([]float64{7, 7, 7}) {
		if v != 0 {
			t.Error("constant column not zeroed")
		}
	}
}

func TestLinRegRecoversPlantedModel(t *testing.T) {
	// y = 3*x0 + 0*x1 + 1*x2 (+noise): coefficient ranking must put
	// x0 first and x1 last, matching how Table 5 ranks counters.
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		x0, x1, x2 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		X = append(X, []float64{x0, x1, x2})
		y = append(y, 3*x0+x2+0.01*rng.NormFloat64())
	}
	beta, err := LinReg(X, y)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(beta[0]) > math.Abs(beta[2]) && math.Abs(beta[2]) > math.Abs(beta[1])) {
		t.Errorf("coefficient ranking wrong: %v", beta)
	}
	if math.Abs(beta[1]) > 0.05 {
		t.Errorf("irrelevant predictor got weight %v", beta[1])
	}
}

func TestLinRegHandlesCorrelatedColumns(t *testing.T) {
	// Nearly-collinear predictors (like walk cycles vs dTLB misses)
	// must not blow up thanks to the ridge term.
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := rng.NormFloat64()
		X = append(X, []float64{x, x + 1e-9*rng.NormFloat64()})
		y = append(y, 2*x)
	}
	beta, err := LinReg(X, y)
	if err != nil {
		t.Fatalf("collinear system failed: %v", err)
	}
	for _, b := range beta {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			t.Fatalf("non-finite coefficient: %v", beta)
		}
	}
}

func TestLinRegInputValidation(t *testing.T) {
	if _, err := LinReg(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := LinReg([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := LinReg([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(6, 3) != 2 {
		t.Error("Ratio(6,3)")
	}
	if Ratio(0, 0) != 1 {
		t.Error("Ratio(0,0)")
	}
	if Ratio(5, 0) != 5 {
		t.Error("Ratio(5,0)")
	}
}
