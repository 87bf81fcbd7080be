package gp

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"dragster/internal/stats"
)

func TestSetKernelInvalidatesFit(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	if err := r.SetKernel(nil); err == nil {
		t.Error("nil kernel accepted")
	}
	if err := r.Observe([]float64{0}, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Observe([]float64{1}, 5); err != nil {
		t.Fatal(err)
	}
	muBefore, _, err := r.Posterior([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	// A much longer length scale pulls distant predictions toward the data.
	if err := r.SetKernel(mustSE(t, 10, 1)); err != nil {
		t.Fatal(err)
	}
	muAfter, _, err := r.Posterior([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if muBefore == muAfter {
		t.Error("kernel swap had no effect on the posterior")
	}
}

func TestDefaultHyperGrid(t *testing.T) {
	g, err := DefaultHyperGrid(9, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.LengthScales) == 0 || len(g.Variances) == 0 {
		t.Fatal("empty grid")
	}
	if g.LengthScales[0] <= 0 || g.LengthScales[len(g.LengthScales)-1] != 9 {
		t.Errorf("length scales = %v", g.LengthScales)
	}
	if _, err := DefaultHyperGrid(0, 1); err == nil {
		t.Error("zero diameter accepted")
	}
	if _, err := DefaultHyperGrid(1, -1); err == nil {
		t.Error("negative variance accepted")
	}
}

func TestMaximizeLMLRecoversSensibleScale(t *testing.T) {
	// Data drawn from a smooth function with characteristic scale ~3: the
	// LML search should prefer a length scale well above the smallest and
	// produce a better-fitting posterior than a deliberately bad kernel.
	rng := stats.NewRNG(11)
	target := func(x float64) float64 { return 50 * math.Sin(x/3) }
	r := mustRegressor(t, mustSE(t, 0.2, 1), 1) // bad initial kernel
	for i := 0; i < 25; i++ {
		x := rng.Uniform(0, 12)
		if err := r.Observe([]float64{x}, target(x)+rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	badLML, err := r.LogMarginalLikelihood()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := DefaultHyperGrid(12, 2500)
	if err != nil {
		t.Fatal(err)
	}
	ls, v, lml, err := r.MaximizeLML(grid)
	if err != nil {
		t.Fatal(err)
	}
	if lml <= badLML {
		t.Errorf("optimized LML %v not above initial %v", lml, badLML)
	}
	if ls <= grid.LengthScales[0] {
		t.Errorf("chosen length scale %v stuck at grid minimum", ls)
	}
	if v <= 0 {
		t.Errorf("variance %v", v)
	}
	// Interpolation quality must improve materially with the fitted kernel.
	var mae float64
	for x := 0.5; x < 12; x += 1.0 {
		mu, _, err := r.Posterior([]float64{x})
		if err != nil {
			t.Fatal(err)
		}
		mae += math.Abs(mu - target(x))
	}
	mae /= 12
	if mae > 5 {
		t.Errorf("post-fit MAE = %v, want < 5", mae)
	}
}

// TestMaximizeLMLRestoresKernelOnError: no error return may leave the
// regressor with a half-swapped kernel (the pre-parallel implementation
// mutated the live kernel per grid point and leaked the last candidate on
// early returns). Every failure path must leave the pre-call kernel and
// posterior intact.
func TestMaximizeLMLRestoresKernelOnError(t *testing.T) {
	orig := mustSE(t, 1.7, 2.3)
	r := mustRegressor(t, orig, 0.1)
	rng := stats.NewRNG(12)
	for i := 0; i < 5; i++ {
		if err := r.Observe([]float64{rng.Uniform(0, 5)}, rng.Normal(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	muBefore, varBefore, err := r.Posterior([]float64{2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, grid HyperGrid) {
		t.Helper()
		if _, _, _, err := r.MaximizeLML(grid); err == nil {
			t.Fatalf("%s: expected error", name)
		}
		if got := r.Kernel(); got != Kernel(orig) {
			t.Errorf("%s: kernel = %#v, want original %#v", name, got, orig)
		}
		mu, v, err := r.Posterior([]float64{2})
		if err != nil {
			t.Fatal(err)
		}
		if mu != muBefore || v != varBefore {
			t.Errorf("%s: posterior (%v, %v) drifted from (%v, %v)", name, mu, v, muBefore, varBefore)
		}
	}
	// Invalid hyperparameters midway through the grid (first point valid).
	check("invalid grid point", HyperGrid{LengthScales: []float64{1, -1}, Variances: []float64{1}})
	check("empty grid", HyperGrid{})
}

// TestMaximizeLMLDeterministicAcrossWorkerCounts: the grid argmax is
// reduced in grid order, so the pool's size — GOMAXPROCS — must not
// change the selected kernel or its LML. This is what keeps seeded runs
// byte-identical with parallel hyperparameter search enabled.
func TestMaximizeLMLDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func() *Regressor {
		rng := stats.NewRNG(13)
		r := mustRegressor(t, mustSE(t, 0.3, 1), 0.5)
		for i := 0; i < 20; i++ {
			x := rng.Uniform(0, 12)
			if err := r.Observe([]float64{x}, 20*math.Sin(x/3)+rng.Normal(0, 0.7)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	grid, err := DefaultHyperGrid(12, 400)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	r1 := build()
	ls1, v1, lml1, err := r1.MaximizeLML(grid)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	r := build()
	ls, v, lml, err := r.MaximizeLML(grid)
	if err != nil {
		t.Fatal(err)
	}
	if ls != ls1 || v != v1 || lml != lml1 {
		t.Errorf("GOMAXPROCS=4: (ℓ, σ², lml) = (%v, %v, %v), want (%v, %v, %v) from GOMAXPROCS=1",
			ls, v, lml, ls1, v1, lml1)
	}
	if r.Kernel() != r1.Kernel() {
		t.Errorf("GOMAXPROCS=4: kernel %#v differs from GOMAXPROCS=1 %#v", r.Kernel(), r1.Kernel())
	}
}

func TestMaximizeLMLTooFewPoints(t *testing.T) {
	r := mustRegressor(t, mustSE(t, 1, 1), 0.1)
	grid, err := DefaultHyperGrid(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := r.MaximizeLML(grid); !errors.Is(err, ErrTooFewPoints) {
		t.Errorf("err = %v, want ErrTooFewPoints", err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Observe([]float64{float64(i)}, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := r.MaximizeLML(HyperGrid{}); err == nil {
		t.Error("empty grid accepted")
	}
}
