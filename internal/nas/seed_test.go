package nas

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/stripefs"
)

// seededRun is one out-of-core prefetching run of app at scale, validated;
// it returns the fingerprint of the run's complete memory image. seed, if
// non-nil, stands in for app.Seed.
func seededRun(app *App, scale float64, seed func(*ir.Program, *stripefs.File, int64)) (uint64, error) {
	prog := app.Build(scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return 0, err
	}
	cfg := outOfCorePrefetch(DataBytes(prog, ps))
	cfg.Seed = app.Seed
	if seed != nil {
		cfg.Seed = seed
	}
	res, err := core.Run(prog, cfg)
	if err != nil {
		return 0, err
	}
	if err := app.Check(prog, res.VM, res.Env); err != nil {
		return 0, err
	}
	return res.VM.Fingerprint(), nil
}

// TestSeedSharesImage: a run after the first of an App's program seeds
// nothing — its Seed allocates no object (cells Seed/<app> of
// testdata/allocs.golden) — and no run writes the shared image, although
// FFT's transposes rewrite re and im and APPLU's sweeps update rsd in
// place: a third run ends in the first run's memory image.
func TestSeedSharesImage(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	for _, app := range Apps() {
		first, err := seededRun(app, smallScale, nil)
		if err != nil {
			t.Fatalf("%s: first run: %v", app.Name, err)
		}
		var allocs uint64
		_, err = seededRun(app, smallScale, func(prog *ir.Program, file *stripefs.File, ps int64) {
			allocs = uint64(testing.AllocsPerRun(1, func() { app.Seed(prog, file, ps) }))
		})
		if err != nil {
			t.Fatalf("%s: second run: %v", app.Name, err)
		}
		rec.CheckAllocs(t, "Seed/"+app.Name, allocs)
		third, err := seededRun(app, smallScale, nil)
		if err != nil {
			t.Fatalf("%s: third run: %v", app.Name, err)
		}
		if third != first {
			t.Errorf("%s: the third run's memory image %#x differs from the first's %#x: a run wrote the shared image", app.Name, third, first)
		}
	}
}

// TestConcurrentSeeds: four goroutines run FFT at once, alternating
// between two programs so that the App's image slot is both hit and
// missed, taken empty and put back by runs of either size; every run ends
// in the memory image a run of its program ends in alone.
func TestConcurrentSeeds(t *testing.T) {
	app := FFT()
	scales := []float64{0.01, smallScale}
	if app.Build(scales[0]).Fingerprint() == app.Build(scales[1]).Fingerprint() {
		t.Fatal("the two scales build one program")
	}
	want := make([]uint64, len(scales))
	for i, s := range scales {
		fp, err := seededRun(app, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fp
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				i := (w + j) % len(scales)
				fp, err := seededRun(app, scales[i], nil)
				if err == nil && fp != want[i] {
					err = fmt.Errorf("memory image %#x, want %#x", fp, want[i])
				}
				if err != nil {
					t.Errorf("worker %d, run %d (scale %v): %v", w, j, scales[i], err)
				}
			}
		}()
	}
	wg.Wait()
}
