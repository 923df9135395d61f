package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/nas"
)

// runNAS runs one NAS proxy at a small scale, its memory 1/ratio of its
// data, original or prefetching.
func runNAS(app *nas.App, ratio float64, prefetch bool) (*ir.Program, *Result, error) {
	const scale = 0.05
	ps := hw.Default().PageSize
	prog := app.Build(scale)
	if err := prog.Resolve(ps); err != nil {
		return nil, nil, err
	}
	cfg := DefaultConfig(MachineFor(nas.DataBytes(prog, ps), ratio))
	cfg.Prefetch = prefetch
	cfg.Seed = app.Seed
	res, err := Run(prog, cfg)
	return prog, res, err
}

// TestFinishedRunIsReadOnly: a finished run has handed its frames to the
// next one, so its Result.VM serves Peek from the backing store — every
// NAS proxy's own check passes on it, original and prefetching, with
// pages that were resident at the end — and a touch panics, naming the
// run, on a page left hot and on one that was not.
func TestFinishedRunIsReadOnly(t *testing.T) {
	for _, app := range nas.Apps() {
		for _, prefetch := range []bool{false, true} {
			prog, res, err := runNAS(app, app.Ratio(), prefetch)
			if err != nil {
				t.Fatalf("%s prefetch=%v: %v", app.Name, prefetch, err)
			}
			v := res.VM
			hot, cold := int64(-1), int64(-1)
			for p := int64(0); p < v.AllocatedPages(); p++ {
				if v.Resident(p) {
					hot = p
				} else {
					cold = p
				}
			}
			if hot < 0 || cold < 0 {
				t.Fatalf("%s prefetch=%v: resident page %d, non-resident page %d: want one of each", app.Name, prefetch, hot, cold)
			}
			if err := app.Check(prog, v, res.Env); err != nil {
				t.Errorf("%s prefetch=%v: check on the finished run: %v", app.Name, prefetch, err)
			}
			want := fmt.Sprintf("of %q touched after its run finished", prog.Name)
			ps := v.Params().PageSize
			for _, p := range []int64{hot, cold} {
				for _, touch := range []struct {
					name string
					f    func()
				}{
					{"Load", func() { v.Load(p * ps) }},
					{"Store", func() { v.Store(p*ps, 1) }},
					{"TouchAsync", func() { v.TouchAsync(p) }},
				} {
					if msg := panicOf(touch.f); !strings.Contains(msg, want) {
						t.Errorf("%s prefetch=%v: %s of page %d: panic %q, want one containing %q",
							app.Name, prefetch, touch.name, p, msg, want)
					}
				}
			}
		}
	}
}

func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestConcurrentRunsShareNoSlab: every run adopts from and donates to one
// process-wide frame-slab stash. Four goroutines run proxies of mixed
// memory sizes at once, and each run's output fingerprint must equal the
// same run's fingerprint alone: no two live runs ever hold the same
// frames. Run it under -race (make race).
func TestConcurrentRunsShareNoSlab(t *testing.T) {
	type job struct {
		app      *nas.App
		ratio    float64
		prefetch bool
	}
	var jobs []job
	for _, name := range []string{"BUK", "CGM", "MGRID", "EMBAR"} {
		for _, ratio := range []float64{1, 2, 4} {
			jobs = append(jobs, job{nas.ByName(name), ratio, ratio != 2})
		}
	}
	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		_, res, err := runNAS(j.app, j.ratio, j.prefetch)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.VM.Fingerprint()
	}

	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at a different job, so different sizes
			// are in flight together.
			for k := range jobs {
				i := (k + w*len(jobs)/workers) % len(jobs)
				j := jobs[i]
				_, res, err := runNAS(j.app, j.ratio, j.prefetch)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.VM.Fingerprint(); got != want[i] {
					t.Errorf("%s ratio %v prefetch=%v: fingerprint %#x beside other runs, %#x alone",
						j.app.Name, j.ratio, j.prefetch, got, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
