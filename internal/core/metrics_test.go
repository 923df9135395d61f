package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/ir"
	"repro/internal/obs"
)

// streamRun is the stream program, parsed afresh (a run resolves its
// program in place, so concurrent runs each need their own, as the
// harness builds one per job), and its prefetching configuration.
func streamRun(t *testing.T) (*ir.Program, Config) {
	cfg := DefaultConfig(MachineFor(8<<17, 2))
	cfg.Seed = seedOnes
	return mustProg(t), cfg
}

// TestRunObservabilityAllocBudget: a run's metrics cost it one source
// per layer and device, registered at construction, not one counter and
// map entry per metric name. A small warm run (plan cache hit, recycled
// frame slab and page buffers) is held to its count of objects, the cell
// WarmRun of testdata/allocs.golden; when each of its 103 metric names
// was a counter of its own, the same run allocated 207. A run allocates
// the same with or without a collection before it: an untraced run
// formats no track names, so fmt's printer pool, which a collection
// empties, is not on its path.
func TestRunObservabilityAllocBudget(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	rec.Allocs(t, "WarmRun", 10, func() func() {
		prog, cfg := streamRun(t)
		return func() {
			if _, err := Run(prog, cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestConcurrentMergeMatchesSerial is the harness's pattern under the
// race detector: four goroutines each run jobs on private registries and
// merge them, under the job's prefix, into one shared registry, while a
// fifth snapshots the shared registry until they are done. Live sources
// are read only by their run's goroutine; the shared registry holds
// frozen values only. The final snapshot equals a serial run's.
func TestConcurrentMergeMatchesSerial(t *testing.T) {
	const workers, jobs = 4, 3
	job := func(w, j int, shared *obs.Registry) {
		prog, cfg := streamRun(t)
		cfg.Prefetch = j%2 == 0
		res, err := Run(prog, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		shared.Merge(fmt.Sprintf("w%d/j%d/", w, j), res.Metrics)
	}

	serial := obs.NewRegistry()
	for w := 0; w < workers; w++ {
		for j := 0; j < jobs; j++ {
			job(w, j, serial)
		}
	}

	shared := obs.NewRegistry()
	var wg sync.WaitGroup
	done := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				read <- n
				return
			default:
				shared.Snapshot()
				n++
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < jobs; j++ {
				job(w, j, shared)
			}
		}(w)
	}
	wg.Wait()
	close(done)
	t.Logf("%d snapshots taken while the jobs merged", <-read)
	if got, want := shared.Snapshot(), serial.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent merges snapshot to %d counters and %d gauges, serial to %d and %d, and they differ",
			len(got.Counters), len(got.Gauges), len(want.Counters), len(want.Gauges))
	}
}
