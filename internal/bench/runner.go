package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Job is one unit of work for a Runner — typically a single simulated
// run (one app in one configuration). Every job owns a private
// simulated system and shares no state with its siblings, so jobs are
// safe to execute concurrently; Run must honor ctx so cancellation and
// per-job timeouts reach the simulator's event loop.
type Job struct {
	// Label identifies the job in metrics and progress output,
	// e.g. "BUK/P" or "EMBAR/warm".
	Label string
	// Run does the work. The ctx it receives carries the runner's
	// cancellation and, when Runner.Timeout is set, this job's deadline.
	Run func(ctx context.Context) error
}

// JobMetric records how one job went: wall-clock cost, attempts, and
// outcome. The Runner returns one metric per submitted job, indexed in
// submission order regardless of completion order.
type JobMetric struct {
	Index    int
	Label    string
	Wall     time.Duration // wall clock of the run
	Attempts int           // executions of Job.Run (0 = never started, 1 = ran)
	TimedOut bool          // failed by its own per-job deadline
	Err      error
}

// Progress is delivered to a Runner's Progress callback each time a job
// finishes. Done counts finished jobs; callbacks arrive in completion
// order, which is nondeterministic — progress is for humans, results
// are always collected by index.
type Progress struct {
	Done  int
	Total int
	Job   JobMetric
}

// ProgressFunc observes job completions. It is called from worker
// goroutines, serialized by the Runner.
type ProgressFunc func(Progress)

// Runner executes independent jobs on a worker pool. The zero value is
// ready to use: GOMAXPROCS workers, no timeout.
//
// Ordering and determinism: results are written by submission index,
// never by completion order, so a parallel run is byte-identical to a
// serial one (every simulated system is private and deterministic).
//
// Errors: a job failure cancels the jobs still outstanding (the serial
// harness also stopped at the first error) — except a job that failed
// by its own per-job timeout, which must not poison its siblings. Run
// reports the lowest-index real failure; if the caller's context was
// cancelled, it reports ctx.Err().
type Runner struct {
	// Parallelism is the worker-pool size; <= 0 means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Timeout, if positive, bounds each job's wall-clock time. An
	// expired job aborts cleanly (the deadline is threaded down into
	// the simulator's event loop) without cancelling other jobs.
	Timeout time.Duration
	// Progress, if set, observes each job completion.
	Progress ProgressFunc
	// Trace, if non-nil, gets a "runner" process with one track per
	// worker, spanning every job on the wall clock.
	Trace *obs.Trace
	// Metrics, if non-nil, serves the pool's own counters (runner.jobs,
	// runner.jobs_failed, runner.jobs_timed_out, runner.attempts,
	// runner.wall_ns): each Run registers one source over atomic fields
	// its workers add to, so the registry may be read while Run runs,
	// and the counts of several Runs add up.
	Metrics *obs.Registry
}

// poolObs is the runner's own observability state for one Run.
type poolObs struct {
	proc                                   *obs.Proc
	jobs, failed, timedOut, attempts, wall atomic.Int64
	metrics                                obs.Source
	epoch                                  time.Time
}

// poolMetrics is the pool's metrics table under "runner.", in
// readMetrics' order.
var poolMetrics = []string{"jobs", "jobs_failed", "jobs_timed_out", "attempts", "wall_ns"}

// readMetrics is the pool's obs.Source; any goroutine may call it.
func (po *poolObs) readMetrics(c []int64, _ []float64) {
	copy(c, []int64{po.jobs.Load(), po.failed.Load(), po.timedOut.Load(), po.attempts.Load(), po.wall.Load()})
}

func (r *Runner) observe() *poolObs {
	po := &poolObs{epoch: time.Now()}
	if r.Trace != nil {
		po.proc = r.Trace.NewProcess("runner")
	}
	po.metrics = obs.Source{Prefix: "runner.", Counters: poolMetrics, Fill: po.readMetrics}
	r.Metrics.Register(&po.metrics)
	return po
}

// record accounts one finished job and, when tracing, spans it on the
// worker's track from its wall-clock start.
func (po *poolObs) record(track *obs.Track, label string, started time.Duration, m JobMetric) {
	po.jobs.Add(1)
	po.attempts.Add(int64(m.Attempts))
	po.wall.Add(int64(m.Wall))
	if m.TimedOut {
		po.timedOut.Add(1)
	}
	if m.Err != nil {
		po.failed.Add(1)
	}
	track.Span(label, "job", sim.Time(started), sim.Time(m.Wall))
}

// Run executes jobs and returns one metric per job, in submission
// order. See the Runner doc comment for ordering and error semantics.
func (r *Runner) Run(ctx context.Context, jobs []Job) ([]JobMetric, error) {
	metrics := make([]JobMetric, len(jobs))
	for i := range metrics {
		metrics[i].Index = i
		metrics[i].Label = jobs[i].Label
	}
	if len(jobs) == 0 {
		return metrics, ctx.Err()
	}
	workers := r.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards done and serializes Progress
		done int
	)
	po := r.observe()
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		track := po.proc.Thread(fmt.Sprintf("worker %d", w))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				started := time.Since(po.epoch)
				m := r.runJob(runCtx, i, jobs[i])
				po.record(track, jobs[i].Label, started, m)
				metrics[i] = m
				if m.Err != nil && !m.TimedOut {
					cancel()
				}
				mu.Lock()
				done++
				p := Progress{Done: done, Total: len(jobs), Job: m}
				if r.Progress != nil {
					r.Progress(p)
				}
				mu.Unlock()
			}
		}()
	}
feed:
	for i := range jobs {
		// select picks at random among ready cases; a cancelled run must
		// not hand out another job just because a worker is also ready.
		if runCtx.Err() != nil {
			break
		}
		select {
		case idx <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return metrics, firstError(ctx, metrics)
}

// runJob executes one job once, applying the per-job timeout. A timed-out
// job is not retried: simulated runs are deterministic, so the rerun
// would time out again.
func (r *Runner) runJob(ctx context.Context, i int, job Job) JobMetric {
	m := JobMetric{Index: i, Label: job.Label, Attempts: 1}
	jctx, cancel := ctx, context.CancelFunc(func() {})
	if r.Timeout > 0 {
		jctx, cancel = context.WithTimeout(ctx, r.Timeout)
	}
	start := time.Now()
	m.Err = job.Run(jctx)
	m.Wall = time.Since(start)
	cancel()
	// The job's own deadline expiring is a timeout; the parent context
	// going away is a cancellation.
	if errors.Is(m.Err, context.DeadlineExceeded) && ctx.Err() == nil {
		m.TimedOut = true
		m.Err = fmt.Errorf("%s: run exceeded %v: %w", job.Label, r.Timeout, m.Err)
	}
	return m
}

// firstError picks Run's overall error: the caller's own cancellation
// wins, then the lowest-index real failure. Jobs that died with
// context.Canceled only because a sibling's failure cancelled them are
// passed over when a real failure exists.
func firstError(ctx context.Context, metrics []JobMetric) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled error
	for i := range metrics {
		err := metrics[i].Err
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled):
			if cancelled == nil {
				cancelled = err
			}
		default:
			return err
		}
	}
	return cancelled
}
