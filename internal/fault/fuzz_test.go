package fault_test

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fault/harness"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
	"repro/internal/sim"
)

// fuzzKernelSrc is a small out-of-core kernel (128 KB of data on a
// 64 KB machine): big enough to page, prefetch, write back, and brown
// out; small enough that one run is a few milliseconds of wall clock.
const fuzzKernelSrc = `
program fuzzkernel
param n = 1 << 13
array double a[n]
array double b[n]
scalar double s
for i = 0 .. n {
    a[i] = a[i] + b[i]
}
for i = 0 .. n {
    s = s + a[i]
}
`

var fuzzGolden struct {
	once sync.Once
	k    harness.Kernel
	sum  uint64
	err  error
}

// fuzzKernel returns the shared kernel and its fault-free golden
// fingerprint, computed once per test process.
func fuzzKernel(t *testing.T) (harness.Kernel, uint64) {
	t.Helper()
	fuzzGolden.once.Do(func() {
		build := func() *ir.Program {
			p, err := lang.Parse(fuzzKernelSrc)
			if err != nil {
				panic(err)
			}
			return p
		}
		prog := build()
		ps := hw.Default().PageSize
		if err := prog.Resolve(ps); err != nil {
			fuzzGolden.err = err
			return
		}
		cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), 2))
		fuzzGolden.k = harness.Kernel{Name: "fuzzkernel", Build: build, Cfg: cfg}
		_, fuzzGolden.sum, fuzzGolden.err = harness.Run(fuzzGolden.k, nil)
	})
	if fuzzGolden.err != nil {
		t.Fatal(fuzzGolden.err)
	}
	return fuzzGolden.k, fuzzGolden.sum
}

// clampRate folds an arbitrary fuzzed float into a valid fault rate.
func clampRate(x float64) float64 {
	if math.IsNaN(x) || x < 0 {
		return 0
	}
	if x > fault.MaxRate {
		return fault.MaxRate
	}
	return x
}

// TestBrownoutPhaseLockTerminates: a brownout whose 4 ns period divides
// the kernel's service time and every back-off. An attempt that starts in
// a window would be followed only by attempts in later windows, a demand
// read requeued after its budget runs out included; the run must still
// finish, with the fault-free output.
func TestBrownoutPhaseLockTerminates(t *testing.T) {
	prof := fault.Profile{Name: "phase-lock", Seed: 43, BrownoutPeriod: 4, BrownoutDuration: 2,
		Retry: fault.RetryPolicy{MaxAttempts: 7, Timeout: 50 * sim.Millisecond}}
	k, golden := fuzzKernel(t)
	r, err := harness.CheckAgainst(k, prof, nil, golden)
	if err != nil {
		t.Fatal(err)
	}
	if r.Faulted.Faults.BrownoutFailures == 0 {
		t.Fatal("no attempt browned out: the test is vacuous")
	}
}

// FuzzFaultSchedule feeds arbitrary fault schedules — any combination of
// error rates, latency spikes, drop rates, brownout geometry, and retry
// policy — into a small kernel run, asserting the run terminates, does
// not panic, and produces byte-identical output to the fault-free run.
// Inputs are folded into the profile's valid domain (every valid
// schedule must preserve results; invalid ones are rejected by Validate,
// which has its own unit tests).
func FuzzFaultSchedule(f *testing.F) {
	f.Add(uint64(1), 0.3, 0.0, 0.0, 1.0, 0.0, int64(0), int64(0), uint8(0), uint8(0))
	f.Add(uint64(2), 0.0, 0.3, 0.0, 1.0, 0.0, int64(0), int64(0), uint8(3), uint8(10))
	f.Add(uint64(3), 0.0, 0.0, 0.5, 12.0, 0.0, int64(0), int64(0), uint8(0), uint8(0))
	f.Add(uint64(4), 0.0, 0.0, 0.0, 1.0, 0.6, int64(0), int64(0), uint8(0), uint8(0))
	f.Add(uint64(5), 0.0, 0.0, 0.0, 1.0, 0.0, int64(40*sim.Millisecond), int64(10*sim.Millisecond), uint8(2), uint8(30))
	f.Add(uint64(6), 0.9, 0.9, 0.9, 16.0, 0.9, int64(25*sim.Millisecond), int64(24*sim.Millisecond), uint8(1), uint8(1))

	f.Fuzz(func(t *testing.T, seed uint64, rerr, werr, slowR, slowF, drop float64,
		bper, bdur int64, attempts, timeoutMs uint8) {
		prof := fault.Profile{
			Name:           "fuzz",
			Seed:           seed,
			ReadErrorRate:  clampRate(rerr),
			WriteErrorRate: clampRate(werr),
			SlowRate:       clampRate(slowR),
			DropRate:       clampRate(drop),
			Retry: fault.RetryPolicy{
				MaxAttempts: int(attempts % 8),
				Timeout:     sim.Time(timeoutMs%100) * sim.Millisecond,
			},
		}
		if prof.SlowRate > 0 {
			if math.IsNaN(slowF) || slowF < 1 {
				slowF = 1
			}
			if slowF > 32 {
				slowF = 32
			}
			prof.SlowFactor = slowF
		}
		// Brownout geometry: fold the period into (0, 50ms] and the
		// duration strictly below it, or disable both.
		if bper < 0 {
			bper = -bper
		}
		if bper > 0 {
			period := sim.Time(bper)%(50*sim.Millisecond) + 1
			if bdur < 0 {
				bdur = -bdur
			}
			dur := sim.Time(bdur) % period
			if dur > 0 {
				prof.BrownoutPeriod, prof.BrownoutDuration = period, dur
			}
		}
		if err := prof.Validate(); err != nil {
			t.Fatalf("folded profile must validate: %v (%+v)", err, prof)
		}

		k, golden := fuzzKernel(t)
		if !prof.Enabled() {
			// Nothing to inject; the golden already covers this run.
			return
		}
		if _, err := harness.CheckAgainst(k, prof, nil, golden); err != nil {
			t.Fatal(err)
		}
	})
}
