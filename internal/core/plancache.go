package core

import (
	"sync"
	"sync/atomic"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
)

// The plan cache makes Run's front half — parse-independent compilation:
// locality analysis, prefetch planning, program transformation, and
// bytecode assembly — a once-per-configuration cost instead of a
// per-run cost. Everything behind it (VM, file system, scheduler,
// metrics) is still built fresh per run; only the immutable compiled
// artifact is shared. Two runs hit the same entry exactly when nothing
// that can influence compilation differs:
//
//   - the machine (hw.Params is a flat comparable struct; page size,
//     memory size, and tier all shape the plan),
//   - the program's structural fingerprint (ir.Program.Fingerprint —
//     covers parameter values and their compile-time visibility),
//   - whether the prefetching compiler runs at all (Config.Prefetch),
//   - every plan-affecting compiler option, with a profile guide
//     reduced to its content fingerprint.
//
// Invalidation is purely by key: programs and machines are never
// mutated in place by the cache (each entry compiles a private
// ir.Program.Clone), so a changed scale, tier, or profile simply misses
// to a new entry. Profile-recording runs bypass the cache entirely —
// their bytecode feeds one run's recorder and is one-shot.
type planKey struct {
	machine  hw.Params
	progFP   uint64
	prefetch bool

	// compiler.Options, flattened; zero when prefetch is false.
	pagesPerFetch   int64
	releases        bool
	twoVersionLoops bool
	defaultEstTrip  int64
	profileFP       uint64
}

// planEntry is one cached compilation. The once gate means concurrent
// first users of a key compile exactly once and everyone waits for the
// result; a failed compile is cached too (the same inputs would fail
// the same way).
type planEntry struct {
	once sync.Once
	err  error

	execProg   *ir.Program
	plan       []compiler.PlanEntry
	mismatches int64
	art        *exec.Artifact
}

var (
	planMu    sync.Mutex
	planTable = map[planKey]*planEntry{}

	planHits   atomic.Uint64
	planMisses atomic.Uint64
)

// PlanCacheStats reports cumulative plan-cache hits and misses and the
// current number of cached entries, for tests and tooling.
func PlanCacheStats() (hits, misses uint64, entries int) {
	planMu.Lock()
	entries = len(planTable)
	planMu.Unlock()
	return planHits.Load(), planMisses.Load(), entries
}

// ResetPlanCache drops every cached plan and zeroes the counters. Tests
// use it to get deterministic hit/miss accounting.
func ResetPlanCache() {
	planMu.Lock()
	planTable = map[planKey]*planEntry{}
	planMu.Unlock()
	planHits.Store(0)
	planMisses.Store(0)
}

func newPlanKey(prog *ir.Program, machine hw.Params, prefetch bool, copts compiler.Options) planKey {
	k := planKey{
		machine:  machine,
		progFP:   prog.Fingerprint(),
		prefetch: prefetch,
	}
	if prefetch {
		k.pagesPerFetch = copts.PagesPerFetch
		k.releases = copts.Releases
		k.twoVersionLoops = copts.TwoVersionLoops
		k.defaultEstTrip = copts.DefaultEstTrip
		if copts.Profile != nil {
			k.profileFP = copts.Profile.Fingerprint()
		}
	}
	return k
}

// cachedPlan returns the compiled plan for (prog, machine, options),
// compiling at most once per key. hit reports whether a previously
// compiled entry was reused. The compile runs on a private clone of
// prog, so the caller's program remains free to be re-parameterized.
func cachedPlan(prog *ir.Program, machine hw.Params, prefetch bool, copts compiler.Options) (*planEntry, bool) {
	key := newPlanKey(prog, machine, prefetch, copts)
	planMu.Lock()
	ent, found := planTable[key]
	if !found {
		ent = &planEntry{}
		planTable[key] = ent
	}
	planMu.Unlock()
	hit := true
	ent.once.Do(func() {
		hit = false
		compilePlan(ent, prog, machine, prefetch, copts)
	})
	if hit {
		planHits.Add(1)
	} else {
		planMisses.Add(1)
	}
	return ent, hit
}

func compilePlan(ent *planEntry, prog *ir.Program, machine hw.Params, prefetch bool, copts compiler.Options) {
	ent.execProg = prog.Clone()
	if prefetch {
		res, err := compiler.Compile(ent.execProg, machine, copts)
		if err != nil {
			ent.err = err
			return
		}
		ent.execProg = res.Prog
		ent.plan = res.Plan
		ent.mismatches = res.ProfileMismatches
	}
	art, err := exec.Compile(ent.execProg, machine.PageSize, exec.Options{})
	if err != nil {
		ent.err = err
		return
	}
	ent.art = art
}
