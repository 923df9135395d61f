package main

import (
	"math"

	"repro/internal/disk"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/vm"
)

// simTotals accumulates the deterministic numbers of the simulated runs
// of one pass; the named simulated metrics and the exact layer counts
// are built from it. Every workload that simulates shares it, so a
// metric means the same thing on each.
type simTotals struct {
	elapsed, user, sysFault, sysPrefetch, idle float64 // simulated seconds, all runs

	// Hinted runs only (P variants, tenants): what prefetching achieved.
	pElapsed, pIdle, pSysPrefetch float64
	hits, pfFaults, origFaults    int64

	// Original-versus-prefetching pairs, where the workload has them.
	pairs                            int
	oIdle, oUser, pUser, logSpeedups float64

	major, minor                             int64
	pfCalls, pfIssued, pfUnneeded, pfDropped int64
	writebacks, reclaims                     int64
	rtInserted, rtFiltered, rtIssuedCalls    int64
	rtBudget                                 int64
	diskReq, diskWrites, diskRetries         int64
	utilSum                                  float64 // Σ over utilRuns arrays of the mean device utilization
	utilRuns                                 int
	events, requeued                         int64
}

// addRun adds one finished run's VM accounting. hinted marks runs whose
// program carried prefetch hints.
func (t *simTotals) addRun(elapsed sim.Time, times vm.TimeStats, mem vm.Stats, hinted bool) {
	t.elapsed += elapsed.Seconds()
	t.user += times.User.Seconds()
	t.sysFault += times.SysFault.Seconds()
	t.sysPrefetch += times.SysPrefetch.Seconds()
	t.idle += times.Idle.Seconds()
	if hinted {
		t.pElapsed += elapsed.Seconds()
		t.pIdle += times.Idle.Seconds()
		t.pSysPrefetch += times.SysPrefetch.Seconds()
		t.hits += mem.PrefetchedHits
		t.pfFaults += mem.PrefetchedFaults
		t.origFaults += mem.OriginalFaults()
	}
	t.major += mem.MajorFaults
	t.minor += mem.MinorFaults
	t.pfCalls += mem.PrefetchCalls
	t.pfIssued += mem.PrefetchIssued
	t.pfUnneeded += mem.PrefetchUnneeded
	t.pfDropped += mem.PrefetchDropped
	t.writebacks += mem.Writebacks
	t.reclaims += mem.Reclaims
}

// addPair records one original (O) and prefetching (P) run of the same
// program on the same machine, for the paper's O-relative aggregates.
func (t *simTotals) addPair(oElapsed sim.Time, o vm.TimeStats, pElapsed sim.Time, p vm.TimeStats) {
	t.pairs++
	t.oIdle += o.Idle.Seconds()
	t.oUser += o.User.Seconds()
	t.pUser += p.User.Seconds()
	t.logSpeedups += math.Log(oElapsed.Seconds() / pElapsed.Seconds())
}

func (t *simTotals) addRT(s rt.Stats) {
	t.rtInserted += s.InsertedPages
	t.rtFiltered += s.FilteredPages
	t.rtIssuedCalls += s.IssuedCalls
	t.rtBudget += s.BudgetDropped
}

func (t *simTotals) addDisks(ds []disk.Stats) {
	t.diskReq += requests(ds)
	for _, d := range ds {
		t.diskWrites += d.Requests[disk.Write]
		t.diskRetries += d.Retries
	}
}

// counts turns the totals into the named simulated metrics and the
// exact layer counts. Keys that are not metric names feed the derived
// layer metrics of the traced run.
func (t *simTotals) counts() counts {
	c := counts{
		// End to end: the prefetching configuration on the simulated clock.
		"sim_elapsed_s":           t.pElapsed,
		"sim_idle_share":          ratio(t.pIdle, t.pElapsed),
		"sim_coverage":            ratio(float64(t.hits+t.pfFaults), float64(t.origFaults)),
		"sim_hint_overhead_share": ratio(t.pSysPrefetch, t.pElapsed),

		"rt.inserted_pages":          float64(t.rtInserted),
		"rt.filtered_pages":          float64(t.rtFiltered),
		"rt.filtered_share":          ratio(float64(t.rtFiltered), float64(t.rtInserted)),
		"rt.issued_calls":            float64(t.rtIssuedCalls),
		"rt.budget_dropped":          float64(t.rtBudget),
		"vm.faults_major":            float64(t.major),
		"vm.faults_minor":            float64(t.minor),
		"vm.prefetch_calls":          float64(t.pfCalls),
		"vm.prefetch_issued":         float64(t.pfIssued),
		"vm.prefetch_unneeded":       float64(t.pfUnneeded),
		"vm.prefetch_dropped":        float64(t.pfDropped),
		"vm.prefetched_hit_share":    ratio(float64(t.hits), float64(t.hits+t.pfFaults)),
		"vm.writebacks":              float64(t.writebacks),
		"vm.reclaims":                float64(t.reclaims),
		"vm.time_user_share":         ratio(t.user, t.elapsed),
		"vm.time_sys_fault_share":    ratio(t.sysFault, t.elapsed),
		"vm.time_sys_prefetch_share": ratio(t.sysPrefetch, t.elapsed),
		"vm.time_idle_share":         ratio(t.idle, t.elapsed),
		"vm.sim_user_s":              t.user,
		"stripefs.requeued":          float64(t.requeued),
		"disk.requests":              float64(t.diskReq),
		"disk.write_share":           ratio(float64(t.diskWrites), float64(t.diskReq)),
		"disk.util_mean":             ratio(t.utilSum, float64(t.utilRuns)),
		"disk.retries":               float64(t.diskRetries),
		"sim.events_dispatched":      float64(t.events),
	}
	if t.pairs > 0 {
		// The paper's headline ratios need an original run to compare
		// with. tenant_mix has none, so these are layer metrics, not
		// end-to-end ones.
		c["core.sim_speedup_geomean"] = math.Exp(t.logSpeedups / float64(t.pairs))
		c["core.sim_stall_eliminated"] = 1 - ratio(t.pIdle, t.oIdle)
		c["core.sim_hint_overhead_share"] = ratio(t.pUser+t.pSysPrefetch-t.oUser, t.pElapsed)
	}
	return c
}
