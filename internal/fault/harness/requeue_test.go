package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/nas"
	"repro/internal/sim"
)

// exhausting is a fault profile under which most requests run out of
// retry budget: six in ten attempts fail, a request gets two attempts
// and 50 µs, and one prefetch hint in five is dropped. Demand reads and
// write-backs that exhaust their budget go back into their device's
// queue; exhausted prefetch reads are abandoned.
var exhausting = fault.Profile{
	Name:           "exhausting",
	Seed:           7,
	ReadErrorRate:  0.6,
	WriteErrorRate: 0.6,
	DropRate:       0.2,
	Retry:          fault.RetryPolicy{MaxAttempts: 2, Timeout: 50 * sim.Microsecond},
}

// TestRequeueGolden pins the ticks of the path a must-not-fail request
// takes when its retry budget runs out: every NAS proxy, original and
// prefetching, on the disk array, NVMe and far memory, under the
// exhausting profile, held to testdata/requeue.golden: each cell's
// digest plus its requeued reads and writes and abandoned prefetch pages.
// The fault-free and lightly faulted records do not reach this path.
func TestRequeueGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("requeue matrix runs at full length only")
	}
	if err := exhausting.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := golden.Open(t, "testdata/requeue.golden")
	defer rec.Close()
	var requeued int64
	for _, app := range nas.Apps() {
		k, err := App(app, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range []string{"disk", "nvme", "farmem"} {
			spec, err := core.ParseBackendSpec(tier)
			if err != nil {
				t.Fatal(err)
			}
			for _, variant := range []string{"O", "P"} {
				k := k
				k.Cfg.Prefetch = variant == "P"
				cell := app.Name + "/" + tier + "/" + variant
				res, sum, err := RunBackend(k, &spec, &exhausting)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				m := res.Metrics
				reads, writes := m.Counter("stripefs.requeued_reads").Value(), m.Counter("stripefs.requeued_writes").Value()
				requeued += reads + writes
				rec.Check(t, cell, digest(res, sum, struct{ RequeuedReads, RequeuedWrites, AbandonedPrefetchPages int64 }{
					reads, writes, m.Counter("stripefs.abandoned_prefetch_pages").Value()}))
			}
		}
	}
	if requeued == 0 {
		t.Error("the exhausting profile requeued nothing: the matrix no longer reaches the requeue path")
	}
}
