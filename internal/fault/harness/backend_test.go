package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/nas"
)

// backendSpecs are the storage tiers of the cross-backend property
// matrix: the paper's disks under both schedulers, the NVMe tier, and
// the far-memory tier at its default and at a single-request batch
// (no coalescing — a different completion order on the wire).
var backendSpecs = []core.BackendSpec{
	{Tier: hw.TierDisk},
	{Tier: hw.TierDisk, Sched: "elevator"},
	{Tier: hw.TierNVMe},
	{Tier: hw.TierFarMemory},
	{Tier: hw.TierFarMemory, Batch: 1},
}

// TestNASBackendsByteIdentical is the cross-tier property of the backend
// API: the timing model under the striped file system must never change
// what a program computes. Each kernel runs once on its own machine (the
// clean golden), then once per backend spec, and every run must
// fingerprint identically to the golden while passing the app's
// reference check and the VM invariants. Prefetch distances differ per
// tier — the compiler re-derives them from the tier's AvgPageRead — so
// this also proves hint placement never leaks into results.
func TestNASBackendsByteIdentical(t *testing.T) {
	apps := MatrixApps()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			k, err := App(app, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			clean, cleanSum, err := Run(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range backendSpecs {
				spec := spec
				name := spec.Tier.String()
				if spec.Sched != "" {
					name += "-" + spec.Sched
				}
				if spec.Batch == 1 {
					name += "-unbatched"
				}
				t.Run(name, func(t *testing.T) {
					if _, err := CheckBackendAgainst(k, spec, nil, clean, cleanSum); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// TestBackendsFaultedByteIdentical crosses the tiers with the
// everything-at-once chaos profile: on the far-memory tier its brownout
// windows are network partitions failing whole round trips, on NVMe
// flat-latency retries. Outputs must still match the clean disk golden,
// and the profile must demonstrably inject on every tier.
func TestBackendsFaultedByteIdentical(t *testing.T) {
	apps := []*nas.App{nas.ByName("CGM"), nas.ByName("FFT")}
	if testing.Short() {
		apps = apps[:1]
	}
	specs := []core.BackendSpec{
		{Tier: hw.TierNVMe},
		{Tier: hw.TierFarMemory},
	}
	for ai, app := range apps {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			k, err := App(app, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			clean, cleanSum, err := Run(k, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				spec := spec
				t.Run(spec.Tier.String(), func(t *testing.T) {
					prof, _ := fault.ProfileByName("chaos")
					prof.Seed = uint64(1 + 7*ai + int(spec.Tier))
					rep, err := CheckBackendAgainst(k, spec, &prof, clean, cleanSum)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Faulted.Faults.Total() == 0 {
						t.Fatalf("chaos on tier %s injected nothing — vacuous pass", spec.Tier)
					}
				})
			}
		})
	}
}
