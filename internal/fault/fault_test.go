package fault

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Same (profile, seed) and the same decision sequence must yield the
// same verdict sequence — the determinism everything else builds on.
func TestInjectorDeterministic(t *testing.T) {
	prof, _ := ProfileByName("chaos")
	prof.Seed = 42
	draw := func() []Verdict {
		inj := NewInjector(prof, nil, nil)
		var out []Verdict
		now := sim.Time(0)
		for k := 0; k < 500; k++ {
			out = append(out, inj.Attempt(k%7, k%3 == 0, now))
			if inj.DropPrefetch(now, int64(k)) {
				out = append(out, Verdict{Fail: true})
			}
			now += 3 * sim.Millisecond
		}
		return out
	}
	a, b := draw(), draw()
	if len(a) != len(b) {
		t.Fatalf("draw lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verdict %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// Different seeds must (overwhelmingly) produce different schedules.
func TestInjectorSeedMatters(t *testing.T) {
	prof, _ := ProfileByName("flaky")
	fails := func(seed uint64) (n int) {
		p := prof
		p.Seed = seed
		inj := NewInjector(p, nil, nil)
		for k := 0; k < 2000; k++ {
			if inj.Attempt(0, false, 0).Fail {
				n++
			}
		}
		return
	}
	if fails(1) == 0 || fails(2) == 0 {
		t.Fatal("flaky profile injected nothing")
	}
	// The counts coincide with probability ~0; the exact schedules never do.
	p1, p2 := prof, prof
	p1.Seed, p2.Seed = 1, 2
	i1, i2 := NewInjector(p1, nil, nil), NewInjector(p2, nil, nil)
	same := true
	for k := 0; k < 256; k++ {
		if i1.Attempt(0, false, 0).Fail != i2.Attempt(0, false, 0).Fail {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 256-attempt schedules")
	}
}

// A nil injector injects nothing and never slows anything down.
func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	v := inj.Attempt(3, true, 5*sim.Second)
	if v.Fail || v.Slow != 1 {
		t.Fatalf("nil injector verdict %+v", v)
	}
	if inj.DropPrefetch(0, 9) {
		t.Fatal("nil injector dropped a prefetch")
	}
	if inj.Counts().Total() != 0 {
		t.Fatal("nil injector counted injections")
	}
	if inj.Retry() != DefaultRetryPolicy().Normalized() {
		t.Fatal("nil injector retry policy not the default")
	}
}

// Brownout windows are periodic per disk, phase-staggered by seed, and
// recover (the disk is available outside the window).
func TestBrownoutWindows(t *testing.T) {
	prof := Profile{
		Name:             "b",
		Seed:             7,
		BrownoutPeriod:   100 * sim.Millisecond,
		BrownoutDuration: 20 * sim.Millisecond,
	}
	inj := NewInjector(prof, nil, nil)
	down := func(d int, ts sim.Time) bool { return inj.brownoutEnd(d, ts) != 0 }
	for d := 0; d < 4; d++ {
		var total sim.Time
		for ts := sim.Time(0); ts < 100*sim.Millisecond; ts += sim.Millisecond {
			if down(d, ts) {
				total += sim.Millisecond
			}
			// Periodicity: the window repeats exactly one period later.
			if down(d, ts) != down(d, ts+prof.BrownoutPeriod) {
				t.Fatalf("disk %d window not periodic at %v", d, ts)
			}
		}
		if total != 20*sim.Millisecond {
			t.Fatalf("disk %d down %v of each period, want 20ms", d, total)
		}
	}
	// Attempts inside a window fail, are counted, and name the instant the
	// window ends: down just before it, up at it.
	var hit bool
	for ts := sim.Time(0); ts < 100*sim.Millisecond; ts += sim.Millisecond {
		if down(0, ts) {
			if v := inj.Attempt(0, false, ts); !v.Fail {
				t.Fatal("attempt inside brownout window did not fail")
			} else if !down(0, v.Until-1) || down(0, v.Until) {
				t.Fatalf("window at %v reported to end at %v", ts, v.Until)
			}
			hit = true
			break
		}
	}
	if !hit || inj.Counts().BrownoutFailures == 0 {
		t.Fatal("no brownout failure recorded")
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{BackoffBase: sim.Millisecond, BackoffMax: 4 * sim.Millisecond}.Normalized()
	want := []sim.Time{sim.Millisecond, 2 * sim.Millisecond, 4 * sim.Millisecond, 4 * sim.Millisecond}
	for i, w := range want {
		if got := p.Backoff(i + 1); got != w {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	d := RetryPolicy{}.Normalized()
	if d != DefaultRetryPolicy() {
		t.Fatalf("zero policy normalizes to %+v, want defaults %+v", d, DefaultRetryPolicy())
	}
}

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    string
		seed    uint64
		wantErr bool
	}{
		{spec: "brownout", want: "brownout"},
		{spec: "profile=chaos,seed=7", want: "chaos", seed: 7},
		{spec: "seed=9,profile=flaky", want: "flaky", seed: 9},
		{spec: "", want: "none"},
		{spec: "profile=nope", wantErr: true},
		{spec: "seed=x", wantErr: true},
		{spec: "frob=1", wantErr: true},
	} {
		p, err := ParseSpec(tc.spec)
		if tc.wantErr {
			if err == nil {
				t.Fatalf("ParseSpec(%q) succeeded, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", tc.spec, err)
		}
		if p.Name != tc.want || p.Seed != tc.seed {
			t.Fatalf("ParseSpec(%q) = %q seed %d, want %q seed %d", tc.spec, p.Name, p.Seed, tc.want, tc.seed)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	bad := []Profile{
		{ReadErrorRate: 0.99},
		{WriteErrorRate: -0.1},
		{SlowRate: 0.5, SlowFactor: 0.5},
		{BrownoutPeriod: sim.Millisecond},
		{BrownoutPeriod: sim.Millisecond, BrownoutDuration: 2 * sim.Millisecond},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("profile %d validated: %+v", i, p)
		}
	}
	for _, name := range ProfileNames() {
		p, ok := ProfileByName(name)
		if !ok {
			t.Fatalf("named profile %q missing", name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("named profile %q invalid: %v", name, err)
		}
		if (name == "none") == p.Enabled() {
			t.Fatalf("profile %q Enabled() = %v", name, p.Enabled())
		}
	}
}

// The registry reads the injector's tallies as Counts returns them.
func TestInjectorPublishesCounters(t *testing.T) {
	reg := obs.NewRegistry()
	prof, _ := ProfileByName("flaky")
	inj := NewInjector(prof, reg, nil)
	for k := 0; k < 300; k++ {
		inj.Attempt(0, k%2 == 0, 0)
	}
	n := inj.Counts()
	if n.ReadErrors == 0 || n.WriteErrors == 0 {
		t.Fatalf("flaky profile injected nothing over 300 attempts: %+v", n)
	}
	snap := reg.Snapshot()
	if snap.Counters["fault.read_errors"] != n.ReadErrors ||
		snap.Counters["fault.write_errors"] != n.WriteErrors {
		t.Fatalf("registry %v does not match counts %+v", snap.Counters, n)
	}
}
