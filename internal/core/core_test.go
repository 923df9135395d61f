package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

const streamSrc = `
program stream
param n = 1 << 17
array double a[n]
scalar double s
for i = 0 .. n {
    s = s + a[i]
}
`

func seedOnes(prog *ir.Program, file *stripefs.File, pageSize int64) {
	a := prog.ArrayByName("a")
	// Seed page by page with 1.0 bit patterns.
	buf := make([]byte, pageSize)
	one := uint64(0x3FF0000000000000)
	for off := int64(0); off < pageSize; off += 8 {
		for b := 0; b < 8; b++ {
			buf[off+int64(b)] = byte(one >> (8 * uint(b)))
		}
	}
	pages := (a.Elems*8 + pageSize - 1) / pageSize
	for p := int64(0); p < pages; p++ {
		file.SetPage(a.Base/pageSize+p, buf)
	}
}

func mustProg(t *testing.T) *ir.Program {
	t.Helper()
	p, err := lang.Parse(streamSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMachineFor(t *testing.T) {
	m := MachineFor(16<<20, 2)
	if m.MemoryBytes != 8<<20 {
		t.Fatalf("memory = %d, want 8 MB", m.MemoryBytes)
	}
	// Tiny data still gets a floor.
	m = MachineFor(1024, 2)
	if m.MemoryBytes < 16*m.PageSize {
		t.Fatalf("memory floor violated: %d", m.MemoryBytes)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunOriginalVsPrefetch(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes

	oCfg := cfg
	oCfg.Prefetch = false
	o, err := Run(mustProg(t), oCfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o.Env.Floats[0] != p.Env.Floats[0] || o.Env.Floats[0] != float64(1<<17) {
		t.Fatalf("results: O=%v P=%v", o.Env.Floats[0], p.Env.Floats[0])
	}
	if p.Speedup(o) <= 1.2 {
		t.Fatalf("speedup %.2f too small for a pure stream", p.Speedup(o))
	}
	if len(p.Plan) == 0 {
		t.Fatal("prefetch run has no plan")
	}
	if len(o.Plan) != 0 {
		t.Fatal("original run has a plan")
	}
	if len(p.DiskStats) != cfg.Machine.NumDisks {
		t.Fatalf("disk stats for %d disks, want %d", len(p.DiskStats), cfg.Machine.NumDisks)
	}
}

func TestRunWarmStart(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 0.25)) // in-core
	cfg.Seed = seedOnes
	cfg.WarmStart = true
	r, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.MajorFaults != 0 {
		t.Fatalf("warm in-core run took %d major faults", r.Mem.MajorFaults)
	}
	if r.Env.Floats[0] != float64(1<<17) {
		t.Fatalf("warm result wrong: %v", r.Env.Floats[0])
	}
}

func TestRunNoRuntimeFilter(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	cfg.RuntimeFilter = false
	r, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.RT.FilteredPages != 0 {
		t.Fatal("disabled layer filtered pages")
	}
	if r.Env.Floats[0] != float64(1<<17) {
		t.Fatal("result wrong without filter")
	}
}

func TestRunElevator(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	cfg.Backend = &BackendSpec{Sched: "elevator"}
	r, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Env.Floats[0] != float64(1<<17) {
		t.Fatal("result wrong under elevator scheduling")
	}
}

func TestRunCustomCompilerOptions(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	opts := compiler.DefaultOptions()
	opts.Releases = false
	cfg.Options = &opts
	r, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Mem.ReleasedPages != 0 {
		t.Fatal("releases issued despite Releases=false")
	}
}

func TestRunRejectsBadMachine(t *testing.T) {
	bad := hw.Default()
	bad.PageSize = 3000
	cfg := DefaultConfig(bad)
	if _, err := Run(mustProg(t), cfg); err == nil {
		t.Fatal("Run accepted invalid machine")
	}
}

func TestSpeedupZeroSafe(t *testing.T) {
	r := &Result{}
	if r.Speedup(&Result{Elapsed: 100}) != 0 {
		t.Fatal("zero-elapsed speedup should be 0")
	}
}

func TestTimelineSampling(t *testing.T) {
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	cfg.SamplePeriod = 50 * sim.Millisecond
	r, err := Run(mustProg(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Timeline) < 5 {
		t.Fatalf("timeline has %d samples, want several", len(r.Timeline))
	}
	for i := 1; i < len(r.Timeline); i++ {
		if r.Timeline[i].At < r.Timeline[i-1].At {
			t.Fatal("timeline not monotonic")
		}
		if r.Timeline[i].Faults < r.Timeline[i-1].Faults {
			t.Fatal("cumulative faults decreased")
		}
	}
	out := RenderTimeline(r.Timeline, cfg.Machine.Frames(), 40)
	if !strings.Contains(out, "free memory over time") || !strings.Contains(out, "faults per interval") {
		t.Fatalf("timeline render malformed:\n%s", out)
	}
	if RenderTimeline(nil, 10, 40) != "(no samples)\n" {
		t.Fatal("empty timeline render")
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := int64(1<<17) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	if _, err := RunContext(ctx, mustProg(t), cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// A deadline expiring mid-run must abort the event loop cleanly and
// return the context's error instead of wedging or finishing the run.
func TestRunContextDeadlineAbortsEventLoop(t *testing.T) {
	data := int64(1<<19) * 8
	cfg := DefaultConfig(MachineFor(data, 2))
	cfg.Seed = seedOnes
	prog, err := lang.Parse(`
program stream
param n = 1 << 19
array double a[n]
scalar double s
for r = 0 .. 8 {
    for i = 0 .. n {
        s = s + a[i]
    }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := RunContext(ctx, prog, cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if res != nil {
		t.Fatal("aborted run returned a result")
	}
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("abort took %v — interrupt not reaching the event loop", wall)
	}
	// The same run must complete and validate without the deadline.
	if _, err := RunContext(context.Background(), mustProg(t), DefaultConfigSeeded(t)); err != nil {
		t.Fatal(err)
	}
}

// DefaultConfigSeeded builds the standard test configuration for the
// small stream program.
func DefaultConfigSeeded(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(MachineFor(int64(1<<17)*8, 2))
	cfg.Seed = seedOnes
	return cfg
}

// A trap in the executing program — a subscript outside its array, an
// integer division by zero — is the run's error, typed and with the same
// text on both executors, never a panic out of Run.
func TestRunTrapReturnsTypedError(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"subscript", `
program oob
param n = 1000
array double a[n]
for i = 0 .. n {
    a[i + 1] = 1.0
}
`, "a subscript 1000 out of range [0,1000) in dim 0"},
		{"divide", `
program divz
param n = 1000
param z = 0
array long a[n]
for i = 0 .. n {
    a[i] = i / z
}
`, "integer divide by zero"},
	}
	for _, tc := range cases {
		for _, oracle := range []bool{false, true} {
			cfg := DefaultConfig(MachineFor(1000*8, 2))
			cfg.NoFastPath = oracle
			_, err := Run(lang.MustParse(tc.src), cfg)
			var trap *exec.TrapError
			if !errors.As(err, &trap) || !strings.HasSuffix(err.Error(), tc.want) {
				t.Errorf("%s (oracle=%v): err = %v, want a TrapError ending %q", tc.name, oracle, err, tc.want)
			}
		}
	}
}

// A program past the bytecode's table limits is the run's compile error,
// typed, on the cached and on the recording path — never a panic, and no
// closure tree runs it instead.
func TestRunLimitReturnsTypedError(t *testing.T) {
	flood := ir.NewProgram("regflood")
	s := flood.NewScalarF("s")
	for c := 0; c < 70000; c++ {
		flood.Body = append(flood.Body, ir.SetF(s, ir.AddF(ir.FScalar{Slot: s.Slot, Name: s.Name}, ir.Flt(float64(c)))))
	}
	for _, record := range []bool{false, true} {
		cfg := DefaultConfig(MachineFor(8, 2))
		if record {
			cfg.Profile = &ProfileSpec{Record: true}
		}
		_, err := Run(flood, cfg)
		var le *exec.LimitError
		if !errors.As(err, &le) || !strings.HasPrefix(err.Error(), "core: compile regflood: exec: ") {
			t.Errorf("record=%v: err = %v, want core: compile regflood: *exec.LimitError", record, err)
		}
	}
}
