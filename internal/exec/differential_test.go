package exec_test

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/fault/harness"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// The system-level differentials: whole kernels, run the way core.Run runs
// them — on every storage tier, under fault injection, with the prefetching
// compiler's and a profile's hints — on the bytecode and on the
// closure-tree oracle, which must be the same simulation down to the tick.

// runner is a program bound to a VM by either executor.
type runner interface{ Run() *exec.Env }

// executor compiles prog for one of the two executors and binds it to v.
type executor func(prog *ir.Program, pageSize int64, v *vm.VM, layer *rt.Layer) (runner, error)

// bytecode is the production executor, compiled and bound as core does it.
func bytecode(prog *ir.Program, pageSize int64, v *vm.VM, layer *rt.Layer) (runner, error) {
	art, err := exec.Compile(prog, pageSize, exec.Options{})
	if err != nil {
		return nil, err
	}
	return art.Bind(v, layer)
}

// oracle is the reference semantics, each run bounded to budget loop
// iterations (0: unbounded).
func oracle(budget int64) executor {
	return func(prog *ir.Program, pageSize int64, v *vm.VM, layer *rt.Layer) (runner, error) {
		o, err := exec.CompileOracle(prog, pageSize)
		if err != nil {
			return nil, err
		}
		o.SetBudget(budget)
		return o.Bind(v, layer)
	}
}

// runCell drives core.RunContext's sequence for one run of k, call by
// call — backend, plan, file system, VM, fault injector, run-time layer,
// bind, seed, run, Finish, recycle — on the executor ex. A trap in the program is
// the returned *exec.TrapError. Like harness.RunBackend it then checks the
// VM invariants and the kernel's validation, and fingerprints the output.
// Every differential also runs core.Run on its cell and holds runCell's
// bytecode run to it, so this sequence cannot drift from core's.
func runCell(k harness.Kernel, spec *core.BackendSpec, prof *fault.Profile, ex executor) (*core.Result, uint64, error) {
	cfg := k.Cfg
	if cfg.WarmStart || cfg.SamplePeriod > 0 || cfg.Trace != nil || cfg.Profile != nil && cfg.Profile.Record {
		return nil, 0, errors.New("runCell: warm starts, samplers, traces and recording are core.Run's alone")
	}
	machine, err := spec.Apply(cfg.Machine)
	if err != nil {
		return nil, 0, err
	}
	var mkSched func() disk.Scheduler // nil is FCFS
	if spec != nil {
		mkSched, _ = disk.SchedulerFor(spec.Sched) // Apply validated the name
	}
	prog := k.Build()
	if err := prog.Resolve(machine.PageSize); err != nil {
		return nil, 0, err
	}
	execProg := prog.Clone()
	if cfg.Prefetch {
		copts := compiler.DefaultOptions()
		if cfg.Options != nil {
			copts = *cfg.Options
		}
		if cfg.Profile != nil {
			copts.Profile = cfg.Profile.Use
		}
		res, err := compiler.Compile(execProg, machine, copts)
		if err != nil {
			return nil, 0, err
		}
		execProg = res.Prog
	}

	clock := sim.NewClock()
	reg := obs.NewRegistry()
	o := &obs.RunObs{Reg: reg}
	fs := stripefs.NewObserved(clock, machine, mkSched, o)
	file, err := fs.Create(prog.Name, max(1, prog.TotalBytes(machine.PageSize)/machine.PageSize))
	if err != nil {
		return nil, 0, err
	}
	v := vm.NewObserved(clock, machine, file, o)
	var inj *fault.Injector
	if prof != nil && prof.Enabled() {
		inj = fault.NewInjector(*prof, reg, o.Thread("fault-injector"))
		fs.SetFaults(inj)
		v.SetFaults(inj)
	}
	layer := rt.RegisterObserved(v, cfg.RuntimeFilter || !cfg.Prefetch, reg)
	m, err := ex(execProg, machine.PageSize, v, layer)
	if err != nil {
		return nil, 0, err
	}
	if cfg.Seed != nil {
		cfg.Seed(prog, file, machine.PageSize)
	}
	start := clock.Now()
	env, err := runTrapping(m)
	if err != nil {
		return nil, 0, err
	}
	v.Finish()
	elapsed := clock.Now() - start

	res := &core.Result{
		Prog: execProg, Env: env, VM: v, Elapsed: elapsed,
		Times: v.Times(), Mem: v.Stats(), RT: layer.Stats(), Faults: inj.Counts(),
	}
	fs.Recycle()
	v.Pool().Recycle()
	if err := v.CheckInvariants(); err != nil {
		return nil, 0, fmt.Errorf("%s: vm invariants: %w", k.Name, err)
	}
	if k.Validate != nil {
		if err := k.Validate(res); err != nil {
			return nil, 0, fmt.Errorf("%s: validation: %w", k.Name, err)
		}
	}
	return res, harness.Fingerprint(res), nil
}

// runTrapping runs m and recovers what core.RunContext recovers from a
// run — a subscript outside its array, an integer division by zero — into
// the *exec.TrapError, and an oracle run past its budget into
// exec.ErrOracleBudget.
func runTrapping(m runner) (env *exec.Env, err error) {
	defer func() {
		r := recover()
		if r == exec.ErrOracleBudget {
			err = exec.ErrOracleBudget
			return
		}
		switch r := r.(type) {
		case nil:
		case *exec.TrapError:
			err = r
		case runtime.Error:
			if r.Error() != "runtime error: integer divide by zero" {
				panic(r)
			}
			err = exec.DivideTrap()
		default:
			panic(r)
		}
	}()
	return m.Run(), nil
}

// sameSimulation reports how two runs of one cell differ — output
// fingerprint, elapsed time, time breakdown, memory-manager counts,
// run-time layer counters, injected faults — and nil when they are the
// same simulation down to the last tick.
func sameSimulation(a *core.Result, aSum uint64, b *core.Result, bSum uint64) error {
	var diffs []error
	if aSum != bSum {
		diffs = append(diffs, fmt.Errorf("output fingerprint %#x vs %#x", aSum, bSum))
	}
	if a.Elapsed != b.Elapsed {
		diffs = append(diffs, fmt.Errorf("elapsed %v vs %v", a.Elapsed, b.Elapsed))
	}
	if a.Times != b.Times {
		diffs = append(diffs, fmt.Errorf("time breakdown\n%+v\n%+v", a.Times, b.Times))
	}
	if a.Mem != b.Mem {
		diffs = append(diffs, fmt.Errorf("vm stats\n%+v\n%+v", a.Mem, b.Mem))
	}
	if a.RT != b.RT {
		diffs = append(diffs, fmt.Errorf("rt stats\n%+v\n%+v", a.RT, b.RT))
	}
	if a.Faults != b.Faults {
		diffs = append(diffs, fmt.Errorf("fault injection\n%+v\n%+v", a.Faults, b.Faults))
	}
	return errors.Join(diffs...)
}

// differential runs one cell three ways — core.Run, then runCell on the
// bytecode and on the oracle — and holds all three to one simulation. The
// first pair keeps runCell honest to core; the second is the property. It
// returns the oracle's run as its Digest.
func differential(t *testing.T, k harness.Kernel, spec *core.BackendSpec, prof *fault.Profile) string {
	t.Helper()
	want, wantSum, err := harness.RunBackend(k, spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	fast, fastSum, err := runCell(k, spec, prof, bytecode)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSimulation(want, wantSum, fast, fastSum); err != nil {
		t.Fatalf("runCell's bytecode run is not core.Run's:\n%v", err)
	}
	slow, slowSum, err := runCell(k, spec, prof, oracle(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSimulation(fast, fastSum, slow, slowSum); err != nil {
		t.Errorf("bytecode and oracle diverged:\n%v", err)
	}
	return harness.Digest(slow, slowSum)
}

var update = flag.Bool("update", false, "rewrite the harness's record of the oracle's simulations")

// oracleRecord is the harness's record of the oracle's simulation of every
// cell of TestFastPathEquivalenceNAS and TestFastPathEquivalenceExamples:
// the harness tests of those names hold core.Run to it without the oracle,
// which lives only here. The differentials below hold the oracle to it,
// and rewrite the cells they ran under -update.
const oracleRecord = "../fault/harness/testdata/oracle.golden"

// record is oracleRecord read for one test.
type record map[string]string

func readRecord(t *testing.T) record {
	t.Helper()
	rec, err := harness.ReadRecord(oracleRecord)
	if errors.Is(err, os.ErrNotExist) && *update {
		return record{}
	}
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// check holds the oracle's digest of cell to the record, or records it
// under -update.
func (r record) check(t *testing.T, cell, digest string) {
	t.Helper()
	switch {
	case *update:
		r[cell] = digest
	case r[cell] != digest:
		t.Errorf("%s: the oracle's simulation %s is not the one %s records (%q): rerun with -update if the change is meant to move it",
			cell, digest, oracleRecord, r[cell])
	}
}

// save rewrites the record, cells sorted, under -update.
func (r record) save(t *testing.T) {
	t.Helper()
	if !*update {
		return
	}
	cells := make([]string, 0, len(r))
	for c := range r {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	var b strings.Builder
	b.WriteString("# The closure-tree oracle's simulation of each cell of the harness's\n" +
		"# TestFastPathEquivalence tests, as harness.Digest. Rewritten by\n" +
		"# go test ./internal/exec -run TestFastPathEquivalence -update\n")
	for _, c := range cells {
		fmt.Fprintf(&b, "%s %s\n", c, r[c])
	}
	if err := os.MkdirAll(filepath.Dir(oracleRecord), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oracleRecord, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFastPathEquivalenceNAS: for every NAS proxy of the property matrix,
// a run on the bytecode is tick-identical to a run on the oracle —
// fault-free and under every seeded fault profile, on the disk array, NVMe
// and far memory alike.
func TestFastPathEquivalenceNAS(t *testing.T) {
	rec := readRecord(t)
	defer rec.save(t)
	apps := harness.MatrixApps()
	tiers := []string{"", "nvme", "farmem"}
	if testing.Short() {
		apps = apps[:2]
		tiers = []string{""}
	}
	for ai, app := range apps {
		t.Run(app.Name, func(t *testing.T) {
			k, err := harness.App(app, 0.25)
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range tiers {
				var spec *core.BackendSpec
				label := "disk"
				if tier != "" {
					s, err := core.ParseBackendSpec(tier)
					if err != nil {
						t.Fatal(err)
					}
					spec, label = &s, tier
				}
				cell := app.Name + "/" + label + "/"
				t.Run(label, func(t *testing.T) {
					t.Run("clean", func(t *testing.T) { rec.check(t, cell+"clean", differential(t, k, spec, nil)) })
					for pi, name := range harness.MatrixProfiles {
						if testing.Short() && name != "chaos" {
							continue // at its full-length seed: a cell the record holds
						}
						p, ok := fault.ProfileByName(name)
						if !ok {
							t.Fatalf("unknown profile %q", name)
						}
						p.Seed = uint64(31 + 100*ai + pi) // same family, fresh seeds
						t.Run(name, func(t *testing.T) { rec.check(t, cell+name, differential(t, k, spec, &p)) })
					}
				})
			}
		})
	}
}

// TestFastPathEquivalenceExamples covers the examples corpus: every
// kernel, fault-free and under the chaos profile, bytecode vs oracle.
func TestFastPathEquivalenceExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("example corpus covered at full length only")
	}
	rec := readRecord(t)
	defer rec.save(t)
	files, err := filepath.Glob("../../examples/kernels/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel corpus found: %v", err)
	}
	for fi, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			k, err := harness.Example(path)
			if err != nil {
				t.Fatal(err)
			}
			rec.check(t, k.Name+"/clean", differential(t, k, nil, nil))
			prof, _ := fault.ProfileByName("chaos")
			prof.Seed = uint64(61 + fi)
			rec.check(t, k.Name+"/chaos", differential(t, k, nil, &prof))
		})
	}
}

// TestProfileGuidedEquivalence: the profile-guided program of every proxy
// of the two-pass matrix (harness.TestProfileModesByteIdentical) runs the
// same on both executors — a profile that worked on one execution engine
// only would prove nothing.
func TestProfileGuidedEquivalence(t *testing.T) {
	apps := harness.MatrixApps()
	if testing.Short() {
		apps = apps[:2]
	}
	for _, app := range append(apps, harness.FlatApp()) {
		t.Run(app.Name, func(t *testing.T) {
			k, err := harness.App(app, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			kr := k
			kr.Cfg.Profile = &core.ProfileSpec{Record: true}
			rec, _, err := harness.Run(kr, nil)
			if err != nil {
				t.Fatal(err)
			}
			k.Cfg.Profile = &core.ProfileSpec{Use: rec.Profile}
			differential(t, k, nil, nil)
		})
	}
}

// TestTrapTextBothExecutors: a trap in the executing program — a subscript
// outside its array, an integer division by zero in a statement or in a
// loop bound — is core.Run's error as an *exec.TrapError, and the oracle
// raises the same one, original and prefetching alike.
func TestTrapTextBothExecutors(t *testing.T) {
	cases := []struct {
		name, src, want string
		data            int64
	}{
		{"subscript", `
program oob
param n = 1000
array double a[n]
for i = 0 .. n {
    a[i + 1] = 1.0
}
`, "exec: a subscript 1000 out of range [0,1000) in dim 0", 1000 * 8},
		{"divide", `
program divz
param n = 1000
param z = 0
array long a[n]
for i = 0 .. n {
    a[i] = i / z
}
`, "exec: integer divide by zero", 1000 * 8},
		{"bound", "program p\nparam n = 8\narray double a[n]\nfor i = 0 .. n / 0 {\n    a[i] = 1.0\n}\n",
			"exec: integer divide by zero", 1 << 20},
	}
	for _, tc := range cases {
		for _, prefetch := range []bool{false, true} {
			cfg := core.DefaultConfig(core.MachineFor(tc.data, 2))
			cfg.Prefetch = prefetch
			k := harness.Kernel{Name: tc.name, Build: func() *ir.Program { return lang.MustParse(tc.src) }, Cfg: cfg}
			_, err := core.Run(k.Build(), cfg)
			var trap *exec.TrapError
			if !errors.As(err, &trap) || trap.Error() != tc.want {
				t.Errorf("%s (prefetch=%v): core.Run = %v, want the TrapError %q", tc.name, prefetch, err, tc.want)
			}
			for name, ex := range map[string]executor{"bytecode": bytecode, "oracle": oracle(0)} {
				if _, _, err := runCell(k, nil, nil, ex); !errors.As(err, &trap) || err.Error() != tc.want {
					t.Errorf("%s (prefetch=%v) on the %s: %v, want the TrapError %q", tc.name, prefetch, name, err, tc.want)
				}
			}
		}
	}
}

// Bounds of one FuzzExecutors input: its arrays' bytes, and the loop
// iterations of an oracle run, the per-input deadline — counted in
// iterations, not wall time, so a skip replays exactly.
const (
	fuzzData   = 1 << 20
	fuzzBudget = 1 << 21
)

// fuzzSeed fills every array with a short repeating pattern: floats whose
// sums round, so reordering would show, and ints small enough to stay in
// range as subscripts.
func fuzzSeed(prog *ir.Program, file *stripefs.File, pageSize int64) {
	for _, a := range prog.Arrays {
		if a.Kind == ir.I64 {
			exec.SeedI64(file, pageSize, a, func(i int64) int64 { return i % 8 })
		} else {
			exec.SeedF64(file, pageSize, a, func(i int64) float64 { return float64(i%29)/7 - 3 })
		}
	}
}

// paramLit matches a shift amount or an integer literal.
var paramLit = regexp.MustCompile(`<< *\d+|\b\d+\b`)

// shrunk scales a seed's param lines down — shifts of 12 or more by 6,
// other literals of 256 or more by 8 — so the example and benchmark
// kernels, sized to run out of core at full scale, fit fuzzData.
func shrunk(src string) string {
	lines := strings.Split(src, "\n")
	for i, l := range lines {
		if !strings.HasPrefix(strings.TrimSpace(l), "param ") {
			continue
		}
		lines[i] = paramLit.ReplaceAllStringFunc(l, func(m string) string {
			if k, ok := strings.CutPrefix(m, "<<"); ok {
				n, _ := strconv.Atoi(strings.TrimSpace(k))
				if n >= 12 {
					n -= 6
				}
				return "<< " + strconv.Itoa(n)
			}
			n, _ := strconv.Atoi(m)
			if n >= 256 {
				n /= 8
			}
			return strconv.Itoa(n)
		})
	}
	return strings.Join(lines, "\n")
}

// FuzzExecutors holds the bytecode to the oracle on programs nobody
// hand-wrote. An input that parses, is at most 2 KB and resolves to at
// most fuzzData bytes of arrays runs original (O) and prefetching (P) on
// a machine with half its data in memory, on both executors. The two must
// be the same simulation — fingerprint, elapsed time, time breakdown,
// memory-manager and run-time layer counts — or fail with the same error:
// the same trap, or the same compile rejection. An input whose oracle run
// passes fuzzBudget is skipped, and so is one the bytecode's tables cannot
// hold. The seeds are FuzzParse's corpus, each also shrunk.
func FuzzExecutors(f *testing.F) {
	for _, glob := range []string{"../../examples/kernels/*.loop", "../../benchmark/corpus/*.loop", "../lang/testdata/nas/*.loop"} {
		paths, err := filepath.Glob(glob)
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seeds under %s (%v)", glob, err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
			if small := shrunk(string(src)); small != string(src) {
				f.Add(small)
			}
		}
	}
	ps := hw.Default().PageSize
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2<<10 {
			return
		}
		prog, err := lang.Parse(src)
		if err != nil || prog.Resolve(ps) != nil || prog.TotalBytes(ps) > fuzzData {
			return
		}
		for _, prefetch := range []bool{false, true} {
			cfg := core.DefaultConfig(core.MachineFor(prog.TotalBytes(ps), 2))
			cfg.Prefetch, cfg.Seed = prefetch, fuzzSeed
			k := harness.Kernel{Name: prog.Name, Build: func() *ir.Program { return lang.MustParse(src) }, Cfg: cfg}
			slow, slowSum, slowErr := runCell(k, nil, nil, oracle(fuzzBudget))
			if slowErr == exec.ErrOracleBudget {
				return
			}
			fast, fastSum, fastErr := runCell(k, nil, nil, bytecode)
			var limit *exec.LimitError
			switch {
			case errors.As(fastErr, &limit):
				return
			case fastErr != nil || slowErr != nil:
				if fastErr == nil || slowErr == nil || fastErr.Error() != slowErr.Error() {
					t.Fatalf("prefetch=%v: bytecode %v, oracle %v", prefetch, fastErr, slowErr)
				}
			default:
				if err := sameSimulation(fast, fastSum, slow, slowSum); err != nil {
					t.Fatalf("prefetch=%v: bytecode and oracle diverged:\n%v", prefetch, err)
				}
			}
		}
	})
}
