package main

import (
	"embed"
	"fmt"
	"hash/fnv"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault/harness"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/locality"
	"repro/internal/nas"
)

// The corpus is compiled into the binary so the benchmark reads no file
// at run time; the .loop files stay the single source.
//
//go:embed corpus/*.loop
var corpusFS embed.FS

// corpusProgram is one size-templated source of the corpus. Every file
// declares its size as `param n = <default>`; the benchmark rewrites
// that one line to instantiate the template at another size.
type corpusProgram struct {
	name     string
	src      string
	defaultN int64
}

var paramN = regexp.MustCompile(`(?m)^param n = (.*)$`)

func loadCorpus() ([]corpusProgram, error) {
	entries, err := corpusFS.ReadDir("corpus")
	if err != nil {
		return nil, err
	}
	var out []corpusProgram
	for _, e := range entries {
		data, err := corpusFS.ReadFile("corpus/" + e.Name())
		if err != nil {
			return nil, err
		}
		src := string(data)
		prog, err := lang.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("corpus/%s: %w", e.Name(), err)
		}
		n, ok := prog.ParamValue("n")
		if !ok || len(paramN.FindAllString(src, -1)) != 1 {
			return nil, fmt.Errorf("corpus/%s: want exactly one `param n = ...` line", e.Name())
		}
		out = append(out, corpusProgram{name: strings.TrimSuffix(e.Name(), ".loop"), src: src, defaultN: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// at instantiates the template at size n.
func (c corpusProgram) at(n int64) string {
	return paramN.ReplaceAllString(c.src, fmt.Sprintf("param n = %d", n))
}

// compileInput is one program of a compile_cold pass: corpus text to
// parse, or a NAS kernel to build (NAS sources are private to the nas
// package, which memoizes their parse; they enter through App.Build).
type compileInput struct {
	name  string
	src   string   // corpus programs
	app   *nas.App // NAS kernels
	scale float64
}

type compileWorkload struct {
	inputs []compileInput
	sim    counts // from the set-up's validation runs; constant over passes
	simRow [][]string
	fails  []string // validation failures found in set-up, reported by every pass
	nValid int      // validation runs made in set-up
	hashes []uint64 // printed-program hash per input, fixed by the first pass
}

func (w *compileWorkload) setup(seed uint64, sz sizing) error {
	corpus, err := loadCorpus()
	if err != nil {
		return err
	}
	rng := splitmix(seed)
	apps := nas.Apps()
	// Two fifths NAS kernels, three fifths corpus programs, each at its
	// own seeded size, interleaved so no stage sees one shape in a row.
	w.inputs = nil
	for i := 0; i < sz.programs; i++ {
		if i%5 < 2 {
			app := apps[(i/5*2+i%5)%len(apps)]
			scale := rng.between(0.2, 1.0)
			w.inputs = append(w.inputs, compileInput{name: fmt.Sprintf("%s@%.4f", app.Name, scale), app: app, scale: scale})
		} else {
			c := corpus[(i/5*3+i%5-2)%len(corpus)]
			n := int64(float64(c.defaultN) * rng.between(0.5, 1.0))
			w.inputs = append(w.inputs, compileInput{name: fmt.Sprintf("%s@%d", c.name, n), src: c.at(n)})
		}
	}
	w.hashes = nil
	return w.validate(corpus, &rng)
}

// validate is the correctness check of a compiler: each corpus program,
// at a small out-of-core size, must compute the same complete output
// compiled with prefetching (P) as without (O). The simulated clock of
// those runs is also the only simulated time this workload has, so it
// supplies the workload's simulated metrics. It runs once, in set-up:
// the simulator is deterministic, so a pass could only repeat it.
func (w *compileWorkload) validate(corpus []corpusProgram, rng *splitmix) error {
	var t simTotals
	w.fails, w.simRow, w.nValid = nil, nil, 0
	ps := hw.Default().PageSize
	for _, c := range corpus {
		n := int64(float64(c.defaultN) * rng.between(0.24, 0.26))
		src := c.at(n)
		sized, err := lang.Parse(src)
		if err == nil {
			err = sized.Resolve(ps)
		}
		if err != nil {
			return fmt.Errorf("corpus/%s at n=%d: %w", c.name, n, err)
		}
		machine := core.MachineFor(sized.TotalBytes(ps), 2)
		var res [2]*core.Result
		var fp [2]uint64
		for i, pf := range []bool{false, true} {
			w.nValid++
			cfg := core.DefaultConfig(machine)
			cfg.Prefetch = pf
			var r *core.Result
			err := guard(func() (err error) {
				r, err = core.Run(lang.MustParse(src), cfg)
				return err
			})
			if err != nil {
				w.fails = append(w.fails, fmt.Sprintf("corpus/%s n=%d prefetch=%v: %v", c.name, n, pf, err))
				continue
			}
			res[i], fp[i] = r, harness.Fingerprint(r)
			t.addRun(r.Elapsed, r.Times, r.Mem, pf)
		}
		o, p := res[0], res[1]
		if o == nil || p == nil {
			continue
		}
		if fp[0] != fp[1] {
			w.fails = append(w.fails, fmt.Sprintf("corpus/%s n=%d: O output %#x, P output %#x", c.name, n, fp[0], fp[1]))
		}
		t.addPair(o.Elapsed, o.Times, p.Elapsed, p.Times)
		w.simRow = append(w.simRow, []string{c.name, fmt.Sprint(n),
			fmt.Sprintf("%.3f", o.Elapsed.Seconds()), fmt.Sprintf("%.3f", p.Elapsed.Seconds()),
			fmt.Sprintf("%.3f", o.Elapsed.Seconds()/p.Elapsed.Seconds()), fmt.Sprintf("%.3f", p.Mem.CoverageFactor())})
	}
	// Only the simulated-clock aggregates: the passes themselves simulate
	// nothing, so the vm/rt/disk counts of this workload stay 0.
	all := t.counts()
	w.sim = counts{}
	for _, k := range []string{"sim_elapsed_s", "sim_idle_share", "sim_coverage", "sim_hint_overhead_share",
		"core.sim_speedup_geomean", "core.sim_stall_eliminated", "core.sim_hint_overhead_share"} {
		w.sim[k] = all[k]
	}
	return nil
}

// compiled is what one program's trip through the flow left behind.
type compiled struct {
	printed string
	plan    int
	reports []exec.LoopReport
	calls   int
	prog    *ir.Program
	err     error
}

// compileOne is the ooccc flow for one program: front end, resolution,
// the fingerprint and clone the plan cache would take, the prefetching
// pass, bytecode assembly, and the printed result.
func compileOne(tr *tracer, in compileInput) (c compiled) {
	id := tr.newRun(in.name)
	ps := hw.Default().PageSize
	var prog *ir.Program
	if in.app != nil {
		tr.do("nas.build", id, func() { prog = in.app.Build(in.scale) })
	} else {
		tr.do("lang.parse", id, func() { prog, c.err = lang.Parse(in.src) })
		if c.err != nil {
			return c
		}
	}
	tr.do("ir.resolve", id, func() { c.err = prog.Resolve(ps) })
	if c.err != nil {
		return c
	}
	machine := core.MachineFor(prog.TotalBytes(ps), 2)
	tr.do("ir.fingerprint", id, func() { prog.Fingerprint() })
	var work *ir.Program
	tr.do("ir.clone", id, func() { work = prog.Clone() })
	opts := compiler.DefaultOptions()
	if tr != nil {
		// Analysis runs inside compiler.Compile; the traced pass calls it
		// once more on its own so the layer has a number.
		tr.do("locality.analyze", id, func() { locality.Analyze(work, ps, opts.DefaultEstTrip) })
	}
	var res *compiler.Result
	tr.do("compiler.compile", id, func() { res, c.err = compiler.Compile(work, machine, opts) })
	if c.err != nil {
		return c
	}
	var art *exec.Artifact
	tr.do("exec.compile", id, func() { art, c.err = exec.Compile(res.Prog, ps, exec.Options{}) })
	if c.err != nil {
		return c
	}
	tr.do("ir.print", id, func() { c.printed = ir.Print(res.Prog) })
	c.plan, c.reports, c.calls, c.prog = len(res.Plan), art.Reports(), art.CallSites(), res.Prog
	return c
}

func (w *compileWorkload) pass(tr *tracer) passResult {
	res := passResult{attempted: len(w.inputs) + w.nValid, failures: append([]string(nil), w.fails...)}
	outs := make([]compiled, len(w.inputs))
	perProgram := make([]int64, len(w.inputs))
	var m meter
	m.time(func() {
		for i, in := range w.inputs {
			t0 := time.Now()
			if err := guard(func() error { outs[i] = compileOne(tr, in); return nil }); err != nil {
				outs[i].err = err
			}
			perProgram[i] = int64(time.Since(t0))
		}
	})
	res.spanNS, res.mallocs, res.allocBytes = m.spans, m.mallocs, m.bytes
	if tr != nil {
		sorted := append([]int64(nil), perProgram...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res.host = counts{"compile.p90_ms": float64(sorted[len(sorted)*9/10]) / 1e6}
	}

	res.sim = counts{}
	for k, v := range w.sim {
		res.sim[k] = v
	}
	tr.do("compile.check", tr.newRun("check"), func() {
		first := w.hashes == nil
		if first {
			w.hashes = make([]uint64, len(w.inputs))
		}
		for i, c := range outs {
			in := w.inputs[i]
			if c.err != nil {
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", in.name, c.err))
				continue
			}
			h := fnv.New64a()
			h.Write([]byte(c.printed))
			switch {
			case !strings.Contains(c.printed, "prefetch"):
				res.failures = append(res.failures, fmt.Sprintf("%s: compiled program has no prefetch", in.name))
			case first:
				w.hashes[i] = h.Sum64()
			case w.hashes[i] != h.Sum64():
				res.failures = append(res.failures, fmt.Sprintf("%s: printed program differs from the first pass", in.name))
			}
			res.sim["compiler.plan_entries"] += float64(c.plan)
			res.sim["compiler.hint_sites"] += float64(hintSites(c.prog))
			res.sim["compiler.printed_bytes"] += float64(len(c.printed))
			res.sim["exec.call_sites"] += float64(c.calls)
			for _, rep := range c.reports {
				res.sim["exec.loops_"+driverKey(rep.Driver)]++
			}
		}
	})
	res.rows = table{
		Title:  "corpus validation runs of set-up (simulated clock): compiled with prefetching (P) against original (O)",
		Header: []string{"program", "n", "O_s", "P_s", "speedup(O/P)", "coverage"},
		Rows:   w.simRow,
	}
	return res
}
