// Command benchmark is the repository's end-to-end benchmark: four
// workloads, each measured on two clocks (host wall time of this
// process, simulated time of the modelled machine), with correctness
// checked inside the run and a per-layer breakdown from a separate
// traced run. BENCHMARK.json at the repository root is its contract and
// README.md in this directory its manual.
//
//	bash benchmark/run.sh --workload nas_disk --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -all -out set.json      every workload, a fresh process each
//	bash benchmark/run.sh -compare A.json B.json  judge B against A
//	bash benchmark/run.sh -selfcheck              the full set twice on this code, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"text/tabwriter"
)

// buildDir is where the wrapper builds and where the benchmark puts the
// files it writes unasked (trace files, self-check sets).
const buildDir = ".bench_build"

func main() {
	workloadName := flag.String("workload", "", "workload to run: nas_disk, nas_fasttier, compile_cold or tenant_mix")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "time budget of the timed passes")
	traced := flag.Int("trace", 0, "1 runs the traced pass and emits the per-layer metrics instead of the end-to-end ones")
	traceOut := flag.String("trace-out", "", "Chrome trace file of a traced run (default "+buildDir+"/trace_<workload>.json)")
	out := flag.String("out", "", "also write the full report (or, with -all, the report set) as JSON")
	all := flag.Bool("all", false, "run every workload, each in a fresh process")
	smoke := flag.Bool("smoke", false, "tiny sizes, one pass: a functional check, not a measurement")
	compare := flag.Bool("compare", false, "compare two report sets: -compare A.json B.json")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice on this code and compare the two")
	flag.Parse()

	// The benchmark is one client on one core: the closed loop never has
	// two things to run, and with a second core the collector moves onto
	// it and back, which made pass times swing by a third on the two-core
	// sandbox. One core is part of the benchmark's definition, so results
	// do not depend on how many the host happens to have.
	runtime.GOMAXPROCS(1)

	opt := runOptions{seed: *seed, seconds: *seconds, traced: *traced != 0, size: fullSize, smoke: *smoke, traceOut: *traceOut}
	if *smoke {
		opt.size = smokeSize
	}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *selfcheck:
		err = runSelfcheck(opt)
	case *all:
		_, err = runAll(opt, *out)
	case *workloadName != "":
		err = runOne(*workloadName, opt, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process, prints its tables and, as
// the last line of standard output, the result object the driver reads.
func runOne(name string, opt runOptions, out string) error {
	def := workloadByName(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if opt.traced && opt.traceOut == "" {
		opt.traceOut = filepath.Join(buildDir, "trace_"+name+".json")
	}
	rep, err := runWorkload(def, opt)
	if err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	if out != "" {
		if err := writeJSON(out, rep); err != nil {
			return err
		}
	}
	// The contract's last line: exactly these keys, every digit measured.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for k, m := range rep.Metrics {
		result.Metrics[k] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return fmt.Errorf("%s: %d of %d runs failed their checks", name, rep.Failed, rep.Attempted)
	}
	return nil
}

// maxStageRows is how long a run × stage table may be and still be
// printed; compile_cold's has thousands of rows.
const maxStageRows = 400

func printReport(w io.Writer, rep *report) {
	fmt.Fprintf(w, "workload %s  seed %d  %d timed passes  %s  nproc %d\n", rep.Workload, rep.Seed, rep.Passes, rep.GoVersion, rep.NProc)
	if len(rep.Rows.Rows) > 0 {
		rep.Rows.print(w)
	}
	if len(rep.Stages) > maxStageRows {
		fmt.Fprintf(w, "host time per run and stage: %d rows, in the -out report and the trace file\n", len(rep.Stages))
	} else if len(rep.Stages) > 0 {
		fmt.Fprintln(w, "host time per run and stage (traced pass)")
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, s := range rep.Stages {
			fmt.Fprintf(tw, "  %s\t%s\t%.1f us\n", s.Run, s.Stage, s.US)
		}
		tw.Flush()
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	fmt.Fprintln(w, "metrics")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s", d.Name, m.Value, m.Unit, d.Better)
		if s := m.Samples; s != nil {
			fmt.Fprintf(tw, "\tmin %.6g  q1 %.6g  median %.6g  q3 %.6g  n %d", s.Min, s.Q1, s.Median, s.Q3, s.N)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "FAILED", f)
	}
	if rep.TraceFile != "" {
		fmt.Fprintln(w, "trace written to", rep.TraceFile)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a fresh process of this binary, so that
// caches, the heap and the resident-set peak are per workload, strictly
// one after another. It prints every end-to-end (or per-layer) metric by
// name and fails if any workload failed a check.
func runAll(opt runOptions, out string) (*reportSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(buildDirOrTemp(), "set")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	set := &reportSet{}
	var failed []string
	for _, def := range workloads {
		file := filepath.Join(tmp, def.Name+".json")
		args := []string{"-workload", def.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds), "-out", file}
		if opt.traced {
			args = append(args, "-trace", "1")
		}
		if opt.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run() // waits for the child to end
		one, err := loadSet(file)
		if err != nil {
			return nil, fmt.Errorf("%s: %v (child: %v)", def.Name, err, runErr)
		}
		set.Reports = append(set.Reports, one.Reports[0])
		if runErr != nil {
			failed = append(failed, def.Name)
		}
	}
	fmt.Println()
	printSet(os.Stdout, set, opt.traced)
	if out != "" {
		if err := writeJSON(out, set); err != nil {
			return nil, err
		}
	}
	if len(failed) > 0 {
		return set, fmt.Errorf("output checks failed on %v", failed)
	}
	return set, nil
}

// printSet prints every metric by name with its unit, one column per
// workload.
func printSet(w io.Writer, set *reportSet, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprint(tw, "metric\tunit")
	for _, r := range set.Reports {
		fmt.Fprintf(tw, "\t%s", r.Workload)
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s", d.Name, d.Unit)
		for _, r := range set.Reports {
			fmt.Fprintf(tw, "\t%.6g", r.Metrics[d.Name].Value)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "failed/attempted\truns")
	for _, r := range set.Reports {
		fmt.Fprintf(tw, "\t%d/%d", r.Failed, r.Attempted)
	}
	fmt.Fprintln(tw)
	tw.Flush()
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two files: A.json B.json")
	}
	a, err := loadSet(args[0])
	if err != nil {
		return err
	}
	b, err := loadSet(args[1])
	if err != nil {
		return err
	}
	if !compareSets(os.Stdout, a, b, false) {
		return fmt.Errorf("%s regressed against %s", args[1], args[0])
	}
	return nil
}

// runSelfcheck runs the full set twice on the same code and seed and
// compares the two: host metrics must agree within their bounds and the
// simulated clock must repeat exactly.
func runSelfcheck(opt runOptions) error {
	var sets [2]*reportSet
	for i := range sets {
		file := filepath.Join(buildDirOrTemp(), fmt.Sprintf("selfcheck_%c.json", 'A'+i))
		s, err := runAll(opt, file)
		if err != nil {
			return err
		}
		sets[i] = s
		fmt.Println("set written to", file)
	}
	fmt.Println()
	if !compareSets(os.Stdout, sets[0], sets[1], true) {
		return fmt.Errorf("two runs of the same code disagree")
	}
	return nil
}

// buildDirOrTemp is the wrapper's build directory when the benchmark was
// started through it, and the system's temporary directory otherwise.
func buildDirOrTemp() string {
	if st, err := os.Stat(buildDir); err == nil && st.IsDir() {
		return buildDir
	}
	return os.TempDir()
}
