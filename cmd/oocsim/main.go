// Command oocsim runs one application (a built-in NAS kernel or a source
// file) on the simulated system and reports the full statistics of the
// run, in any of the paper's configurations.
//
// Usage:
//
//	oocsim [-ratio F] [-scale F] [-original] [-no-rt] [-warm] <file.loop | APP-NAME>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	oocp "repro"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams passed in. It returns the
// exit status: 2 for a usage error, 1 for an input that does not read,
// parse, run or validate.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ratio := fs.Float64("ratio", 0, "data:memory ratio (0 = app standard, e.g. 2)")
	scale := fs.Float64("scale", 1.0, "problem-size multiplier")
	original := fs.Bool("original", false, "run without prefetching (the O configuration)")
	noRT := fs.Bool("no-rt", false, "disable the run-time filtering layer")
	warm := fs.Bool("warm", false, "warm-start: preload the data set before timing")
	timeline := fs.Bool("timeline", false, "print an ASCII timeline of free memory and faults")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: oocsim [flags] <file.loop | APP-NAME>")
		return 2
	}
	arg := fs.Arg(0)
	fail := func(what ...any) int {
		fmt.Fprintln(stderr, append([]any{"oocsim:"}, what...)...)
		return 1
	}

	var prog *oocp.Program
	app := oocp.AppByName(arg)
	if app != nil {
		prog = app.Build(*scale)
		if *ratio <= 0 {
			*ratio = app.Ratio()
		}
	} else {
		src, err := os.ReadFile(arg)
		if err != nil {
			return fail(err)
		}
		if prog, err = oocp.ParseProgram(string(src)); err != nil {
			return fail(err)
		}
		if *ratio <= 0 {
			*ratio = 2
		}
	}

	machine := oocp.DefaultMachine()
	if err := prog.Resolve(machine.PageSize); err != nil {
		return fail(err)
	}
	data := oocp.DataBytes(prog, machine.PageSize)
	cfg := oocp.DefaultConfig(oocp.MachineFor(data, *ratio))
	cfg.Prefetch = !*original
	cfg.RuntimeFilter = !*noRT
	cfg.WarmStart = *warm
	if *timeline {
		cfg.SamplePeriod = 20 * 1000 * 1000 // 20ms of simulated time
	}
	if app != nil {
		cfg.Seed = app.Seed
	}

	res, err := oocp.Run(prog, cfg)
	if err != nil {
		return fail(err)
	}
	if app != nil {
		if err := app.Check(prog, res.VM, res.Env); err != nil {
			return fail("VALIDATION FAILED:", err)
		}
		fmt.Fprintln(stdout, "validation: ok")
	}
	fmt.Fprintf(stdout, "program          %s\n", prog.Name)
	fmt.Fprintf(stdout, "data             %.2f MB (%.2fx memory)\n",
		float64(data)/(1<<20), float64(data)/float64(cfg.Machine.MemoryBytes))
	fmt.Fprintf(stdout, "execution time   %v\n", res.Elapsed)
	t := res.Times
	fmt.Fprintf(stdout, "  user           %v\n", t.User)
	fmt.Fprintf(stdout, "  sys (faults)   %v\n", t.SysFault)
	fmt.Fprintf(stdout, "  sys (prefetch) %v\n", t.SysPrefetch)
	fmt.Fprintf(stdout, "  idle (stall)   %v\n", t.Idle)
	m := res.Mem
	fmt.Fprintf(stdout, "faults           %d major, %d minor\n", m.MajorFaults, m.MinorFaults)
	fmt.Fprintf(stdout, "fault classes    %d prefetched-hit, %d prefetched-fault, %d non-prefetched (coverage %.1f%%)\n",
		m.PrefetchedHits, m.PrefetchedFaults, m.NonPrefetchedFault, m.CoverageFactor()*100)
	fmt.Fprintf(stdout, "prefetch calls   %d syscalls, %d pages issued, %d unnecessary at OS, %d dropped\n",
		m.PrefetchCalls, m.PrefetchIssued, m.PrefetchUnneeded, m.PrefetchDropped)
	fmt.Fprintf(stdout, "run-time layer   %d inserted pages, %.1f%% filtered\n",
		res.RT.InsertedPages, res.RT.UnnecessaryInsertedFrac()*100)
	fmt.Fprintf(stdout, "releases         %d pages; avg memory free %.1f%%\n", m.ReleasedPages, res.AvgFree*100)
	fmt.Fprintf(stdout, "disk utilization %.1f%%\n", res.DiskUtil*100)
	if *timeline {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, oocp.RenderTimeline(res, 72))
	}
	if len(res.Plan) > 0 {
		fmt.Fprintln(stdout, "\ncompiler plan:")
		for _, e := range res.Plan {
			status := "covered at " + e.Pipeline
			if !e.Covered {
				status = "MISSED"
			}
			fmt.Fprintf(stdout, "  %-10s %-9s %s (strip %d, %d pages, distance %d, release %v)\n",
				e.Array, e.Kind, status, e.StripLen, e.Pages, e.Dist, e.Release)
		}
	}
	return 0
}
