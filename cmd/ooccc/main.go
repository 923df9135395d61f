// Command ooccc is the compiler driver: it parses a program in the
// front-end loop language (from a file, or a built-in NAS kernel by
// name), runs the prefetching pass, and prints the compiler's plan plus
// the transformed program with its inserted prefetch_block /
// prefetch_release_block calls — the paper's Figure 2, regenerated for
// any input.
//
// Usage:
//
//	ooccc [-mem MB] [-pages N] [-tv] [-no-releases] <file.loop | APP-NAME>
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
// parse or compile.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ooccc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	memMB := fs.Float64("mem", 8, "memory size the compiler targets, MB")
	pages := fs.Int64("pages", 4, "pages per block prefetch")
	tv := fs.Bool("tv", false, "enable two-version loops (§4.1.1 extension)")
	noRel := fs.Bool("no-releases", false, "disable release-hint insertion")
	scale := fs.Float64("scale", 0.25, "problem scale for built-in NAS kernels")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	const usage = "usage: ooccc [flags] <file.loop | BUK|CGM|EMBAR|FFT|MGRID|APPLU|APPSP|APPBT>"
	// The compiler would clamp a block size below one page and compile for
	// a memory size below zero; a driver refuses both.
	bad := ""
	switch {
	case !(*memMB > 0):
		bad = fmt.Sprintf(": -mem must be positive, got %g", *memMB)
	case *pages <= 0:
		bad = fmt.Sprintf(": -pages must be positive, got %d", *pages)
	case !(*scale > 0):
		bad = fmt.Sprintf(": -scale must be positive, got %g", *scale)
	}
	if bad != "" || fs.NArg() != 1 {
		fmt.Fprintln(stderr, usage+bad)
		return 2
	}
	arg := fs.Arg(0)

	var prog *oocp.Program
	if app := oocp.AppByName(arg); app != nil {
		prog = app.Build(*scale)
	} else {
		src, err := os.ReadFile(arg)
		if err != nil {
			fmt.Fprintln(stderr, "ooccc:", err)
			return 1
		}
		prog, err = oocp.ParseProgram(string(src))
		if err != nil {
			fmt.Fprintln(stderr, "ooccc:", err)
			return 1
		}
	}

	machine := oocp.DefaultMachine()
	machine.MemoryBytes = int64(*memMB * (1 << 20))
	opts := oocp.DefaultCompilerOptions()
	opts.PagesPerFetch = *pages
	opts.TwoVersionLoops = *tv
	opts.Releases = !*noRel

	res, err := oocp.Compile(prog, machine, opts)
	if err != nil {
		fmt.Fprintln(stderr, "ooccc:", err)
		return 1
	}
	fmt.Fprintln(stdout, "/* ---- compiler plan ---- */")
	fmt.Fprint(stdout, res.PlanString())
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "/* ---- original program ---- */")
	fmt.Fprint(stdout, oocp.PrintProgram(prog))
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "/* ---- with compiler-inserted prefetching ---- */")
	fmt.Fprint(stdout, oocp.PrintProgram(res.Prog))
	return 0
}
