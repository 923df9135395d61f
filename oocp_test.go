package oocp_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	oocp "repro"
)

const apiSrc = `
program api
param n = 1 << 17
array double a[n]
scalar double s
for i = 0 .. n {
    s = s + a[i]
}
`

func TestPublicAPIRoundTrip(t *testing.T) {
	prog, err := oocp.ParseProgram(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	machine := oocp.DefaultMachine()
	if err := prog.Resolve(machine.PageSize); err != nil {
		t.Fatal(err)
	}
	data := oocp.DataBytes(prog, machine.PageSize)
	if data != (1<<17)*8 {
		t.Fatalf("data bytes = %d", data)
	}

	cfg := oocp.DefaultConfig(oocp.MachineFor(data, 2))
	cfg.Seed = oocp.Seeder(map[string]func(int64) float64{
		"a": func(int64) float64 { return 2 },
	}, nil)

	p, err := oocp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Env.Floats[0]; got != float64(1<<17)*2 {
		t.Fatalf("sum = %v", got)
	}

	cfg.Prefetch = false
	prog2, _ := oocp.ParseProgram(apiSrc)
	o, err := oocp.Run(prog2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Speedup(o) <= 1 {
		t.Fatalf("prefetching did not win: %.2f", p.Speedup(o))
	}
	if oocp.Peek(p, "a", 0) != 2 {
		t.Fatal("Peek broken")
	}
}

func TestPublicCompileShowsHints(t *testing.T) {
	prog, err := oocp.ParseProgram(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := oocp.Compile(prog, oocp.DefaultMachine(), oocp.DefaultCompilerOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := oocp.PrintProgram(res.Prog)
	if !strings.Contains(out, "prefetch") {
		t.Fatalf("no prefetch hints in compiled output:\n%s", out)
	}
	if !strings.Contains(res.PlanString(), "dense") {
		t.Fatal("plan missing")
	}
}

func TestSuiteAccessors(t *testing.T) {
	if len(oocp.Suite()) != 8 {
		t.Fatal("suite size")
	}
	if oocp.AppByName("FFT") == nil {
		t.Fatal("AppByName")
	}
}

func TestRunContextCancelled(t *testing.T) {
	prog, err := oocp.ParseProgram(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oocp.DefaultConfig(oocp.MachineFor((1<<17)*8, 2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := oocp.RunContext(ctx, prog, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same program still runs fine on a live context.
	if _, err := oocp.RunContext(context.Background(), prog, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPeekE(t *testing.T) {
	prog, err := oocp.ParseProgram(apiSrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := oocp.DefaultConfig(oocp.MachineFor((1<<17)*8, 2))
	cfg.Seed = oocp.Seeder(map[string]func(int64) float64{
		"a": func(int64) float64 { return 7 },
	}, nil)
	res, err := oocp.Run(prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := oocp.PeekE(res, "a", 3); err != nil || v != 7 {
		t.Fatalf("PeekE = %v, %v", v, err)
	}
	if _, err := oocp.PeekE(res, "nosuch", 0); err == nil {
		t.Fatal("PeekE accepted a missing array")
	}
	if _, err := oocp.PeekE(res, "a", 1<<20); err == nil {
		t.Fatal("PeekE accepted an out-of-range index")
	}
	// Peek now panics with a useful error instead of a nil dereference.
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "nosuch") {
				t.Fatalf("Peek panic = %v, want named-array error", r)
			}
		}()
		oocp.Peek(res, "nosuch", 0)
	}()
}
