package lang

import (
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/rt"
	"repro/internal/sim"
	"repro/internal/stripefs"
	"repro/internal/vm"
)

// runSrc parses, compiles, and executes a source program on a small
// simulated machine, returning the VM and final environment.
func runSrc(t *testing.T, src string) (*vm.VM, *exec.Env) {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p := hw.Default()
	p.MemoryBytes = 256 * p.PageSize
	c := sim.NewClock()
	fs := stripefs.New(c, p, nil)
	if err := prog.Resolve(p.PageSize); err != nil {
		t.Fatal(err)
	}
	pages := prog.TotalBytes(p.PageSize) / p.PageSize
	if pages == 0 {
		pages = 1
	}
	file, err := fs.Create(prog.Name, pages)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(c, p, file)
	m, err := exec.New(prog, v, rt.Register(v, true))
	if err != nil {
		t.Fatal(err)
	}
	env := m.Run()
	v.Finish()
	return v, env
}

func TestParseAndRunSum(t *testing.T) {
	_, env := runSrc(t, `
program sum
param n = 1000
array double a[n]
scalar double s
for i = 0 .. n {
    a[i] = 2.0
}
for i = 0 .. n {
    s = s + a[i]
}
`)
	if got := env.Floats[0]; got != 2000 {
		t.Fatalf("sum = %v, want 2000", got)
	}
}

func TestParamExpressionsAndShifts(t *testing.T) {
	prog, err := Parse(`
program p
param k = 10
param n = 1 << k
array double a[n]
`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := prog.ParamValue("n"); v != 1024 {
		t.Fatalf("n = %d, want 1024", v)
	}
}

func TestUnknownParam(t *testing.T) {
	prog, err := Parse(`
program p
param bm = 5 unknown
param n = 100
array double a[n]
scalar double s
for i = 0 .. bm {
    s = s + a[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, prm := range prog.Params {
		if prm.Name == "bm" {
			found = true
			if prm.Known {
				t.Fatal("bm should be unknown to the compiler")
			}
			if prm.Val != 5 {
				t.Fatalf("bm = %d, want 5", prm.Val)
			}
		}
	}
	if !found {
		t.Fatal("param bm missing")
	}
}

func TestIndirectAndConditionals(t *testing.T) {
	_, env := runSrc(t, `
program buk_mini
param n = 512
array long key[n]
array long count[n]
scalar long hits
for i = 0 .. n {
    key[i] = (i * 7) % n
}
for i = 0 .. n {
    count[key[i]] = count[key[i]] + 1
}
for i = 0 .. n {
    if count[i] == 1 {
        hits = hits + 1
    }
}
`)
	// 7 and 512 are coprime, so key is a permutation: every count is 1.
	if got := env.Ints[1]; got != 512 { // slot 1: "hits" (after param n)
		t.Fatalf("hits = %d, want 512", got)
	}
}

func TestScalarsAndIntrinsics(t *testing.T) {
	_, env := runSrc(t, `
program intr
scalar double a, b
a = sqrt(16.0)
b = pow(2.0, 10.0) + fabs(-1.0) + fmin(3.0, 4.0)
`)
	if env.Floats[0] != 4 {
		t.Fatalf("sqrt = %v", env.Floats[0])
	}
	if env.Floats[1] != 1024+1+3 {
		t.Fatalf("b = %v, want 1028", env.Floats[1])
	}
}

func TestRandlcInSource(t *testing.T) {
	_, env := runSrc(t, `
program rng
seed 271828183
scalar double s
for i = 0 .. 1000 {
    s = s + randlc()
}
`)
	got := env.Floats[0]
	if got < 400 || got > 600 {
		t.Fatalf("sum of 1000 uniforms = %v, want ≈500", got)
	}
}

func TestMultiDimStore(t *testing.T) {
	_, env := runSrc(t, `
program md
param ni = 8
param nj = 8
array double g[ni][nj]
scalar double s
for i = 0 .. ni {
    for j = 0 .. nj {
        g[i][j] = float(i * 10 + j)
    }
}
s = g[3][4]
`)
	if env.Floats[0] != 34 {
		t.Fatalf("g[3][4] = %v, want 34", env.Floats[0])
	}
}

func TestStepLoops(t *testing.T) {
	_, env := runSrc(t, `
program st
scalar long k
for i = 0 .. 100 step 7 {
    k = k + 1
}
`)
	if got := env.Ints[0]; got != 15 { // slot 0: "k"
		t.Fatalf("iterations = %d, want 15", got)
	}
}

func TestLoopVarShadowing(t *testing.T) {
	_, env := runSrc(t, `
program sh
scalar long k
for i = 0 .. 3 {
    for i = 0 .. 5 {
        k = k + 1
    }
}
`)
	if got := env.Ints[0]; got != 15 { // slot 0: "k"
		t.Fatalf("k = %d, want 15 (3×5)", got)
	}
}

func TestComments(t *testing.T) {
	if _, err := Parse(`
program c // trailing comment
/* block
   comment */
scalar double s
s = 1.0 // done
`); err != nil {
		t.Fatal(err)
	}
}

// errorCases are sources the front end rejects, each with a substring of
// its error: among them every error text the front end can report.
var errorCases = []struct {
	src  string
	want string
}{
	{`x`, "program"},
	{`program p stray = 1.0`, "undeclared scalar"},
	{`program p array double`, "identifier"},
	{`program p array double a`, "dimension"},
	{`program p scalar double s s = q`, "undeclared identifier"},
	{`program p scalar long k k = 1.5`, "float literal in integer context"},
	{`program p array long a[10] scalar double s s = a[0][1]`, "dimensions"},
	{`program p scalar double s for i = 0 .. 10 step 0 { s = 1.0 }`, "step"},
	{`program p scalar double s s = nosuch(1.0)`, "unknown function"},
	{`program p param n = m`, "undeclared"},
	{`program p scalar double s if 1 + 2 { s = 1.0 }`, "comparison"},
	{`program p scalar double s { }`, "statement"},
	{`program p /* open`, "unterminated block comment"},
	{`program p param n = 1e`, "bad float literal"},
	{`program p param n = 99999999999999999999`, "bad integer literal"},
	{`program p scalar double s s = 1.0 $`, "unexpected character"},
	{`program p param n 4`, `expected "="`},
	{`program p seed x`, "seed needs an integer literal"},
	{`program p scalar int x`, "expected 'double' or 'long'"},
	{`program p scalar double s for i = 0 .. 3 { s = 1.0`, "unterminated block"},
	{`program p scalar double s for i = 0 .. 3 step n { s = 1.0 }`, "step needs an integer literal"},
	{`program p scalar double s s = )`, "expected expression"},
	{`program p param n = 1 scalar double n`, `scalar "n" redeclares param`},
	{`program p param n = 4 array double a[n], n[n]`, `array "n" redeclares param`},
	{`program p param n = 4 / 0`, "value must be constant"},
	{`program p scalar long k a[0] = 1`, "store to undeclared array"},
	{`program p array long a[10] a[0][1] = 1`, "dimensions"},
	{`program p scalar double x scalar long k k = x`, "float scalar \"x\" in integer context"},
	{`program p array double a[4] scalar long k k = a[0]`, "double array \"a\" in integer context"},
	{`program p scalar long k k = int(1.0, 2.0)`, "int() takes 1 argument"},
	{`program p scalar long k k = min(1)`, "min takes 2 arguments"},
	{`program p scalar long k k = sqrt(4.0)`, "call sqrt() in integer context"},
	{`program p scalar long k k = 1 < 2`, "boolean expression in integer context"},
	{`program p scalar long k k = !1`, "operator \"!\" in integer context"},
	{`program p scalar double s s = float(1, 2)`, "float() takes 1 argument"},
	{`program p scalar double s s = fmax(1.0)`, "fmax takes 2 arguments"},
	{`program p scalar double s s = pow(2.0)`, "pow takes 2 argument(s), got 1"},
	{`program p scalar double s s = 1.0 % 2.0`, "operator \"%\" not valid on floats"},
	{`program p scalar double s s = !1.0`, "operator \"!\" in float context"},
	{`program p scalar double s if s { s = 1.0 }`, "expected boolean expression"},
	{`program p scalar double s s = b[0]`, "undeclared array"},
	{"program p\nscalar double s, x\nx = 0.5\ns = (x < 1.0) + 1.0\n", "4:8: operator \"<\" not valid on floats"},
	{`program p scalar long k k = sqrt(q)`, "call sqrt() in integer context"},
}

func TestErrorMessages(t *testing.T) {
	for _, c := range errorCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error %q, want substring %q", c.src, err, c.want)
		}
	}
}

func TestErrorsHavePositions(t *testing.T) {
	for _, c := range []struct {
		src       string
		line, col int
	}{
		{"program p\nscalar double s\ns = q\n", 3, 5},
		// A bad literal is reported where it starts.
		{"program p\nparam n = 99999999999999999999\n", 2, 11},
		{"program p\nparam n = 1e999\n", 2, 11},
		// An unterminated block comment is reported where it opens.
		{"program p\n  /* open\n", 2, 3},
	} {
		_, err := Parse(c.src)
		le, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q) error %v of type %T, want a *Error", c.src, err, err)
			continue
		}
		if le.Line != c.line || le.Col != c.col {
			t.Errorf("Parse(%q) error at %d:%d, want %d:%d", c.src, le.Line, le.Col, c.line, c.col)
		}
	}
}

func TestParsedProgramIsCompilable(t *testing.T) {
	// End-to-end smoke: source → IR → printable, with classification
	// intact (b[i] dense, a[b[i]] indirect).
	prog, err := Parse(`
program fig2
param n = 100000
array double a[n]
array long b[n]
scalar double s
for i = 0 .. n {
    a[b[i]] = a[b[i]] + 1.0
    s = s + a[i]
}
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Resolve(4096); err != nil {
		t.Fatal(err)
	}
	out := ir.Print(prog)
	if !strings.Contains(out, "a[b[i]]") {
		t.Fatalf("printed program missing indirect ref:\n%s", out)
	}
}
