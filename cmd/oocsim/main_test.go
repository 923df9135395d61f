package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sim runs the driver with args and returns its exit status and both
// streams.
func sim(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// kernel writes src to a .loop file and returns its path.
func kernel(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "k.loop")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunsAppAndKernel(t *testing.T) {
	code, out, errs := sim("-scale", "0.05", "-timeline", "EMBAR")
	if code != 0 || !strings.Contains(out, "validation: ok") || !strings.Contains(out, "compiler plan:") {
		t.Fatalf("EMBAR: exit %d\n%s%s", code, out, errs)
	}
	path := kernel(t, "program k\nparam n = 1 << 16\narray double a[n]\nscalar double s\nfor i = 0 .. n {\n    s = s + a[i]\n}\n")
	for _, flags := range [][]string{nil, {"-original"}, {"-no-rt", "-warm"}} {
		code, out, errs := sim(append(flags, path)...)
		if code != 0 || !strings.Contains(out, "program          k") || strings.Contains(out, "validation") {
			t.Errorf("%v: exit %d\n%s%s", flags, code, out, errs)
		}
	}
}

// A user kernel that cannot run is one line on stderr and exit 1, never
// a crash: a trap while running, and the four forms of a constant
// division by zero that once panicked inside ir.ConstEval.
func TestBadKernelsFailCleanly(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"program k\nparam n = 64\narray double a[n]\nfor i = 0 .. n {\n    a[i + 1] = 1.0\n}\n",
			"oocsim: core: run k: exec: a subscript 64 out of range [0,64) in dim 0"},
		{"program k\nparam n = 8 % 0\n", "oocsim: 2:1: param n: value must be constant (no division by zero)"},
		{"program k\nparam n = 8 / 0\n", "oocsim: 2:1: param n: value must be constant (no division by zero)"},
		{"program k\nparam n = 8\narray double a[n / 0]\n", "oocsim: ir: array a: extent (n / 0) not evaluable from parameters"},
		{"program k\nparam n = 8\narray double a[n]\nfor i = 0 .. n / 0 {\n    a[i] = 1.0\n}\n",
			"oocsim: core: run k: exec: integer divide by zero"},
	} {
		for _, flags := range [][]string{nil, {"-original"}} {
			code, out, errs := sim(append(flags, kernel(t, c.src))...)
			if code != 1 || out != "" || errs != c.want+"\n" {
				t.Errorf("%q %v: exit %d, stdout %q, stderr %q; want exit 1 and %q", c.src, flags, code, out, errs, c.want)
			}
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{nil, {"BUK", "CGM"}, {"-no-such-flag", "BUK"}} {
		if code, out, _ := sim(args...); code != 2 || out != "" {
			t.Errorf("oocsim %v: exit %d, stdout %q; want exit 2 and no output", args, code, out)
		}
	}
	if code, _, errs := sim(filepath.Join(t.TempDir(), "missing.loop")); code != 1 || !strings.Contains(errs, "missing.loop") {
		t.Errorf("missing file: exit %d, stderr %q", code, errs)
	}
}
