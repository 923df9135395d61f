package main

import (
	"bytes"
	"strings"
	"testing"
)

func ooccc(args ...string) (status int, stdout, stderr string) {
	var out, errb bytes.Buffer
	status = run(args, &out, &errb)
	return status, out.String(), errb.String()
}

// TestRejectsNonPositiveSizes: a size the compiler would clamp or
// mis-compile for is a usage error — exit 2, one line naming the flag and
// the value, nothing on stdout — as oocbench treats -scale.
func TestRejectsNonPositiveSizes(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-pages", "0", "BUK"}, "-pages must be positive, got 0"},
		{[]string{"-pages", "-3", "BUK"}, "-pages must be positive, got -3"},
		{[]string{"-mem", "0", "BUK"}, "-mem must be positive, got 0"},
		{[]string{"-mem", "-1", "BUK"}, "-mem must be positive, got -1"},
		{[]string{"-mem", "NaN", "BUK"}, "-mem must be positive, got NaN"},
		{[]string{"-scale", "-1", "BUK"}, "-scale must be positive, got -1"},
		{[]string{"-scale", "0", "BUK"}, "-scale must be positive, got 0"},
		{[]string{}, "usage: ooccc"},
		{[]string{"BUK", "CGM"}, "usage: ooccc"},
		{[]string{"-no-such-flag", "BUK"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		status, stdout, stderr := ooccc(c.args...)
		if status != 2 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("ooccc %v: exit %d, stdout %q, stderr %q; want exit 2 with %q", c.args, status, stdout, stderr, c.want)
		}
		if !strings.Contains(stderr, "usage") && !strings.Contains(stderr, "Usage") {
			t.Errorf("ooccc %v: stderr %q carries no usage", c.args, stderr)
		}
		if c.want != "flag provided but not defined" && strings.Count(stderr, "\n") != 1 {
			t.Errorf("ooccc %v: stderr is not one line: %q", c.args, stderr)
		}
	}
}

// TestCompilesFileAndNASName: both kinds of input print the plan, the
// original and the program with prefetches inserted; an unreadable or
// unparsable file is exit 1.
func TestCompilesFileAndNASName(t *testing.T) {
	for _, arg := range []string{"../../examples/kernels/matmul.loop", "CGM"} {
		status, stdout, stderr := ooccc(arg)
		if status != 0 || stderr != "" {
			t.Fatalf("ooccc %s: exit %d, stderr %q", arg, status, stderr)
		}
		for _, want := range []string{"/* ---- compiler plan ---- */", "/* ---- original program ---- */",
			"/* ---- with compiler-inserted prefetching ---- */", "prefetch_block(&"} {
			if !strings.Contains(stdout, want) {
				t.Errorf("ooccc %s: output lacks %q", arg, want)
			}
		}
	}
	if status, _, stderr := ooccc("-pages", "8", "-no-releases", "-tv", "-mem", "2", "-scale", "0.1", "APPBT"); status != 0 {
		t.Errorf("ooccc with every flag set: exit %d, stderr %q", status, stderr)
	}
	if status, stdout, stderr := ooccc("no-such-file.loop"); status != 1 || stdout != "" || !strings.HasPrefix(stderr, "ooccc: ") {
		t.Errorf("ooccc no-such-file.loop: exit %d, stdout %q, stderr %q", status, stdout, stderr)
	}
}
