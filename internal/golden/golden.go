// Package golden holds tests to the values they pinned under testdata/ and
// owns the one flag that rewrites them, -update (`make repin`). Tests only.
package golden

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata records tests compare against (make repin)")

// Record holds one test's cells to the record at path. Its test Opens it and
// defers Close; another package's test Reads it, to compare, never to write.
type Record struct {
	t         testing.TB
	path      string
	write     bool
	want, got map[string]string
}

func Open(t testing.TB, path string) *Record { return open(t, path, *update) }
func Read(t testing.TB, path string) *Record { return open(t, path, false) }

// open reads a header comment, then one "cell value" line a cell, in cell
// order; it refuses any other line, a hand edit.
func open(t testing.TB, path string, write bool) *Record {
	t.Helper()
	r := &Record{t: t, path: path, write: write, want: map[string]string{}, got: map[string]string{}}
	data, err := os.ReadFile(path)
	lines := strings.Split(string(data), "\n")
	for i := 1; err == nil && i < len(lines)-1; i++ {
		cell, v, ok := strings.Cut(lines[i], " ")
		if _, dup := r.want[cell]; !ok || v == "" || dup || lines[i] < lines[i-1] { // a line sorts as its cell
			err = fmt.Errorf("line %d: %q is not a \"cell value\" line in cell order", i+1, lines[i])
		}
		r.want[cell] = v
	}
	if err != nil && !(write && os.IsNotExist(err)) {
		t.Fatalf("golden: %s: %v", path, err)
	}
	return r
}

// Check holds cell to vals as fmt.Println prints them; not from parallel tests.
func (r *Record) Check(t testing.TB, cell string, vals ...any) {
	t.Helper()
	r.got[cell] = strings.TrimSuffix(fmt.Sprintln(vals...), "\n")
	if want, ok := r.want[cell]; (!ok || want != r.got[cell]) && !r.write {
		t.Errorf("%s: cell %s: got %s, recorded %s (make repin re-records a deliberate move)", r.path, cell, r.got[cell], cmp.Or(want, "(none)"))
	}
}

// Want returns the value recorded for cell, for a test that holds a cell
// to a bound of it instead of to it.
func (r *Record) Want(cell string) (string, bool) {
	v, ok := r.want[cell]
	return v, ok
}

// Close fails a test that ran its whole matrix (no -short, no -run or -skip of
// a subtest) on each recorded cell it did not produce; -update rewrites a
// passing test's record, keeping the cells a partial run missed.
func (r *Record) Close() {
	whole := !testing.Short() && !strings.Contains(flag.Lookup("test.run").Value.String()+flag.Lookup("test.skip").Value.String(), "/")
	for c, v := range r.want {
		if _, ok := r.got[c]; !ok && !whole {
			r.got[c] = v
		} else if !ok && !r.write {
			r.t.Errorf("%s: cell %s: got (none), recorded %s (make repin re-records a deliberate move)", r.path, c, v)
		}
	}
	if r.write && !r.t.Failed() {
		lines := []string{fmt.Sprintf("# %s pins these cells, one \"cell value\" line each, sorted; `make repin` rewrites them.", r.t.Name())}
		for c, v := range r.got {
			lines = append(lines, c+" "+v)
		}
		slices.Sort(lines[1:])
		if err := os.WriteFile(r.path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			r.t.Fatalf("golden: %v", err)
		}
	}
}

// Fields prints the fields of each struct in vals as Name=%#v pairs: no String
// method rounds a value (sim.Time's does), and unsigned words print in hex.
func Fields(vals ...any) string {
	var s []string
	for _, val := range vals {
		v := reflect.ValueOf(val)
		for i := range v.NumField() {
			s = append(s, fmt.Sprintf("%s=%#v", v.Type().Field(i).Name, v.Field(i)))
		}
	}
	return strings.Join(s, " ")
}
