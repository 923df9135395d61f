package golden

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakeT is the test a record reports to, collecting what it reports.
type fakeT struct {
	testing.TB
	reports []string
}

func (f *fakeT) Helper()      {}
func (f *fakeT) Name() string { return "TestPinned" }
func (f *fakeT) Failed() bool { return len(f.reports) > 0 }
func (f *fakeT) Errorf(format string, args ...any) {
	f.reports = append(f.reports, fmt.Sprintf(format, args...))
}
func (f *fakeT) Fatalf(format string, args ...any) {
	f.Errorf(format, args...)
	runtime.Goexit()
}

// pin runs one pinning test against the record at path — Open, a Check
// per cell, Close — with -update set to upd, and returns what it reported.
func pin(path string, upd bool, cells ...string) []string {
	f, old, done := &fakeT{}, *update, make(chan bool)
	*update = upd
	defer func() { *update = old }()
	go func() {
		defer close(done)
		r := Open(f, path)
		defer r.Close()
		for _, c := range cells {
			name, v, _ := strings.Cut(c, " ")
			r.Check(f, name, v)
		}
	}()
	<-done
	return f.reports
}

// setFlag sets a flag of the test binary for the rest of the test.
func setFlag(t *testing.T, name, value string) {
	old := flag.Lookup(name).Value.String()
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { flag.Set(name, old) })
}

func read(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.golden")
	cells := []string{"b/2 7 8", "a 1", "b 0x1f", "a/x k=v w=z"}
	if got := pin(path, true, cells...); got != nil {
		t.Fatalf("-update reported %q", got)
	}
	want := "# TestPinned pins these cells, one \"cell value\" line each, sorted; `make repin` rewrites them.\n" +
		"a 1\na/x k=v w=z\nb 0x1f\nb/2 7 8\n"
	if got := read(t, path); got != want {
		t.Fatalf("record:\n%s\nwant:\n%s", got, want)
	}
	if got := pin(path, false, cells...); got != nil {
		t.Fatalf("the record it wrote reports %q", got)
	}
}

func TestUpdateOverUnchangedValuesIsByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.golden")
	pin(path, true, "x 1", "y 2", "z 3")
	before := read(t, path)
	pin(path, true, "z 3", "x 1", "y 2")
	if after := read(t, path); after != before {
		t.Fatalf("rewritten as\n%s\nwas\n%s", after, before)
	}
}

func TestChangedMissingAndStaleCellsFail(t *testing.T) {
	for _, f := range []string{"test.short", "test.run", "test.skip"} {
		setFlag(t, f, flag.Lookup(f).DefValue) // a whole run, however this test was selected
	}
	path := filepath.Join(t.TempDir(), "r.golden")
	pin(path, true, "a 1", "b 2", "c 3")
	got := strings.Join(pin(path, false, "a 1", "b 5", "d 4", "e "), "\n")
	for _, want := range []string{
		path + ": cell b: got 5, recorded 2",
		path + ": cell d: got 4, recorded (none)",
		path + ": cell c: got (none), recorded 3",
		path + ": cell e: got , recorded (none)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("reports\n%s\nlack %q", got, want)
		}
	}
	if strings.Contains(got, "cell a") {
		t.Errorf("an unchanged cell was reported:\n%s", got)
	}
}

func TestSubsetRunReportsNoStaleCell(t *testing.T) {
	for _, f := range [][2]string{{"test.short", "true"}, {"test.run", "TestPinned/a"}, {"test.skip", "TestPinned/b"}} {
		t.Run(f[0], func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "r.golden")
			pin(path, true, "a 1", "b 2")
			setFlag(t, f[0], f[1])
			if got := pin(path, false, "a 1"); got != nil {
				t.Errorf("a subset run reported %q", got)
			}
			pin(path, true, "a 9")
			if got, want := read(t, path), "a 9\nb 2\n"; !strings.HasSuffix(got, want) {
				t.Errorf("a subset -update wrote\n%s\nwant its unreached cells kept:\n%s", got, want)
			}
		})
	}
}

func TestReadNeverWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.golden")
	pin(path, true, "a 1")
	before := read(t, path)
	f, old := &fakeT{}, *update
	*update = true
	defer func() { *update = old }()
	r := Read(f, path)
	r.Check(f, "a", 2)
	r.Close()
	if len(f.reports) != 1 || !strings.Contains(f.reports[0], "cell a: got 2, recorded 1") {
		t.Errorf("Read under -update reported %q, want the changed cell", f.reports)
	}
	if read(t, path) != before {
		t.Error("Read's Close rewrote the record")
	}
}

func TestHandEditsAreRefused(t *testing.T) {
	for name, body := range map[string]string{
		"unsorted":   "b 1\na 2\n",
		"duplicated": "a 1\na 1\n",
		"no value":   "a\n",
		"empty":      "a \n",
	} {
		path := filepath.Join(t.TempDir(), "r.golden")
		if err := os.WriteFile(path, []byte("# header\n"+body), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, upd := range []bool{false, true} {
			if got := pin(path, upd); len(got) != 1 || !strings.Contains(got[0], "is not a \"cell value\" line in cell order") {
				t.Errorf("%s (-update %v): reported %q, want the record refused", name, upd, got)
			}
		}
	}
}

// TestAllocationRule: a count is held to its cell exactly, or on a loose
// record (another Go minor, or -race) to its cell plus a tenth, and the
// rounds of a measurement must agree. Zero stays zero either way.
func TestAllocationRule(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.golden")
	pin(path, true, "a 100", "z 0")
	for _, tc := range []struct {
		loose  bool
		cell   string
		counts []uint64
		fails  bool
	}{
		{false, "a", []uint64{100, 100, 100}, false},
		{false, "a", []uint64{99}, true},
		{false, "a", []uint64{100, 101, 100}, true},
		{false, "z", []uint64{0}, false},
		{false, "z", []uint64{1}, true},
		{true, "a", []uint64{110}, false},
		{true, "a", []uint64{111}, true},
		{true, "a", []uint64{90, 100}, false},
		{true, "a", []uint64{100, 111}, true},
		{true, "z", []uint64{0}, false},
		{true, "z", []uint64{1}, true},
		{true, "b", []uint64{0}, true},
	} {
		f := &fakeT{}
		r := Read(f, path)
		r.loose = tc.loose
		r.CheckAllocs(f, tc.cell, tc.counts...)
		if failed := len(f.reports) > 0; failed != tc.fails {
			t.Errorf("loose %v, cell %s, counts %v: reported %q", tc.loose, tc.cell, tc.counts, f.reports)
		}
	}
}

type tick int64

func (tick) String() string { return "rounded" }

func TestFields(t *testing.T) {
	type counts struct{ Hits, Misses int64 }
	got := Fields(struct {
		Fingerprint uint64
		At          tick
		Name        string
	}{0x1f, 7, "a:b {c}"}, counts{3, 4})
	if want := `Fingerprint=0x1f At=7 Name="a:b {c}" Hits=3 Misses=4`; got != want {
		t.Errorf("Fields = %s\nwant     %s", got, want)
	}
}
