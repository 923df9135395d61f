package profile

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/hw"
	"repro/internal/ir"
)

// sumProg builds a two-array streaming sum: three reference sites
// (write a[i], read a[i], read b[i]) in canonical order.
func sumProg() *ir.Program {
	p := ir.NewProgram("sum")
	n := p.NewParam("n", 1<<12, true)
	a := p.NewArrayF("a", n)
	b := p.NewArrayF("b", n)
	i := p.NewLoopVar("i")
	p.Body = []ir.Stmt{
		ir.For(i, ir.Int(0), n, 1,
			ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.LoadF(b, i))),
		),
	}
	return p
}

// sampleSet builds a representative artifact exercising every field.
func sampleSet() *Set {
	s := NewSet()
	s.Add(&Profile{
		Kernel:   "buk",
		PageSize: 4096,
		Sites: []SiteProfile{
			{
				Key: "r|i|count[key[i]]", Count: 100, Faults: 64, MinorFaults: 3, Hits: 7,
				StallTicks: 438400000, InterTicks: 1673700, InterN: 100,
				Strides: []StridePair{{Stride: 17, Count: 60}, {Stride: -3, Count: 9}}, StrideOther: 31,
			},
			{Key: "w|i|count[key[i]]", Count: 100},
			{Key: "r|i|key[i]"}, // never executed: zero-count sites are kept
		},
	})
	s.Add(&Profile{
		Kernel:   "cgm",
		PageSize: 4096,
		Sites:    []SiteProfile{{Key: "r|i.k|x[col[((i*32)+k)]]", Count: 5, Faults: 3, StallTicks: 3}},
	})
	return s
}

func TestRoundTripLossless(t *testing.T) {
	want := sampleSet()
	data, err := Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip not lossless:\n got %+v\nwant %+v", got, want)
	}
	// A second trip through the wire must be byte-stable.
	data2, err := Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal not byte-identical")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	mutate := func(f func(*Set)) string {
		s := sampleSet()
		f(s)
		data, err := Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	cases := []struct {
		name        string
		data        string
		wantVersion int  // expect *VersionError with this Got
		wantCorrupt bool // expect *CorruptError
	}{
		{name: "not json", data: "not an artifact", wantCorrupt: true},
		{name: "missing version", data: `{"kernels":{}}`, wantCorrupt: true},
		{name: "future version", data: `{"version":2,"kernels":{}}`, wantVersion: 2},
		{name: "ancient version", data: `{"version":0,"kernels":{}}`, wantVersion: 0},
		{name: "malformed body", data: `{"version":1,"kernels":37}`, wantCorrupt: true},
		{name: "null profile", data: `{"version":1,"kernels":{"buk":null}}`, wantCorrupt: true},
		{name: "kernel name mismatch", data: mutate(func(s *Set) {
			s.Kernels["buk"].Kernel = "not-buk"
		}), wantCorrupt: true},
		{name: "bad page size", data: mutate(func(s *Set) {
			s.Kernels["buk"].PageSize = 0
		}), wantCorrupt: true},
		{name: "empty site key", data: mutate(func(s *Set) {
			s.Kernels["buk"].Sites[0].Key = ""
		}), wantCorrupt: true},
		{name: "duplicate site key", data: mutate(func(s *Set) {
			s.Kernels["buk"].Sites[1].Key = s.Kernels["buk"].Sites[0].Key
		}), wantCorrupt: true},
		{name: "negative counts", data: mutate(func(s *Set) {
			s.Kernels["buk"].Sites[0].Faults = -1
		}), wantCorrupt: true},
		{name: "non-positive stride count", data: mutate(func(s *Set) {
			s.Kernels["buk"].Sites[0].Strides[0].Count = 0
		}), wantCorrupt: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Unmarshal([]byte(tc.data))
			if err == nil {
				t.Fatal("Unmarshal accepted a bad artifact")
			}
			var ve *VersionError
			var ce *CorruptError
			switch {
			case tc.wantCorrupt:
				if !errors.As(err, &ce) {
					t.Fatalf("want *CorruptError, got %T: %v", err, err)
				}
				if errors.As(err, &ve) {
					t.Fatalf("error is both corrupt and version: %v", err)
				}
			default:
				if !errors.As(err, &ve) {
					t.Fatalf("want *VersionError, got %T: %v", err, err)
				}
				if ve.Got != tc.wantVersion {
					t.Fatalf("VersionError.Got = %d, want %d", ve.Got, tc.wantVersion)
				}
			}
		})
	}
}

func TestRecorderAccounting(t *testing.T) {
	ps := hw.Default().PageSize
	prog := sumProg()
	if err := prog.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(prog, ps)
	sites := rec.Sites()
	if len(sites) == 0 {
		t.Fatal("no sites")
	}

	// Site 0: a faulting access, then two clean strided ones, then a hit.
	rec.Access(0, 0, 1000, 6000, 1, 0, 0)  // fault: stall 5000, no stride yet
	rec.Access(0, 8, 6100, 6200, 0, 0, 0)  // clean gap 200, stride +8
	rec.Access(0, 16, 6300, 6400, 0, 0, 0) // clean gap 200, stride +8
	rec.Access(0, 40, 6500, 6600, 0, 0, 1) // hit: gap excluded, stride +24

	p := rec.Profile()
	if len(p.Sites) != len(sites) {
		t.Fatalf("profile has %d sites, recorder %d", len(p.Sites), len(sites))
	}
	s := p.Site(sites[0].Key)
	if s == nil {
		t.Fatalf("site key %q missing from profile", sites[0].Key)
	}
	if s.Count != 4 || s.Faults != 1 || s.Hits != 1 || s.MinorFaults != 0 {
		t.Fatalf("counts: %+v", s)
	}
	if s.StallTicks != 5000 || s.AvgStallTicks() != 5000 {
		t.Fatalf("stall: %+v", s)
	}
	if s.InterTicks != 400 || s.InterN != 2 || s.AvgInterTicks() != 200 {
		t.Fatalf("inter: %+v", s)
	}
	if stride, frac := s.DominantStride(); stride != 8 || frac != 2.0/3.0 {
		t.Fatalf("dominant stride %d (%.2f)", stride, frac)
	}
	// Untouched sites still appear, with zero counts.
	z := p.Site(sites[1].Key)
	if z == nil || z.Count != 0 {
		t.Fatalf("zero-count site: %+v", z)
	}

	// More distinct strides than buckets spill into StrideOther.
	rec2 := NewRecorder(prog, ps)
	elem := int64(0)
	// The first access seeds lastElem without a stride, so n+1 accesses
	// record n deltas: buckets fill, the rest spill.
	for i := int64(1); i <= strideBuckets+4; i++ {
		elem += i * 100 // a fresh stride every access
		rec2.Access(0, elem, i*10, i*10+1, 0, 0, 0)
	}
	s2 := rec2.Profile().Site(sites[0].Key)
	if s2.StrideOther != 3 || len(s2.Strides) != strideBuckets {
		t.Fatalf("overflow: %d buckets, other=%d", len(s2.Strides), s2.StrideOther)
	}
}

// TestCrossKernelLookup: applying one kernel's artifact to another
// kernel's name yields nothing — the per-kernel keying that makes the
// compile-side mismatch degradation possible.
func TestCrossKernelLookup(t *testing.T) {
	s := sampleSet()
	if s.For("buk") == nil || s.For("cgm") == nil {
		t.Fatal("recorded kernels missing")
	}
	if s.For("embar") != nil {
		t.Fatal("lookup invented a profile")
	}
	var nilSet *Set
	if nilSet.For("buk") != nil {
		t.Fatal("nil set lookup")
	}
	if !strings.Contains((&VersionError{Got: 9}).Error(), "version 9") {
		t.Fatal("VersionError message")
	}
}

// recorderAccess is one observation on the pass-1 hot path. It must not
// allocate, or profiling runs would diverge from the differential
// contract's cost model on the host.
func recorderAccess(tb testing.TB) func() {
	ps := hw.Default().PageSize
	prog := sumProg()
	if err := prog.Resolve(ps); err != nil {
		tb.Fatal(err)
	}
	rec := NewRecorder(prog, ps)
	i := int64(0)
	return func() {
		t := i * 100
		rec.Access(0, i*8, t, t+10, 0, 0, 0)
		i++
	}
}

func BenchmarkRecorderAccess(b *testing.B) {
	op := recorderAccess(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestBenchmarkAllocs holds what one op of BenchmarkRecorderAccess
// allocates to testdata/allocs.golden.
func TestBenchmarkAllocs(t *testing.T) {
	rec := golden.OpenAllocs(t, "testdata/allocs.golden")
	defer rec.Close()
	rec.Allocs(t, "RecorderAccess", 100, func() func() { return recorderAccess(t) })
}
