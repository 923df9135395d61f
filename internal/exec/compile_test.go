package exec

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/stripefs"
)

// TestCompileRejections pins the compile-time rejections cost.go owns: a
// program either executor would mis-run is refused by both, with the same
// text, before any lowering.
func TestCompileRejections(t *testing.T) {
	type fixture struct {
		p     *ir.Program
		a2    *ir.Array // 2-D
		i     ir.ISlot
		s     ir.FScalar
		bound ir.IExpr
	}
	cases := []struct {
		name string
		body func(f fixture) []ir.Stmt
		want string
	}{
		{"load subscript count", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.For(f.i, ir.Int(0), f.bound, 1, ir.SetF(f.s, ir.LoadF(f.a2, f.i)))}
		}, "exec: array a: 1 subscripts for 2 dims"},
		{"store subscript count", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.For(f.i, ir.Int(0), f.bound, 1,
				ir.StoreF(f.a2, []ir.IExpr{f.i, f.i, f.i}, ir.Flt(1)))}
		}, "exec: array a: 3 subscripts for 2 dims"},
		{"hint subscript count", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.For(f.i, ir.Int(0), f.bound, 1,
				ir.Prefetch{Arr: f.a2, Idx: []ir.IExpr{f.i}, Pages: ir.Int(1)})}
		}, "exec: array a: 1 subscripts for 2 dims"},
		{"loop step 0", func(f fixture) []ir.Stmt {
			return []ir.Stmt{&ir.Loop{Var: f.i.Name, Slot: f.i.Slot, Lo: ir.Int(0), Hi: f.bound, Step: 0}}
		}, "exec: loop i has non-positive step 0"},
		{"loop step -1", func(f fixture) []ir.Stmt {
			return []ir.Stmt{&ir.Loop{Var: f.i.Name, Slot: f.i.Slot, Lo: ir.Int(0), Hi: f.bound, Step: -1}}
		}, "exec: loop i has non-positive step -1"},
		{"pow arity", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.SetF(f.s, ir.Call(ir.Pow, ir.Flt(2)))}
		}, "exec: intrinsic pow takes 2 args, got 1"},
		{"randlc arity", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.SetF(f.s, ir.Call(ir.Randlc, ir.Flt(2)))}
		}, "exec: intrinsic randlc takes 0 args, got 1"},
		{"int operator out of range", func(f fixture) []ir.Stmt {
			return []ir.Stmt{ir.For(f.i, ir.Int(0), f.bound, 1,
				ir.StoreF(f.a2, []ir.IExpr{f.i, ir.IBin{Op: 200, A: f.i, B: ir.Int(1)}}, ir.Flt(1)))}
		}, "exec: unknown int op 200"},
	}
	ps := hw.Default().PageSize
	for _, c := range cases {
		for _, opts := range []Options{{}, {NoFastPath: true}} {
			p := ir.NewProgram("bad")
			n := p.NewParam("n", 16, true)
			f := fixture{p: p, a2: p.NewArrayF("a", n, n), s: p.NewScalarF("s"), i: p.NewLoopVar("i"), bound: n}
			p.Body = c.body(f)
			_, err := Compile(p, ps, opts)
			if err == nil || err.Error() != c.want {
				t.Errorf("%s (NoFastPath=%v): Compile error %v, want %q", c.name, opts.NoFastPath, err, c.want)
			}
		}
	}
}

// TestCompileRecordingNeedsBytecode: the oracle cannot record, so asking
// for it with a recorder attached is an error, not a silent unrecorded run;
// and a program past the bytecode's limits is the same *LimitError with and
// without a recorder.
func TestCompileRecordingNeedsBytecode(t *testing.T) {
	ps := hw.Default().PageSize
	small, _ := sumProgram(64)
	if err := small.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(small, ps, Options{NoFastPath: true, Profile: profile.NewRecorder(small, ps)}); err == nil {
		t.Error("NoFastPath with Profile compiled")
	}

	flood := overflowPrograms["float registers"]()
	if err := flood.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Profile: profile.NewRecorder(flood, ps)}} {
		var le *LimitError
		if _, err := Compile(flood, ps, opts); !errors.As(err, &le) || le.Limit != "float registers" {
			t.Errorf("register overflow (recording %v): %v, want the float-register *LimitError", opts.Profile != nil, err)
		}
	}
}

// TestRecordingOnBytecode records an indirect gather, a gather feeding a
// 2-D store, and a dense update on the production executor, and checks
// the recorder against the access stream replayed in plain Go: per-site
// counts and dominant strides. The recording machine must be bytecode
// with spans off, and tick-identical to an unrecorded run.
func TestRecordingOnBytecode(t *testing.T) {
	const rows, cols = 24, 40
	pageElems := hw.Default().PageSize / ir.ElemSize
	n := 3 * pageElems
	bAt := func(i int64) int64 { return (3 * i) % n }
	mk := func() *ir.Program {
		p := ir.NewProgram("recorded")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		b := p.NewArrayI("b", np)
		c := p.NewArrayF("c", ir.Int(rows), ir.Int(cols))
		d := p.NewArrayF("d", np)
		s := p.NewScalarF("s")
		i, r, q, k := p.NewLoopVar("i"), p.NewLoopVar("r"), p.NewLoopVar("q"), p.NewLoopVar("k")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.LoadI(b, i))))),
			ir.For(r, ir.Int(0), ir.Int(rows), 1,
				ir.For(q, ir.Int(0), ir.Int(cols), 1,
					ir.StoreF(c, []ir.IExpr{r, q},
						ir.LoadF(a, ir.LoadI(b, ir.AddI(ir.MulI(r, ir.Int(cols)), q)))))),
			ir.For(k, ir.Int(0), np, 1,
				ir.StoreF(d, []ir.IExpr{k}, ir.MulF(ir.LoadF(d, k), ir.Flt(2)))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		ps := hw.Default().PageSize
		SeedF64(f, ps, p.ArrayByName("a"), func(i int64) float64 { return float64(i % 13) })
		SeedI64(f, ps, p.ArrayByName("b"), bAt)
		SeedF64(f, ps, p.ArrayByName("d"), func(i int64) float64 { return float64(i % 5) })
	}

	// The access stream, site by site, in profile.SitesOf order.
	type stream struct {
		key   string
		elems []int64
	}
	var gatherA, gatherB, storeC, rowA, rowB, dense []int64
	for i := int64(0); i < n; i++ {
		gatherA, gatherB = append(gatherA, bAt(i)), append(gatherB, i)
		dense = append(dense, i)
	}
	for e := int64(0); e < rows*cols; e++ {
		storeC, rowA, rowB = append(storeC, e), append(rowA, bAt(e)), append(rowB, e)
	}
	want := []stream{
		{"r|i|a[b[i]]", gatherA}, {"r|i|b[i]", gatherB},
		{"w|r.q|c[r,q]", storeC}, {"r|r.q|a[b[((r * 40) + q)]]", rowA}, {"r|r.q|b[((r * 40) + q)]", rowB},
		{"w|k|d[k]", dense}, {"r|k|d[k]", dense},
	}

	plainProg, recProg := mk(), mk()
	_, vPlain, filePlain, mPlain := buildWith(t, plainProg, 8, Options{})
	if err := recProg.Resolve(hw.Default().PageSize); err != nil {
		t.Fatal(err)
	}
	rec := profile.NewRecorder(recProg, hw.Default().PageSize)
	_, vRec, fileRec, mRec := buildWith(t, recProg, 8, Options{Profile: rec})

	if mRec.code == nil || mRec.body != nil || mRec.SpecializedSites() != 0 {
		t.Fatalf("recording machine: bytecode %v, closure tree %v, %d specialized sites",
			mRec.code != nil, mRec.body != nil, mRec.SpecializedSites())
	}
	if len(mRec.Reports()) != len(mPlain.Reports()) || len(mRec.Reports()) == 0 {
		t.Fatalf("recording machine reports %d loops, plain %d", len(mRec.Reports()), len(mPlain.Reports()))
	}
	declined := 0
	for i, r := range mRec.Reports() {
		pr := mPlain.Reports()[i]
		wantReason := pr.Reason
		if pr.Driver == "page-run" {
			wantReason = ReasonRecording
			declined++
		}
		if r.Driver != "kernel" || r.Reason != wantReason {
			t.Errorf("loop %s: recording compile reports %s/%s, want kernel/%s", r.Var, r.Driver, r.Reason, wantReason)
		}
	}
	if declined == 0 {
		t.Error("no page-run loop in the plain compile — ReasonRecording is untested")
	}

	seed(filePlain, plainProg)
	seed(fileRec, recProg)
	envPlain := mPlain.Run()
	vPlain.Finish()
	envRec := mRec.Run()
	vRec.Finish()
	if envPlain.Floats[0] != envRec.Floats[0] || vPlain.Times() != vRec.Times() || vPlain.Stats() != vRec.Stats() {
		t.Errorf("recording changed the simulation:\nplain %v %+v %+v\nrec   %v %+v %+v",
			envPlain.Floats[0], vPlain.Times(), vPlain.Stats(), envRec.Floats[0], vRec.Times(), vRec.Stats())
	}

	got := rec.Profile().Sites
	if len(got) != len(want) {
		t.Fatalf("recorded %d sites, want %d", len(got), len(want))
	}
	var faults int64
	for i, w := range want {
		g := got[i]
		deltas := map[int64]int64{}
		for j := 1; j < len(w.elems); j++ {
			deltas[w.elems[j]-w.elems[j-1]]++
		}
		var stride, most int64
		for d, c := range deltas {
			if c > most {
				stride, most = d, c
			}
		}
		gs, _ := g.DominantStride()
		if g.Key != w.key || g.Count != int64(len(w.elems)) || gs != stride {
			t.Errorf("site %d: recorded %q count %d dominant stride %d, replay says %q count %d stride %d",
				i, g.Key, g.Count, gs, w.key, len(w.elems), stride)
		}
		faults += g.Faults
	}
	if st := vRec.Stats(); faults == 0 || faults != st.PrefetchedFaults+st.NonPrefetchedFault {
		t.Errorf("sites recorded %d stalling faults, the VM took %d", faults, st.PrefetchedFaults+st.NonPrefetchedFault)
	}
}
