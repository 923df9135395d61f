package nas

import (
	"fmt"
	"math"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

const embarSeed = 271828183

const embarSrc = `
program embar
seed %d
param n = %d
array double x[n]
array double q[16]
scalar double t1, t2, r, fac, y1, y2, sx, sy
scalar long l

// Generate the batch of uniform deviates (the out-of-core stream). The
// paper's EMBAR regenerates its random data every iteration, so there is
// no pre-initialized input to read.
for i = 0 .. n {
    x[i] = randlc()
}
// Consume pairs: Marsaglia polar method, tabulating |max| in q and
// accumulating the sums of the accepted gaussian deviates.
for i = 0 .. n / 2 {
    t1 = 2.0 * x[2 * i] - 1.0
    t2 = 2.0 * x[2 * i + 1] - 1.0
    r = t1 * t1 + t2 * t2
    if r <= 1.0 && r > 0.0 {
        fac = sqrt(-2.0 * log(r) / r)
        y1 = t1 * fac
        y2 = t2 * fac
        l = int(fmax(fabs(y1), fabs(y2)))
        q[l] = q[l] + 1.0
        sx = sx + y1
        sy = sy + y2
    }
}
`

// EMBAR is the NAS embarrassingly-parallel kernel: generate gaussian
// deviates and tabulate them. It is the suite's pure streaming case — the
// compiler's analysis is exact, so (as in Figure 4(b)) essentially none
// of its prefetches are unnecessary, and releases keep most of memory
// free (Table 3).
func EMBAR() *App {
	return &App{
		Name: "EMBAR",
		Desc: "embarrassingly parallel: gaussian deviates via the polar method, tabulated",
		Build: func(scale float64) *ir.Program {
			n := scaleInt(1<<20, scale, 1<<12) &^ 1 // even
			return mustParse(embarSrc, int64(embarSeed), n)
		},
		Seed: seedEMBAR,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			rng := newRandlc(embarSeed)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.next()
			}
			var q [16]float64
			var sx, sy float64
			for i := int64(0); i < n/2; i++ {
				t1 := 2*xs[2*i] - 1
				t2 := 2*xs[2*i+1] - 1
				r := t1*t1 + t2*t2
				if r <= 1 && r > 0 {
					fac := math.Sqrt(-2 * math.Log(r) / r)
					y1, y2 := t1*fac, t2*fac
					l := int64(math.Max(math.Abs(y1), math.Abs(y2)))
					q[l]++
					sx += y1
					sy += y2
				}
			}
			gotSx, err := floatScalar(prog, env, "sx")
			if err != nil {
				return err
			}
			gotSy, err := floatScalar(prog, env, "sy")
			if err != nil {
				return err
			}
			if !approxEq(gotSx, sx, 1e-9) || !approxEq(gotSy, sy, 1e-9) {
				return fmt.Errorf("EMBAR: sums (%g, %g), want (%g, %g)", gotSx, gotSy, sx, sy)
			}
			for l := int64(0); l < 16; l++ {
				if got := peekF(prog, v, "q", l); got != q[l] {
					return fmt.Errorf("EMBAR: q[%d] = %g, want %g", l, got, q[l])
				}
			}
			return nil
		},
	}
}

// seedEMBAR writes nothing: EMBAR generates its own data.
var seedEMBAR = seedOnce(func(*ir.Program, exec.PageSink, int64) {})
