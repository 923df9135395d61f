package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

// cgmNzRow is the fixed number of nonzeros per matrix row.
const cgmNzRow = 32

// cgmIters is the number of matrix-vector iterations.
const cgmIters = 3

const cgmSrc = `
program cgm
param rows = %d
param nzrow = %d
param iters = %d
param nnz = rows * nzrow
array double a[nnz]
array long col[nnz]
array double x[rows]
array double q[rows]
scalar double sum, rho

for it = 0 .. iters {
    // q = A x  (sparse matrix-vector product; x[col[k]] is the indirect
    // reference that makes CGM the paper's hardest prefetch-address case)
    for i = 0 .. rows {
        sum = 0.0
        for k = 0 .. nzrow {
            sum = sum + a[i * nzrow + k] * x[col[i * nzrow + k]]
        }
        q[i] = sum
    }
    // rho = q . q
    rho = 0.0
    for i = 0 .. rows {
        rho = rho + q[i] * q[i]
    }
    // x = x + q / (rho + 1)  (keeps the iteration bounded and x moving)
    for i = 0 .. rows {
        x[i] = x[i] + q[i] / (rho + 1.0)
    }
}
`

// cgmA and cgmCol define the sparse matrix deterministically.
func cgmA(k int64) float64         { return 0.5 + float64(k%97)/97.0 }
func cgmColAt(k, rows int64) int64 { return permute64(k, rows) }

// CGM is the NAS conjugate-gradient kernel: repeated sparse
// matrix-vector products with indirect column accesses. Generating
// prefetch addresses for x[col[k]] requires loading col ahead of time,
// which is why CGM shows the largest user-time overhead in Figure 3(a).
func CGM() *App {
	return &App{
		Name: "CGM",
		Desc: "conjugate gradient: sparse matrix-vector products with indirect column references",
		Build: func(scale float64) *ir.Program {
			rows := scaleInt(12*1024, scale, 512)
			return mustParse(cgmSrc, rows, int64(cgmNzRow), int64(cgmIters))
		},
		Seed: seedCGM,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			rows, _ := prog.ParamValue("rows")
			x := make([]float64, rows)
			q := make([]float64, rows)
			for i := range x {
				x[i] = 1.0 / float64(i+1)
			}
			var rho float64
			for it := 0; it < cgmIters; it++ {
				for i := int64(0); i < rows; i++ {
					var sum float64
					for k := i * cgmNzRow; k < (i+1)*cgmNzRow; k++ {
						sum = sum + cgmA(k)*x[cgmColAt(k, rows)]
					}
					q[i] = sum
				}
				rho = 0
				for i := int64(0); i < rows; i++ {
					rho = rho + q[i]*q[i]
				}
				for i := int64(0); i < rows; i++ {
					x[i] = x[i] + q[i]/(rho+1)
				}
			}
			gotRho, err := floatScalar(prog, env, "rho")
			if err != nil {
				return err
			}
			if !approxEq(gotRho, rho, 1e-9) {
				return fmt.Errorf("CGM: rho = %g, want %g", gotRho, rho)
			}
			for _, i := range []int64{0, rows / 3, rows - 1} {
				if got := peekF(prog, v, "x", i); !approxEq(got, x[i], 1e-9) {
					return fmt.Errorf("CGM: x[%d] = %g, want %g", i, got, x[i])
				}
			}
			return nil
		},
	}
}

// seedCGM writes CGM's sparse matrix (values and column indices) and its
// starting vector.
var seedCGM = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	rows, _ := prog.ParamValue("rows")
	exec.SeedF64(sink, pageSize, prog.ArrayByName("a"), cgmA)
	exec.SeedI64(sink, pageSize, prog.ArrayByName("col"), func(k int64) int64 {
		return cgmColAt(k, rows)
	})
	exec.SeedF64(sink, pageSize, prog.ArrayByName("x"), func(i int64) float64 {
		return 1.0 / float64(i+1)
	})
})
