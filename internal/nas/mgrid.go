package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

const mgridIters = 2

const mgridSrc = `
program mgrid
param n = %d
param iters = %d
array double u[n][n][n]
array double v[n][n][n]
array double r[n][n][n]
scalar double rnorm

for it = 0 .. iters {
    // Residual: r = v - A u (7-point discrete Laplacian).
    for i = 1 .. n - 1 {
        for j = 1 .. n - 1 {
            for k = 1 .. n - 1 {
                r[i][j][k] = v[i][j][k] - 6.0 * u[i][j][k]
                    + u[i - 1][j][k] + u[i + 1][j][k]
                    + u[i][j - 1][k] + u[i][j + 1][k]
                    + u[i][j][k - 1] + u[i][j][k + 1]
            }
        }
    }
    // Smoother: u = u + w (M r), a weighted 7-point average of r.
    for i = 1 .. n - 1 {
        for j = 1 .. n - 1 {
            for k = 1 .. n - 1 {
                u[i][j][k] = u[i][j][k] + 0.125 * (2.0 * r[i][j][k]
                    + r[i - 1][j][k] + r[i + 1][j][k]
                    + r[i][j - 1][k] + r[i][j + 1][k]
                    + r[i][j][k - 1] + r[i][j][k + 1]) / 8.0
            }
        }
    }
}
// Residual norm (unnormalized sum of squares of the last residual).
rnorm = 0.0
for i = 0 .. n {
    for j = 0 .. n {
        for k = 0 .. n {
            rnorm = rnorm + r[i][j][k] * r[i][j][k]
        }
    }
}
`

func mgridV(n int64) func(int64) float64 {
	return func(idx int64) float64 {
		// A few point charges, like the NAS benchmark's ±1 sources.
		switch idx % (n * n * n / 7) {
		case 0:
			return 1
		case 3:
			return -1
		}
		return 0
	}
}

// MGRID is the NAS multigrid kernel, represented by its dominant
// fine-grid work: residual and smoothing sweeps over 3-D grids, whose
// ±plane stencil references exercise group locality across pages.
func MGRID() *App {
	return &App{
		Name:     "MGRID",
		Desc:     "multigrid: 3-D Laplacian residual/smoothing sweeps (plane-stencil group locality)",
		StdRatio: 1.2,
		Build: func(scale float64) *ir.Program {
			n := scalePow2(48, cbrtScale(scale), 8)
			return mustParse(mgridSrc, n, int64(mgridIters))
		},
		Seed: seedMGRID,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			nn := n * n * n
			u := make([]float64, nn)
			vv := make([]float64, nn)
			r := make([]float64, nn)
			src := mgridV(n)
			for i := int64(0); i < nn; i++ {
				vv[i] = src(i)
			}
			at := func(a []float64, i, j, k int64) float64 { return a[(i*n+j)*n+k] }
			for it := 0; it < mgridIters; it++ {
				for i := int64(1); i < n-1; i++ {
					for j := int64(1); j < n-1; j++ {
						for k := int64(1); k < n-1; k++ {
							r[(i*n+j)*n+k] = at(vv, i, j, k) - 6*at(u, i, j, k) +
								at(u, i-1, j, k) + at(u, i+1, j, k) +
								at(u, i, j-1, k) + at(u, i, j+1, k) +
								at(u, i, j, k-1) + at(u, i, j, k+1)
						}
					}
				}
				for i := int64(1); i < n-1; i++ {
					for j := int64(1); j < n-1; j++ {
						for k := int64(1); k < n-1; k++ {
							u[(i*n+j)*n+k] += 0.125 * (2*at(r, i, j, k) +
								at(r, i-1, j, k) + at(r, i+1, j, k) +
								at(r, i, j-1, k) + at(r, i, j+1, k) +
								at(r, i, j, k-1) + at(r, i, j, k+1)) / 8.0
						}
					}
				}
			}
			var rnorm float64
			for i := int64(0); i < nn; i++ {
				rnorm += r[i] * r[i]
			}
			got, err := floatScalar(prog, env, "rnorm")
			if err != nil {
				return err
			}
			if !approxEq(got, rnorm, 1e-9) {
				return fmt.Errorf("MGRID: rnorm = %g, want %g", got, rnorm)
			}
			mid := ((n/2)*n+n/2)*n + n/2
			if gotU := peekF(prog, v, "u", mid); !approxEq(gotU, u[mid], 1e-9) {
				return fmt.Errorf("MGRID: u[center] = %g, want %g", gotU, u[mid])
			}
			return nil
		},
	}
}

// seedMGRID writes MGRID's right-hand side v.
var seedMGRID = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	n, _ := prog.ParamValue("n")
	exec.SeedF64(sink, pageSize, prog.ArrayByName("v"), mgridV(n))
})
