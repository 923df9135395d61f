package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

const (
	appbtIters = 2
	appbtBM    = 5 // the run-time value of the symbolic block dimension
)

// APPBT's defining feature, per §4.1.1 of the paper: the 5×5 block
// dimension of its block-tridiagonal systems reaches the compiler as a
// symbolic bound ("unknown"), so the compiler assumes a large trip count,
// tries to software-pipeline across the tiny block loops, finds the
// pipeline can never start, and misses the prefetches for the dominant
// block array — which is why APPBT is the one application whose coverage
// falls below 75% and whose speedup is smallest.
const appbtSrc = `
program appbt
param n = %d
param bm = %d unknown
param iters = %d
array double u[n][n][n][5]
array double rhs[n][n][n][5]
array double blk[n][n][n][bm][bm]
scalar double acc, rnorm

for it = 0 .. iters {
    // Build the right-hand side from u (analyzable, like APPLU).
    for i = 0 .. n {
        for j = 0 .. n {
            for k = 0 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][k][m] = 0.9 * rhs[i][j][k][m] + 0.1 * u[i][j][k][m]
                }
            }
        }
    }
    // Block lower solve: rhs[cell] -= blk[cell] * rhs[previous cell].
    // The m/q loops run to the symbolic bound bm.
    for i = 1 .. n {
        for j = 0 .. n {
            for k = 0 .. n {
                for m = 0 .. bm {
                    acc = 0.0
                    for q = 0 .. bm {
                        acc = acc + blk[i][j][k][m][q] * rhs[i - 1][j][k][q]
                    }
                    rhs[i][j][k][m] = rhs[i][j][k][m] - 0.1 * acc
                }
            }
        }
    }
    // Update the solution.
    for i = 0 .. n {
        for j = 0 .. n {
            for k = 0 .. n {
                for m = 0 .. 5 {
                    u[i][j][k][m] = u[i][j][k][m] + 0.05 * rhs[i][j][k][m]
                }
            }
        }
    }
}
rnorm = 0.0
for i = 0 .. n {
    for j = 0 .. n {
        for k = 0 .. n {
            for m = 0 .. 5 {
                rnorm = rnorm + rhs[i][j][k][m] * rhs[i][j][k][m]
            }
        }
    }
}
`

func appbtU0(idx int64) float64   { return 1.0 + float64(idx%9)/9.0 }
func appbtRhs0(idx int64) float64 { return float64(idx%6) / 6.0 }
func appbtBlk(idx int64) float64  { return 0.1 + float64(idx%17)/170.0 }

// APPBT is the NAS block-tridiagonal solver: 5×5 block systems along
// grid lines, with the block dimension symbolic at compile time.
func APPBT() *App {
	return &App{
		Name: "APPBT",
		Desc: "block tridiagonal: 5×5 block solves; block dimension symbolic at compile time",
		Build: func(scale float64) *ir.Program {
			n := scaleInt(24, cbrtScale(scale), 8)
			return mustParse(appbtSrc, n, int64(appbtBM), int64(appbtIters))
		},
		Seed: seedAPPBT,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			total := n * n * n * 5
			u := make([]float64, total)
			rhs := make([]float64, total)
			blk := make([]float64, n*n*n*appbtBM*appbtBM)
			for i := int64(0); i < total; i++ {
				u[i] = appbtU0(i)
				rhs[i] = appbtRhs0(i)
			}
			for i := range blk {
				blk[i] = appbtBlk(int64(i))
			}
			at := func(i, j, k, m int64) int64 { return ((i*n+j)*n+k)*5 + m }
			bat := func(i, j, k, m, q int64) int64 { return (((i*n+j)*n+k)*appbtBM+m)*appbtBM + q }
			for it := 0; it < appbtIters; it++ {
				for i := int64(0); i < n; i++ {
					for j := int64(0); j < n; j++ {
						for k := int64(0); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, k, m)] = 0.9*rhs[at(i, j, k, m)] + 0.1*u[at(i, j, k, m)]
							}
						}
					}
				}
				for i := int64(1); i < n; i++ {
					for j := int64(0); j < n; j++ {
						for k := int64(0); k < n; k++ {
							for m := int64(0); m < appbtBM; m++ {
								var acc float64
								for q := int64(0); q < appbtBM; q++ {
									acc += blk[bat(i, j, k, m, q)] * rhs[at(i-1, j, k, q)]
								}
								rhs[at(i, j, k, m)] -= 0.1 * acc
							}
						}
					}
				}
				for i := int64(0); i < total; i++ {
					u[i] += 0.05 * rhs[i]
				}
			}
			var rnorm float64
			for i := int64(0); i < total; i++ {
				rnorm += rhs[i] * rhs[i]
			}
			got, err := floatScalar(prog, env, "rnorm")
			if err != nil {
				return err
			}
			if !approxEq(got, rnorm, 1e-9) {
				return fmt.Errorf("APPBT: rnorm = %g, want %g", got, rnorm)
			}
			return nil
		},
	}
}

// seedAPPBT writes APPBT's solution u, right-hand side rhs and block
// coefficients blk.
var seedAPPBT = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	exec.SeedF64(sink, pageSize, prog.ArrayByName("u"), appbtU0)
	exec.SeedF64(sink, pageSize, prog.ArrayByName("rhs"), appbtRhs0)
	exec.SeedF64(sink, pageSize, prog.ArrayByName("blk"), appbtBlk)
})
