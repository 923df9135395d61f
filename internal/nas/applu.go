package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

const appluIters = 2

// The 5-wide component dimension is a compile-time literal here (the
// paper's APPLU analyzed fine); contrast with APPBT, where the block
// dimension is only known at run time.
const appluSrc = `
program applu
param n = %d
param iters = %d
array double u[n][n][n][5]
array double rsd[n][n][n][5]
scalar double rnorm

for it = 0 .. iters {
    // Lower-triangular (forward) SSOR sweep.
    for i = 1 .. n {
        for j = 1 .. n {
            for k = 1 .. n {
                for m = 0 .. 5 {
                    rsd[i][j][k][m] = 0.8 * rsd[i][j][k][m]
                        + 0.05 * (rsd[i - 1][j][k][m] + rsd[i][j - 1][k][m] + rsd[i][j][k - 1][m])
                        + 0.05 * u[i][j][k][m]
                }
            }
        }
    }
    // Upper-triangular (backward) sweep, written with reversed indices.
    for i2 = 1 .. n {
        for j2 = 1 .. n {
            for k2 = 1 .. n {
                for m = 0 .. 5 {
                    rsd[n - 1 - i2][n - 1 - j2][n - 1 - k2][m] =
                        0.8 * rsd[n - 1 - i2][n - 1 - j2][n - 1 - k2][m]
                        + 0.05 * (rsd[n - i2][n - 1 - j2][n - 1 - k2][m]
                                + rsd[n - 1 - i2][n - j2][n - 1 - k2][m]
                                + rsd[n - 1 - i2][n - 1 - j2][n - k2][m])
                        + 0.05 * u[n - 1 - i2][n - 1 - j2][n - 1 - k2][m]
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
                rnorm = rnorm + rsd[i][j][k][m] * rsd[i][j][k][m]
            }
        }
    }
}
`

func appluInit(idx int64) float64 { return 1.0 + float64(idx%13)/13.0 }
func appluRsd0(idx int64) float64 { return float64(idx%7) / 7.0 }

// APPLU is the NAS LU solver: symmetric successive over-relaxation with
// forward and backward triangular sweeps over a 5-component 3-D grid.
// The backward sweep exercises negative-stride prefetching.
func APPLU() *App {
	return &App{
		Name: "APPLU",
		Desc: "LU/SSOR: forward and backward triangular sweeps over a 5-component 3-D grid",
		Build: func(scale float64) *ir.Program {
			n := scaleInt(32, cbrtScale(scale), 8)
			return mustParse(appluSrc, n, int64(appluIters))
		},
		Seed: seedAPPLU,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			total := n * n * n * 5
			u := make([]float64, total)
			rsd := make([]float64, total)
			for i := int64(0); i < total; i++ {
				u[i] = appluInit(i)
				rsd[i] = appluRsd0(i)
			}
			at := func(i, j, k, m int64) int64 { return ((i*n+j)*n+k)*5 + m }
			for it := 0; it < appluIters; it++ {
				for i := int64(1); i < n; i++ {
					for j := int64(1); j < n; j++ {
						for k := int64(1); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rsd[at(i, j, k, m)] = 0.8*rsd[at(i, j, k, m)] +
									0.05*(rsd[at(i-1, j, k, m)]+rsd[at(i, j-1, k, m)]+rsd[at(i, j, k-1, m)]) +
									0.05*u[at(i, j, k, m)]
							}
						}
					}
				}
				for i2 := int64(1); i2 < n; i2++ {
					for j2 := int64(1); j2 < n; j2++ {
						for k2 := int64(1); k2 < n; k2++ {
							for m := int64(0); m < 5; m++ {
								i, j, k := n-1-i2, n-1-j2, n-1-k2
								rsd[at(i, j, k, m)] = 0.8*rsd[at(i, j, k, m)] +
									0.05*(rsd[at(i+1, j, k, m)]+rsd[at(i, j+1, k, m)]+rsd[at(i, j, k+1, m)]) +
									0.05*u[at(i, j, k, m)]
							}
						}
					}
				}
			}
			var rnorm float64
			for i := int64(0); i < total; i++ {
				rnorm += rsd[i] * rsd[i]
			}
			got, err := floatScalar(prog, env, "rnorm")
			if err != nil {
				return err
			}
			if !approxEq(got, rnorm, 1e-9) {
				return fmt.Errorf("APPLU: rnorm = %g, want %g", got, rnorm)
			}
			return nil
		},
	}
}

// cbrtScale converts a data-size scale factor into a per-edge factor for
// 3-D grids (data grows with the cube of the edge).
func cbrtScale(scale float64) float64 {
	if scale <= 0 {
		return 1
	}
	// Newton iteration is overkill; a few steps of bisection suffice.
	lo, hi := 0.05, 20.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if mid*mid*mid < scale {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// seedAPPLU writes APPLU's solution u and residual rsd.
var seedAPPLU = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	exec.SeedF64(sink, pageSize, prog.ArrayByName("u"), appluInit)
	exec.SeedF64(sink, pageSize, prog.ArrayByName("rsd"), appluRsd0)
})
