package nas

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

const appspIters = 2

// Scalar pentadiagonal: ADI-style line solves along each of the three
// dimensions — a forward elimination then a backward substitution per
// line, per dimension. The recurrences give each sweep a different
// dominant stride, so every pass stresses a different striping pattern.
const appspSrc = `
program appsp
param n = %d
param iters = %d
array double u[n][n][n][5]
array double rhs[n][n][n][5]
scalar double rnorm

for it = 0 .. iters {
    // Build the right-hand side from u.
    for i = 0 .. n {
        for j = 0 .. n {
            for k = 0 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][k][m] = 0.9 * rhs[i][j][k][m] + 0.1 * u[i][j][k][m]
                }
            }
        }
    }
    // x-direction line solve: forward then backward along k.
    for i = 0 .. n {
        for j = 0 .. n {
            for k = 2 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][k][m] = rhs[i][j][k][m]
                        - 0.3 * rhs[i][j][k - 1][m] - 0.1 * rhs[i][j][k - 2][m]
                }
            }
            for k2 = 2 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][n - 1 - k2][m] = rhs[i][j][n - 1 - k2][m]
                        - 0.3 * rhs[i][j][n - k2][m] - 0.1 * rhs[i][j][n + 1 - k2][m]
                }
            }
        }
    }
    // y-direction line solve (stride n·5 recurrence).
    for i = 0 .. n {
        for j = 2 .. n {
            for k = 0 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][k][m] = rhs[i][j][k][m]
                        - 0.3 * rhs[i][j - 1][k][m] - 0.1 * rhs[i][j - 2][k][m]
                }
            }
        }
    }
    // z-direction line solve (plane-stride recurrence).
    for i = 2 .. n {
        for j = 0 .. n {
            for k = 0 .. n {
                for m = 0 .. 5 {
                    rhs[i][j][k][m] = rhs[i][j][k][m]
                        - 0.3 * rhs[i - 1][j][k][m] - 0.1 * rhs[i - 2][j][k][m]
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

func appspU0(idx int64) float64   { return 1.0 + float64(idx%11)/11.0 }
func appspRhs0(idx int64) float64 { return float64(idx%5) / 5.0 }

// APPSP is the NAS scalar-pentadiagonal solver: ADI line solves along all
// three grid dimensions.
func APPSP() *App {
	return &App{
		Name: "APPSP",
		Desc: "scalar pentadiagonal: ADI line solves along all three dimensions of a 3-D grid",
		Build: func(scale float64) *ir.Program {
			n := scaleInt(32, cbrtScale(scale), 8)
			return mustParse(appspSrc, n, int64(appspIters))
		},
		Seed: seedAPPSP,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n, _ := prog.ParamValue("n")
			total := n * n * n * 5
			u := make([]float64, total)
			rhs := make([]float64, total)
			for i := int64(0); i < total; i++ {
				u[i] = appspU0(i)
				rhs[i] = appspRhs0(i)
			}
			at := func(i, j, k, m int64) int64 { return ((i*n+j)*n+k)*5 + m }
			for it := 0; it < appspIters; it++ {
				for i := int64(0); i < n; i++ {
					for j := int64(0); j < n; j++ {
						for k := int64(0); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, k, m)] = 0.9*rhs[at(i, j, k, m)] + 0.1*u[at(i, j, k, m)]
							}
						}
					}
				}
				for i := int64(0); i < n; i++ {
					for j := int64(0); j < n; j++ {
						for k := int64(2); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, k, m)] -= 0.3*rhs[at(i, j, k-1, m)] + 0.1*rhs[at(i, j, k-2, m)]
							}
						}
						for k2 := int64(2); k2 < n; k2++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, n-1-k2, m)] -= 0.3*rhs[at(i, j, n-k2, m)] + 0.1*rhs[at(i, j, n+1-k2, m)]
							}
						}
					}
				}
				for i := int64(0); i < n; i++ {
					for j := int64(2); j < n; j++ {
						for k := int64(0); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, k, m)] -= 0.3*rhs[at(i, j-1, k, m)] + 0.1*rhs[at(i, j-2, k, m)]
							}
						}
					}
				}
				for i := int64(2); i < n; i++ {
					for j := int64(0); j < n; j++ {
						for k := int64(0); k < n; k++ {
							for m := int64(0); m < 5; m++ {
								rhs[at(i, j, k, m)] -= 0.3*rhs[at(i-1, j, k, m)] + 0.1*rhs[at(i-2, j, k, m)]
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
				return fmt.Errorf("APPSP: rnorm = %g, want %g", got, rnorm)
			}
			return nil
		},
	}
}

// seedAPPSP writes APPSP's solution u and right-hand side rhs.
var seedAPPSP = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	exec.SeedF64(sink, pageSize, prog.ArrayByName("u"), appspU0)
	exec.SeedF64(sink, pageSize, prog.ArrayByName("rhs"), appspRhs0)
})
