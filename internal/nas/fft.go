package nas

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/vm"
)

// FFT is the NAS 3-D FFT kernel, structured the way out-of-core FFTs are:
// a radix-2 Cooley-Tukey pass along the contiguous dimension (bit-reversal
// permutation, then in-place butterflies), a transpose to bring the next
// dimension into contiguous order, and so on through all three dimensions.
// The transposes are the paper-perfect strided out-of-core access
// patterns; the butterfly subscripts are non-affine ("opaque") and
// exercise the analysis fallback that prefetches whole rows.

// fftPass emits the language source of one FFT pass: bit-reversal
// permutation from (sr,si) into (dr,di), then in-place butterflies on
// (dr,di). rows/length/bits are parameter names; length must be a power
// of two.
func fftPass(rows, length, bits, sr, si, dr, di string) string {
	r := strings.NewReplacer(
		"ROWS", rows, "LEN", length, "LB", bits,
		"SR", sr, "SI", si, "DR", dr, "DI", di,
	)
	return r.Replace(`
// ---- FFT pass along LEN ----
for r = 0 .. ROWS {
    for idx = 0 .. LEN {
        tmp = idx
        rev = 0
        for b = 0 .. LB {
            rev = rev * 2 + tmp %% 2
            tmp = tmp / 2
        }
        DR[r * LEN + rev] = SR[r * LEN + idx]
        DI[r * LEN + rev] = SI[r * LEN + idx]
    }
}
for r = 0 .. ROWS {
    for s = 1 .. LB + 1 {
        for g = 0 .. LEN >> s {
            for j = 0 .. (1 << s) / 2 {
                wre = cos(-6.283185307179586 * float(j) / float(1 << s))
                wim = sin(-6.283185307179586 * float(j) / float(1 << s))
                tre = wre * DR[r * LEN + g * (1 << s) + j + (1 << s) / 2] - wim * DI[r * LEN + g * (1 << s) + j + (1 << s) / 2]
                tim = wre * DI[r * LEN + g * (1 << s) + j + (1 << s) / 2] + wim * DR[r * LEN + g * (1 << s) + j + (1 << s) / 2]
                ure = DR[r * LEN + g * (1 << s) + j]
                uim = DI[r * LEN + g * (1 << s) + j]
                DR[r * LEN + g * (1 << s) + j] = ure + tre
                DI[r * LEN + g * (1 << s) + j] = uim + tim
                DR[r * LEN + g * (1 << s) + j + (1 << s) / 2] = ure - tre
                DI[r * LEN + g * (1 << s) + j + (1 << s) / 2] = uim - tim
            }
        }
    }
}
`)
}

// fftSrc is the FFT source as a format whose verbs take n1, n2, n3 and
// their base-2 logarithms.
var fftSrc = fftFormat()

func fftFormat() string {
	var b strings.Builder
	b.WriteString(`
program fft
param n1 = %d
param n2 = %d
param n3 = %d
param l1 = %d
param l2 = %d
param l3 = %d
param rows1 = n2 * n3
param rows2 = n1 * n3
param rows3 = n1 * n2
array double re[n1 * n2 * n3], im[n1 * n2 * n3]
array double re2[n1 * n2 * n3], im2[n1 * n2 * n3]
scalar long tmp, rev
scalar double wre, wim, tre, tim, ure, uim, energy
`)

	// Pass 1: FFT along x (re,im → re2,im2); layout (z,y,x).
	b.WriteString(fftPass("rows1", "n1", "l1", "re", "im", "re2", "im2"))
	// Transpose x↔y: (z,y,x) → (z,x,y); re2,im2 → re,im.
	b.WriteString(`
// ---- transpose x<->y ----
for z = 0 .. n3 {
    for y = 0 .. n2 {
        for x = 0 .. n1 {
            re[(z * n1 + x) * n2 + y] = re2[(z * n2 + y) * n1 + x]
            im[(z * n1 + x) * n2 + y] = im2[(z * n2 + y) * n1 + x]
        }
    }
}
`)
	// Pass 2: FFT along y (now contiguous, length n2); re,im → re2,im2.
	b.WriteString(fftPass("rows2", "n2", "l2", "re", "im", "re2", "im2"))
	// Transpose z↔y: (z,x,y) → (y,x,z); re2,im2 → re,im.
	b.WriteString(`
// ---- transpose z<->y ----
for z = 0 .. n3 {
    for x = 0 .. n1 {
        for y = 0 .. n2 {
            re[(y * n1 + x) * n3 + z] = re2[(z * n1 + x) * n2 + y]
            im[(y * n1 + x) * n3 + z] = im2[(z * n1 + x) * n2 + y]
        }
    }
}
`)
	// Pass 3: FFT along z (contiguous, length n3); re,im → re2,im2.
	b.WriteString(fftPass("rows3", "n3", "l3", "re", "im", "re2", "im2"))
	// Checksum: total energy of the spectrum.
	b.WriteString(`
energy = 0.0
for i = 0 .. n1 * n2 * n3 {
    energy = energy + re2[i] * re2[i] + im2[i] * im2[i]
}
`)
	return b.String()
}

func fftInRe(i int64) float64 { return float64(i%31)/31.0 - 0.5 }
func fftInIm(i int64) float64 { return float64(i%17)/17.0 - 0.5 }

func log2of(n int64) int64 {
	var l int64
	for 1<<uint(l) < n {
		l++
	}
	return l
}

// fftReference runs the same pass/transpose sequence in pure Go.
func fftReference(n1, n2, n3 int64) (re, im []float64) {
	n := n1 * n2 * n3
	re = make([]float64, n)
	im = make([]float64, n)
	for i := int64(0); i < n; i++ {
		re[i], im[i] = fftInRe(i), fftInIm(i)
	}
	re2 := make([]float64, n)
	im2 := make([]float64, n)

	pass := func(rows, L int64, sr, si, dr, di []float64) {
		lb := log2of(L)
		for r := int64(0); r < rows; r++ {
			for idx := int64(0); idx < L; idx++ {
				tmp, rev := idx, int64(0)
				for b := int64(0); b < lb; b++ {
					rev = rev*2 + tmp%2
					tmp /= 2
				}
				dr[r*L+rev] = sr[r*L+idx]
				di[r*L+rev] = si[r*L+idx]
			}
		}
		for r := int64(0); r < rows; r++ {
			for s := int64(1); s <= lb; s++ {
				m := int64(1) << uint(s)
				for g := int64(0); g < L>>uint(s); g++ {
					for j := int64(0); j < m/2; j++ {
						ang := -2 * math.Pi * float64(j) / float64(m)
						wre, wim := math.Cos(ang), math.Sin(ang)
						k := r*L + g*m + j
						h := m / 2
						tre := wre*dr[k+h] - wim*di[k+h]
						tim := wre*di[k+h] + wim*dr[k+h]
						ure, uim := dr[k], di[k]
						dr[k], di[k] = ure+tre, uim+tim
						dr[k+h], di[k+h] = ure-tre, uim-tim
					}
				}
			}
		}
	}

	pass(n2*n3, n1, re, im, re2, im2)
	for z := int64(0); z < n3; z++ {
		for y := int64(0); y < n2; y++ {
			for x := int64(0); x < n1; x++ {
				re[(z*n1+x)*n2+y] = re2[(z*n2+y)*n1+x]
				im[(z*n1+x)*n2+y] = im2[(z*n2+y)*n1+x]
			}
		}
	}
	pass(n1*n3, n2, re, im, re2, im2)
	for z := int64(0); z < n3; z++ {
		for x := int64(0); x < n1; x++ {
			for y := int64(0); y < n2; y++ {
				re[(y*n1+x)*n3+z] = re2[(z*n1+x)*n2+y]
				im[(y*n1+x)*n3+z] = im2[(z*n1+x)*n2+y]
			}
		}
	}
	pass(n1*n2, n3, re, im, re2, im2)
	return re2, im2
}

// FFT builds the suite's 3-D FFT application.
func FFT() *App {
	return &App{
		Name: "FFT",
		Desc: "3-D FFT: per-row Cooley-Tukey passes with out-of-core transposes between dimensions",
		Build: func(scale float64) *ir.Program {
			edge := scalePow2(32, cbrtScale(scale), 8)
			n1, n2, n3 := 2*edge, edge, edge
			return mustParse(fftSrc, n1, n2, n3, log2of(n1), log2of(n2), log2of(n3))
		},
		Seed: seedFFT,
		Check: func(prog *ir.Program, v *vm.VM, env *exec.Env) error {
			n1, _ := prog.ParamValue("n1")
			n2, _ := prog.ParamValue("n2")
			n3, _ := prog.ParamValue("n3")
			wre, wim := fftReference(n1, n2, n3)
			var wantEnergy float64
			for i := range wre {
				wantEnergy += wre[i]*wre[i] + wim[i]*wim[i]
			}
			got, err := floatScalar(prog, env, "energy")
			if err != nil {
				return err
			}
			if !approxEq(got, wantEnergy, 1e-9) {
				return fmt.Errorf("FFT: spectrum energy %g, want %g", got, wantEnergy)
			}
			n := n1 * n2 * n3
			for _, i := range []int64{0, 1, n / 2, n - 1} {
				if gr := peekF(prog, v, "re2", i); !approxEq(gr, wre[i], 1e-9) {
					return fmt.Errorf("FFT: re2[%d] = %g, want %g", i, gr, wre[i])
				}
				if gi := peekF(prog, v, "im2", i); !approxEq(gi, wim[i], 1e-9) {
					return fmt.Errorf("FFT: im2[%d] = %g, want %g", i, gi, wim[i])
				}
			}
			return nil
		},
	}
}

// seedFFT writes FFT's input signal, real and imaginary parts.
var seedFFT = seedOnce(func(prog *ir.Program, sink exec.PageSink, pageSize int64) {
	exec.SeedF64(sink, pageSize, prog.ArrayByName("re"), fftInRe)
	exec.SeedF64(sink, pageSize, prog.ArrayByName("im"), fftInIm)
})
