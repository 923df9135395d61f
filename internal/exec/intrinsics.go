package exec

import (
	"math"

	"repro/internal/ir"
)

// randlcA is the NAS multiplier 5^13 for the 46-bit linear congruential
// generator x_{k+1} = a·x_k mod 2^46.
const randlcA uint64 = 1220703125

const randlcMask = (uint64(1) << 46) - 1

// randlc advances the environment's generator and returns a uniform
// deviate in (0, 1), exactly as the NAS Parallel Benchmarks specify.
func (e *Env) randlc() float64 {
	// 46-bit modular multiply, split into halves to avoid overflow.
	const half = uint64(1) << 23
	x := e.rngX
	lo := (x & (half - 1)) * randlcA
	hi := (x >> 23) * randlcA
	x = (lo + (hi&(half-1))<<23) & randlcMask
	e.rngX = x
	return float64(x) * (1.0 / float64(uint64(1)<<46))
}

// SetSeed reseeds the environment's generator (tests use it).
func (e *Env) SetSeed(seed int64) { e.rngX = uint64(seed) & randlcMask }

func (c *compiler) call(e ir.FCall) (fFn, int64) {
	cost := intrinsicCost(e.Fn)
	want := 1
	if e.Fn == ir.Pow {
		want = 2
	}
	if e.Fn == ir.Randlc {
		want = 0
	}
	if len(e.Args) != want {
		c.fail("intrinsic %s takes %d args, got %d", e.Fn.Name(), want, len(e.Args))
		return func(*Env) float64 { return 0 }, 0
	}
	var args []fFn
	for _, a := range e.Args {
		f, k := c.fexpr(a)
		args = append(args, f)
		cost += k
	}
	switch e.Fn {
	case ir.Sqrt:
		return func(e *Env) float64 { return math.Sqrt(args[0](e)) }, cost
	case ir.Abs:
		return func(e *Env) float64 { return math.Abs(args[0](e)) }, cost
	case ir.Log:
		return func(e *Env) float64 { return math.Log(args[0](e)) }, cost
	case ir.Exp:
		return func(e *Env) float64 { return math.Exp(args[0](e)) }, cost
	case ir.Sin:
		return func(e *Env) float64 { return math.Sin(args[0](e)) }, cost
	case ir.Cos:
		return func(e *Env) float64 { return math.Cos(args[0](e)) }, cost
	case ir.Pow:
		return func(e *Env) float64 { return math.Pow(args[0](e), args[1](e)) }, cost
	case ir.Randlc:
		return func(e *Env) float64 { return e.randlc() }, cost
	}
	c.fail("unknown intrinsic %d", e.Fn)
	return func(*Env) float64 { return 0 }, 0
}
