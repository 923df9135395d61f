package exec

import "repro/internal/ir"

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

func cmpI(op ir.CmpOp, a, b int64) bool {
	switch op {
	case ir.Lt:
		return a < b
	case ir.Le:
		return a <= b
	case ir.Gt:
		return a > b
	case ir.Ge:
		return a >= b
	case ir.Eq:
		return a == b
	default:
		return a != b
	}
}

func cmpF(op ir.CmpOp, a, b float64) bool {
	switch op {
	case ir.Lt:
		return a < b
	case ir.Le:
		return a <= b
	case ir.Gt:
		return a > b
	case ir.Ge:
		return a >= b
	case ir.Eq:
		return a == b
	default:
		return a != b
	}
}
