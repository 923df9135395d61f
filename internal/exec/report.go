// Per-loop compilation reports: how each loop of the nest was lowered
// (page-run span loop or plain kernel bytecode) and, when the page-run
// lowering was not used, why — and for a page-run loop, whether its chunks
// run lane-wise or why not. The harness surfaces these through
// core.Result and `oocbench -explain-fastpath` so a missing specialization
// is diagnosable instead of a silent slowdown.
package exec

import "fmt"

// FallbackReason says why a loop was not compiled as a page-run span
// loop (kspan.go). ReasonSpecialized marks the loops that were.
type FallbackReason uint8

const (
	// ReasonSpecialized: the loop runs as a page-run span loop.
	ReasonSpecialized FallbackReason = iota
	// ReasonOuterLoop: the loop contains a nested loop it cannot absorb
	// (bounds not compile-time constants, trip count of spanMinTrip or
	// more, or past the unroll budget). It runs as kernel bytecode; the
	// nested loops are candidates of their own.
	ReasonOuterLoop
	// ReasonHintInBody: the body issues prefetch/release hints, a
	// potential kernel crossing per iteration.
	ReasonHintInBody
	// ReasonControlFlow: the body branches.
	ReasonControlFlow
	// ReasonInductionWrite: the body assigns the loop's own induction
	// variable.
	ReasonInductionWrite
	// ReasonIndirectIndex: a subscript goes through memory (a[col[k]]) or
	// a float conversion, so its page behavior is data-dependent.
	ReasonIndirectIndex
	// ReasonNonAffineIndex: a subscript is not coeff·var + invariant.
	ReasonNonAffineIndex
	// ReasonPageStride: the per-iteration address delta of some access
	// reaches a full page, so a span never covers two iterations.
	ReasonPageStride
	// ReasonScalarOnly: the body touches no arrays; there is nothing for
	// a span to batch.
	ReasonScalarOnly
	// ReasonUnsupportedBody: some statement or expression shape outside
	// the span lowering's straight-line subset.
	ReasonUnsupportedBody
	// ReasonRecording: the loop qualifies, but this is a profile-recording
	// compile (Options.Profile), which observes every access one by one.
	ReasonRecording
	// ReasonAbsorbed: the loop's parent folded it, unrolled, into its own
	// span body; this is the copy the parent's per-element body runs.
	ReasonAbsorbed
	// ReasonShortTrip: the loop qualifies but its trip count is statically
	// under spanMinTrip and no parent could absorb it (a hint or branch
	// beside it, say), so it gets the plain kernel layout.
	ReasonShortTrip

	// Why a page-run loop's chunks run the span body per iteration, not
	// lane-wise (LoopReport.LaneReason): a scalar read and written, or
	// accumulated from two places; two randlc() draws; an integer division,
	// which must trap at its iteration after that iteration's earlier
	// effects; a stored array accessed at two strides; an instruction
	// outside the lane subset, or more live values than 256 lane slots.
	ReasonCarriedScalar
	ReasonTwoDraws
	ReasonIntDivide
	ReasonMixedDelta
	ReasonUnsupportedOp
)

var reasonNames = [...]string{
	ReasonSpecialized:     "specialized",
	ReasonOuterLoop:       "outer-loop",
	ReasonHintInBody:      "hint-in-body",
	ReasonControlFlow:     "control-flow",
	ReasonInductionWrite:  "induction-write",
	ReasonIndirectIndex:   "indirect-index",
	ReasonNonAffineIndex:  "non-affine-index",
	ReasonPageStride:      "page-stride",
	ReasonScalarOnly:      "scalar-only",
	ReasonUnsupportedBody: "unsupported-body",
	ReasonRecording:       "recording",
	ReasonAbsorbed:        "absorbed",
	ReasonShortTrip:       "short-trip",
	ReasonCarriedScalar:   "carried-scalar",
	ReasonTwoDraws:        "two-draws",
	ReasonIntDivide:       "int-divide",
	ReasonMixedDelta:      "mixed-delta",
	ReasonUnsupportedOp:   "unsupported-op",
}

func (r FallbackReason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// LoopReport describes how one loop of the program was compiled.
type LoopReport struct {
	Var    string         // induction variable name
	Depth  int            // 0 = top level
	Driver string         // "page-run" or "kernel"
	Reason FallbackReason // why not page-run, when Driver != "page-run"
	// Lanes: a page-run loop's committed chunks run lane-wise (kspan.go) on
	// entries whose recurrences allow it; LaneReason says why not.
	Lanes      bool
	LaneReason FallbackReason
	Sites      int // span-specialized access sites (page-run only)
	Unroll     int // copies of absorbed inner-loop bodies in the span body; 1 = none absorbed

	// Hints counts the prefetch/release statements in the loop's direct
	// body (nested loops report their own). The nest compiler lowers every
	// hint it reaches to kernel bytecode, so this is the statement count.
	Hints int
}

func (r LoopReport) String() string {
	pad := ""
	for i := 0; i < r.Depth; i++ {
		pad += "  "
	}
	if r.Driver == "page-run" {
		s := fmt.Sprintf("%sloop %-8s page-run (%d sites", pad, r.Var, r.Sites)
		if r.Unroll > 1 {
			s += fmt.Sprintf(", %d× unrolled", r.Unroll)
		}
		if r.Lanes {
			return s + "; lanes)"
		}
		return s + "; " + r.LaneReason.String() + ")"
	}
	s := fmt.Sprintf("%sloop %-8s %-8s %s", pad, r.Var, r.Driver, r.Reason)
	if r.Hints > 0 {
		s += fmt.Sprintf(" (%d hints lowered)", r.Hints)
	}
	return s
}
