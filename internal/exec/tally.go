//go:build exectally

// The dispatch tally: a count of every bytecode dispatch, built only under
// the exectally tag, the judge of which mechanisms earn their keep (DESIGN
// §11). runK counts one dispatch per instruction it runs; runLanes one per
// instruction per strip, and the iterations it runs lane-wise. The counters
// are process-wide and unsynchronized: read them around runs made one at a
// time.
package exec

const tallyOn = true

var tally struct {
	ops       [256]int64
	laneIters int64
}

// ResetTally zeroes the dispatch tally.
func ResetTally() { tally.ops, tally.laneIters = [256]int64{}, 0 }

// Tally returns the dispatches since the last ResetTally by opcode name,
// their total, and the iterations run lane-wise.
func Tally() (byOp map[string]int64, total, laneIters int64) {
	byOp = map[string]int64{}
	for op, n := range tally.ops {
		if n != 0 {
			byOp[kops[op].name] += n
			total += n
		}
	}
	return byOp, total, tally.laneIters
}
