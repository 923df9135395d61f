//go:build !exectally

package exec

// tallyOn compiles the dispatch tally (tally.go, build tag exectally) out
// of runK and runLanes.
const tallyOn = false

var tally struct {
	ops       [256]int64
	laneIters int64
}
