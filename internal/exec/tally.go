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
			byOp[kopNames[op]] += n
			total += n
		}
	}
	return byOp, total, tally.laneIters
}

var kopNames = [256]string{
	opNop: "Nop", opCharge: "Charge", opJump: "Jump", opJumpGeI: "JumpGeI", opLoopEndS: "LoopEndS",
	opJCmpI: "JCmpI", opJCmpF: "JCmpF", opSetSlot: "SetSlot", opSetSlotC: "SetSlotC",
	opIMove: "IMove", opIConst: "IConst", opISlot: "ISlot", opIAdd: "IAdd", opISub: "ISub",
	opIMul: "IMul", opIDiv: "IDiv", opIMod: "IMod", opIShl: "IShl", opIShr: "IShr", opIMin: "IMin",
	opIMax: "IMax", opIAddImm: "IAddImm", opIMulImm: "IMulImm", opIFromF: "IFromF", opIdx3: "Idx3",
	opFConst: "FConst", opFSlot: "FSlot", opSetF: "SetF", opFAcc: "FAcc", opFAccM: "FAccM",
	opFAdd: "FAdd", opFSub: "FSub", opFMul: "FMul", opFDiv: "FDiv", opFMin: "FMin", opFMax: "FMax",
	opFNeg: "FNeg", opFromI: "FromI", opSqrt: "Sqrt", opAbs: "Abs", opLog: "Log", opExp: "Exp",
	opSin: "Sin", opCos: "Cos", opPow: "Pow", opRandlc: "Randlc", opFMulI: "FMulI", opFDivI: "FDivI",
	opFMAdd: "FMAdd", opFMSub: "FMSub", opFAddS: "FAddS", opFSubS: "FSubS", opFMAddS: "FMAddS",
	opFMSubS: "FMSubS", opCosS: "CosS", opSinS: "SinS", opLoadF1: "LoadF1", opLoadI1: "LoadI1",
	opStoreF1: "StoreF1", opStoreI1: "StoreI1", opIdx0: "Idx0", opIdxAcc: "IdxAcc", opLoadFA: "LoadFA",
	opLoadIA: "LoadIA", opStoreFA: "StoreFA", opStoreIA: "StoreIA", opHintPage: "HintPage",
	opHintN: "HintN", opHint: "Hint", opHintLoad1: "HintLoad1", opFAccDot: "FAccDot",
	opFAccDot2: "FAccDot2", opHintIdx3: "HintIdx3", opDotLoop: "DotLoop", opSpanInit: "SpanInit",
	opSpanEnter: "SpanEnter", opSpanNext: "SpanNext", opSpanSlow: "SpanSlow", opLoadFS: "LoadFS",
	opLoadIS: "LoadIS", opStoreFS: "StoreFS", opStoreIS: "StoreIS", opProfPre: "ProfPre",
	opProfPost: "ProfPost", opLabel: "Label",
}
