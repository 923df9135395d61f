package exec_test

import (
	"sort"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
)

// bytecodePins are the BytecodeHash values of the original (O) and the
// prefetching (P) program of every NAS proxy at scale 0.25 and every
// example kernel, default machine and compiler options, recorded when
// opIdx3, opHintIdx3 and opFAccDot2 were deleted (which renumbers the
// opcodes after opIFromF and drops hintAux's dist field from the hash).
var bytecodePins = map[string]string{
	"APPBT/O":          "fa34320e02b2ac51c0987cce8b4da2677665ed629861c79a0826c4531b70109d",
	"APPBT/P":          "8e3e43bef80824fa87e146e7432da818370b0d747214929eeeb68cd185466f35",
	"APPLU/O":          "b21789aa7b1229afedbae8a76c6322f71a1832aea8ac5d22daafce0e7e52d163",
	"APPLU/P":          "e59457c33de663f33cfb93976f1fca25d28dfd439acc19ee706abcecea65adb4",
	"APPSP/O":          "b60301b8bae2b501d0c54e714d6682990654d0aefe6e4683b52b181d1d4732bb",
	"APPSP/P":          "1c9094b4ca15af69aa3765c534f039617f52bb8cff5a2fc894f575f015a3d2f8",
	"BUK/O":            "330fd7561786a45d6559f55d7ca2eb00bfca1244f2d5c66d0a6507fc6a50608a",
	"BUK/P":            "19b1947e4f42d29f5623b28db3c2890faf3aee1848451bc3b3dccbc03bf848f0",
	"CGM/O":            "bb683009692b6bb8f1ffa4628b1d1ffa3b56cf880463661dfe5606db6f8e2e1a",
	"CGM/P":            "5d35a93273be76088197d3209058898377bf8c19247309e91f39b3164a34397f",
	"EMBAR/O":          "95e2b90140fdd5befec9cc07b5668e9105b3636b38116eb2d1d35f2ddf20f2ab",
	"EMBAR/P":          "a5b1b593bcb0702c590c266aec1cd50fb80cb9745b2e1379505406df1ad540f9",
	"FFT/O":            "6876b0d5d6954c953bd0229d5e59e6f502f69ff3abeb13d00bfe2f742085e110",
	"FFT/P":            "411788b47fdbce504d2a2c074e278019db1232cb3bd0ed8ae75f3fc84c3b2671",
	"MGRID/O":          "43e30c32c3ee872dac93e1dcc74c9e1a83d86b6b5049ed13df1b451521650f17",
	"MGRID/P":          "9b2147cbaab8ae7cc2e68573c903948b73e4e692d8aa73313464a626b31675aa",
	"axpy.loop/O":      "bd31f1f4f36a1566c913cc734fed26d6f8dfeaaef78c548209c5d9362294b21d",
	"axpy.loop/P":      "cfcf53673e95d078c42b5285ba3b52ffe37b8058e5fab53b1baac985d3777aac",
	"histogram.loop/O": "91fda326a41da65c37f6d2e66d3cf1466235c2eb8aa5e9f88b9c0fb921f5b6ff",
	"histogram.loop/P": "99756470e6f8f8cbae02bab043f09579beee06122ff1962e42c153c0eb21ddf3",
	"matmul.loop/O":    "49d1cd325a4155a538a4a21e1165acf8701dae6a0b0151def6da415a3c9996e2",
	"matmul.loop/P":    "5cdd239f0cfd74d1a86d7ef32015f98cd4483cd453e265effda8357b02d7c8b2",
	"reverse.loop/O":   "11a3e116532a4c843545461d35f17a81dc53e582460212f4ba6b248792a59767",
	"reverse.loop/P":   "57da2955f9597d8377125a1f2398943d30bbc5b3b224da9672898eb4d7b02bed",
	"scan.loop/O":      "d4d536d0a3572917f7571ee424e9b2ab5a5bbfa9432ac9b11d2d86303d583c10",
	"scan.loop/P":      "8cbcb7534e8c326d3121317cd00510b8b1b6d2be8f817ceb23816d0f6a64a3ba",
}

// TestBytecodePinned: a change to how the nest compiler builds its output
// — not to what it builds — leaves every instruction, side table and
// register count of these 26 programs as they were.
func TestBytecodePinned(t *testing.T) {
	machine := hw.Default()
	got := map[string]string{}
	for name, build := range corpus(t, 0.25) {
		res, err := compiler.Compile(build(), machine, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for variant, prog := range map[string]*ir.Program{"O": build(), "P": res.Prog} {
			art, err := exec.Compile(prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, variant, err)
			}
			got[name+"/"+variant] = art.BytecodeHash()
		}
	}
	names := make([]string, 0, len(got))
	for k := range got {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) != len(bytecodePins) {
		t.Errorf("%d programs compiled, %d pinned", len(names), len(bytecodePins))
	}
	for _, k := range names {
		if got[k] != bytecodePins[k] {
			t.Errorf("%q: %q,", k, got[k])
		}
	}
}
