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
// opDotLoop, opSetSlotC and opFMulI/opFDivI were deleted (which renumbers
// every opcode after opSetSlot).
var bytecodePins = map[string]string{
	"APPBT/O":          "03c6ea76efae1d9145d22a06d48e2dccd49280b911141de8d78e27f64a627811",
	"APPBT/P":          "961466a7e73beb13ec4a6aa6798bf9c82c02968914b8e5f90313f860152b15ca",
	"APPLU/O":          "44b3f7cf9eb04d05ffdfd9785612fe84bb1b72e6a1c3ed36d65883badd01b8b5",
	"APPLU/P":          "55abcd25e0f9153c5cfcc7b06de6e7919026acc8865156c6bd242dc60b058e1b",
	"APPSP/O":          "998b01446ddcb1e90117e02bbc30bc95c97f7aaa75a7e0ffcd4f2f35d53f9528",
	"APPSP/P":          "954ea50db57e02a94deb325f61882125a0e66e39b40a77c932fcbc1c5eb8f7f9",
	"BUK/O":            "f4cd4ddbead7edfdc6c4d96f290cc575e9f1a5c499c986315f80b04f6ed8232a",
	"BUK/P":            "7f76f4c31ed025e4eaa7974be644a4b3575abe98b7c3ceca31aeb62cd84b30e9",
	"CGM/O":            "aaabd03f7f873dd0e4dabc780b31d910d59c93d00993b2c1cdb45c6839ef4bb2",
	"CGM/P":            "2a0b4b51308e210b1c8754c9ef0cb285a573e1451646c70f2efa091454d64b20",
	"EMBAR/O":          "bf3b8e16b064f8fc5efabca57498b0d6f974cfc685468efe415963a67c45b320",
	"EMBAR/P":          "4f44611ae5457116f7e5ccb69a9bcaaaab290a58acf738cd7f9d20eefdb8032f",
	"FFT/O":            "0173f7a4760accdcbe9161578da6205671e58e75fa5b6b76dc6e1e1f49d6855e",
	"FFT/P":            "1c9e78aeb5036dd11f9cf909db1200823f692f6139b2dbcb5f3abd845f78fa7a",
	"MGRID/O":          "b0cc5f836637a458afb27e7560d2ecc3e3300fcfa5e6facfe60ab885eb918c43",
	"MGRID/P":          "1886af81513f14591d34be35a1b7de5cee166bc7e4a94c27d072771cd29bacf4",
	"axpy.loop/O":      "4c12acc2d1fa5e3102faf5617fff4ce1e63f9e4aa5e47a0b0a5bb340b3bcd3c4",
	"axpy.loop/P":      "e95b816f370534dcd935c465eff0691239d079731418cd2d5b7b56582459a763",
	"histogram.loop/O": "fa91b3fb83340627e34ac1b9654d2bfdf8af4fdb3871fc75a52617b497d08b1c",
	"histogram.loop/P": "da7325f36a6b3c94328f51768f85d076d0587e4c1052f8003acbd658f42b7742",
	"matmul.loop/O":    "ed8d397030fd5cadaf28aa368ef082d800bef264c218b8f7dae4f4ea970f73b6",
	"matmul.loop/P":    "6bfbbedb8ca510794d5a19980f81fe73fd4efc0589a6675860550fd0b09b33a5",
	"reverse.loop/O":   "197f11b2b1f942fcdeefd8ba3f1dcb2738918b080f78946f9d3d2d410154e9b6",
	"reverse.loop/P":   "596dd65af304b274c820cfe58e50635867ca61e957e68e436c7b8414279a6e33",
	"scan.loop/O":      "8b17d3fdeb7dbe5fe39b3805e37dff56cfa639ac8f76b4d48e614a5efa9be440",
	"scan.loop/P":      "e0ad9c176f8e44f205cc68a0dc3a6f676862f7005fcf6f5996923ffb5d5c1076",
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
