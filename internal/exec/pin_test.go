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
// example kernel, default machine and compiler options, recorded at the
// parent of the commit that put value numbering on an undo trail and made
// peephole and assembly run in place.
var bytecodePins = map[string]string{
	"APPBT/O":          "065bac34337a24de9fc8afc6f40bcbfa0220a7929ef285cd603047d9bebd2030",
	"APPBT/P":          "8740353ce254356e11aedb42703a5af15f5df39abe45cb782e4ca5f9c294eefa",
	"APPLU/O":          "4c9e17b67aba4bfccd3f4aafe2d2b4543fe6a61ea208495df583ecd5e8ae4390",
	"APPLU/P":          "ad872f570163e29f8730ab85807f87765d956de2e47c59fb841ae8a8f3d20d53",
	"APPSP/O":          "308abddd438d97725d5a77384793e6cf10e2a289f78c4aa92bc67ebc45f92f71",
	"APPSP/P":          "1d5422250f212d841722ca74fc22ff0fc09ed3f938faa209dc326850ebaaf8d3",
	"BUK/O":            "91367d4bee89a0ae0be652d98cffae2b2bf9f4813617cca4b436fd8745ae418c",
	"BUK/P":            "42acf353801568b355f225b99f84083d85d53bfbf4270ac8d5ff7ad112cb1389",
	"CGM/O":            "70ebdf510eb2b684e1d530196b4ed974e3c058c3a71933c9fa370477435e4484",
	"CGM/P":            "ff8515afb70974d31fb1538ec09d785eea55e1e8ea9ae68a64db6523154e49b9",
	"EMBAR/O":          "257e91d578b9b910345ade8316584091c6cc709fdd69cbc9c97fb830cde41869",
	"EMBAR/P":          "8d48b91b3612b2985a634684bedf6afdc962d96dda7790b3b237d862139c3f71",
	"FFT/O":            "106d0110980f59358d0f242e51a3d7257d46f259dfd3502896844e66510e130c",
	"FFT/P":            "e0a5c21db831385c37828e0ae1d42ee0baa5473b4dae730f489afad405966d48",
	"MGRID/O":          "e94c8034e4f1710d9f3ff9674631b64b7b4fc42e51c17c247afd71372e825eca",
	"MGRID/P":          "a944dcd31ba701b853c4126e02d9cee0d75dcb81c6789e9202fae4abd5647035",
	"axpy.loop/O":      "9ca06acc7f03401656824d9938fd7f2932d6ebb70ea0c2528acd181de9da69b2",
	"axpy.loop/P":      "a6fdf433e20526f56fca3eb958b52a1acc599b3de0d1391ad52049c72839cee8",
	"histogram.loop/O": "7553411cd5b576f4a5a937ba187052aaac5704ad5356f0803402e038e9face98",
	"histogram.loop/P": "cea68e165accc9017d6424a70a1c1b5e2080e08ef843ba2376d3941050ec354c",
	"matmul.loop/O":    "cea86b9868f30676d53601b5ff439babd1828f2235b7be3b1fb3718e9ccb660e",
	"matmul.loop/P":    "c16bcced580aa393227f5ad7de03580e8d71cbd31fc91505d37b50f6e65708ac",
	"reverse.loop/O":   "5b70f314ce7937d5e57d19f0022b8688422f3446b660b2ec572c5e07498c5442",
	"reverse.loop/P":   "7229077c9e48d754e7784baddbe1fdb8419ba1c192f875f61709208a44f7ecd4",
	"scan.loop/O":      "7ff8b36dc76981deb6ecd456ce235c9ea26d707631d3aed111d6aa6c5a5e3857",
	"scan.loop/P":      "4365ae6a9a29d85e8f29b533a0d4b8be9af71ee2a0708b706a8aa8f844045efa",
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
