#!/usr/bin/env bash
# parity.sh — hold a change that claims to move no simulated tick to the
# parent commit's *binaries*: same stdout, same metrics, same trace.
#
#   scripts/parity.sh [-i KEY-REGEX] <parent-checkout> <cell>...
#
# <parent-checkout> is a `git clone` of the parent commit (not a worktree);
# this tree is the change. Both trees' oocbench, oocsim and ooccc are built
# into a temp dir (under $TMPDIR). Cells, by the layer a change touches:
#
#   harness  -exp all -scale 0.2 -parallel 1 (stdout, metrics, trace), and
#            -parallel 8 against -parallel 1 on the new binary
#   storage  fig3 x 5 backends x {clean, chaos}, elevator at -scale 0.2,
#            -tenants 5 under qos (stdout, metrics, trace)
#   exec     fig3 x {disk, nvme, farmem} x {clean, flaky, pressure, chaos},
#            fig3 at -scale 0.2, -explain-fastpath, the assembled bytecode
#            (OOC_KDUMP), and oocsim [-original|-no-rt] over every .loop
#   vm       fig3 x 4 backends x 6 fault profiles and -tenants 5 x 3 tiers
#            x {clean, brownout, chaos} (stdout, metrics, trace)
#   tenants  -tenants 12 x seeds {1, 7} x {disk, nvme} x {clean, chaos}
#   compile  ooccc and `OOC_KDUMP=1 oocsim -scale 0.25` over the 8 NAS
#            proxies and examples/kernels
#   profile  -profile-record artifact, then -exp fig3 -profile-use of it
#
# Metrics are compared minus runner.wall_ns and any key matching -i (a
# counter the change itself adds or re-bases). The trace is compared minus
# every "runner" process (wall-clock spans; -parallel 1 keeps the other
# pids stable) and needs jq: without it the trace is skipped with a notice.
set -u
ignore='runner\.wall_ns'
if [ "${1:-}" = -i ]; then ignore="$ignore|$2"; shift 2; fi
[ $# -ge 2 ] || { sed -n '2,30p' "$0" >&2; exit 2; }
parent=$(cd "$1" && pwd) || exit 2
shift
new=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d "${TMPDIR:-/tmp}/parity.XXXXXX")
trap 'rm -rf "$work"' EXIT
for side in p n; do
	tree=$parent; [ $side = n ] && tree=$new
	mkdir "$work/$side"
	(cd "$tree" && go build -o "$work/$side/" ./cmd/oocbench ./cmd/oocsim ./cmd/ooccc) || exit 1
done
fails=0
# verdict <what> <file-suffix>...: cmp the parent's and the change's files.
verdict() {
	local what=$1 bad= f; shift
	for f; do cmp -s "$work/p.$f" "$work/n.$f" || bad="$bad $f"; done
	if [ -z "$bad" ]; then echo "ok    $what"; else echo "FAIL  $what:$bad differ"; fails=$((fails + 1)); fi
}
runners='[.traceEvents[] | select(.ph == "M" and .name == "process_name" and .args.name == "runner") | .pid]'
# bench [trace] <oocbench args>: stdout, metrics and optionally the trace.
bench() {
	local files="out met" trace= side
	if [ "$1" = trace ]; then
		shift
		if command -v jq > /dev/null; then trace=1 files="$files trc"; else echo "note  no jq: trace not compared"; fi
	fi
	for side in p n; do
		"$work/$side/oocbench" "$@" -metrics "$work/$side.json" ${trace:+-trace "$work/$side.trace"} > "$work/$side.out" 2>&1
		grep -Ev "^ *\"($ignore)\":" "$work/$side.json" > "$work/$side.met"
		[ -z "$trace" ] || jq -c "$runners as \$r | .traceEvents[] | select(.pid as \$p | \$r | index(\$p) | not)" \
			"$work/$side.trace" > "$work/$side.trc"
	done
	verdict "oocbench $*" $files
}
# tool <env> <binary> <args>: stdout and stderr of oocsim or ooccc.
tool() {
	local env=$1 bin=$2 side; shift 2
	for side in p n; do env $env "$work/$side/$bin" "$@" > "$work/$side.out" 2> "$work/$side.err"; done
	local what="$env $bin $*"
	verdict "${what#OOC_KDUMP= }" out err
}
faulted() { [ "$1" = clean ] || echo "-faults profile=$1,seed=7"; }
fig3="-exp fig3 -scale 0.05 -parallel 1"
loops="$new/examples/kernels/*.loop $new/benchmark/corpus/*.loop"
for cell; do
	case $cell in
	harness)
		bench trace -exp all -scale 0.2 -parallel 1
		cp "$work/n.out" "$work/p.par"
		"$work/n/oocbench" -exp all -scale 0.2 -parallel 8 > "$work/n.par" 2>&1
		verdict "new oocbench -exp all -scale 0.2: -parallel 8 against -parallel 1" par ;;
	storage)
		for be in disk disk,sched=elevator nvme farmem farmem,batch=1; do for f in clean chaos; do
			bench trace $fig3 -backend $be $(faulted $f)
		done; done
		bench trace -exp fig3 -scale 0.2 -parallel 1 -backend disk,sched=elevator
		bench trace -tenants 5 -qos gold,silver,be ;;
	exec)
		for be in disk nvme farmem; do for f in clean flaky pressure chaos; do
			bench $fig3 -backend $be $(faulted $f)
		done; done
		bench -exp fig3 -scale 0.2 -parallel 1 -backend disk
		tool OOC_KDUMP= oocbench -explain-fastpath -scale 0.2
		tool OOC_KDUMP=1 oocbench $fig3
		for k in $loops; do for v in "" -original -no-rt; do tool OOC_KDUMP= oocsim $v $k; done; done ;;
	vm)
		for f in clean flaky slow pressure brownout chaos; do
			for be in disk nvme farmem; do bench trace $fig3 -backend $be $(faulted $f); done
			bench trace -exp fig3 -scale 0.2 -parallel 1 -backend disk,sched=elevator $(faulted $f)
		done
		for be in disk nvme farmem; do for f in clean brownout chaos; do
			bench trace -tenants 5 -qos gold,silver,be -backend $be $(faulted $f)
		done; done ;;
	tenants)
		for seed in 1 7; do for be in disk nvme; do for f in clean chaos; do
			bench -tenants 12 -seed $seed -backend $be $(faulted $f)
		done; done; done ;;
	compile)
		for k in BUK CGM EMBAR FFT MGRID APPLU APPSP APPBT $new/examples/kernels/*.loop; do
			tool OOC_KDUMP= ooccc $k
			tool OOC_KDUMP=1 oocsim -scale 0.25 $k
		done ;;
	profile)
		for side in p n; do
			"$work/$side/oocbench" -profile-record "$work/$side.art" -scale 0.05 > /dev/null 2> "$work/$side.err"
		done
		verdict "oocbench -profile-record (the artifact)" art err
		cp "$work/n.art" "$work/use.art"
		bench $fig3 -profile-use "$work/use.art" ;;
	*) echo "parity.sh: unknown cell $cell" >&2; exit 2 ;;
	esac
done
[ $fails -eq 0 ] || { echo "$fails comparison(s) differ"; exit 1; }
