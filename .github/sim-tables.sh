#!/usr/bin/env bash
# Usage: sim-tables.sh <dir holding scanbench, scanserved and scanload> <output dir>
#
# Runs every deterministic (simulator) scanbench cell CI prints, plus every
# figure cell (Figures 11-18: the §4.1 and TPC-H buffer, bandwidth and
# stream sweeps and both sharing series, so both closed-loop drivers, the
# sharing sampler and both renderings of the figure tables are held), the
# every-policy ablation at the §4.1 point
# and a weighted-wfq elevator cell, and writes one table per cell without
# its wall-clock "# ... done in" trailer; the policy, compare and
# ablation cells also in their -tsv form, so both renderings are held. The -h
# text of the three binaries (minus the line naming the binary's path)
# pins the flag surface. Two builds whose
# simulations follow the same trajectory and whose command lines are the
# same produce identical directories (`diff -r`); CI's `full` job holds a
# PR to its base that way.
set -euo pipefail
bin=$1 out=$2
mkdir -p "$out"
cell() { # cell <name> <scanbench args...>
	local name=$1
	shift
	"$bin/scanbench" "$@" | grep -v 'done in' >"$out/$name.txt"
}
serve=(-serve -sf 0.01 -streams 8 -rates 50)
policy=("${serve[@]}" -queries 2 -mpls 4 -devices 1,4
	-policies fifo,sesf,wfq -tenants 2 -weights 3,1 -selectivities 1,0.01 -clustered)
compare=(-compare -sf 0.01 -streams 8 -queries 2 -rates 30 -mpls 2)
cell policy "${policy[@]}"
cell policy-tsv -tsv "${policy[@]}"
cell lifecycle "${serve[@]}" -queries 2 -mpls 1 \
	-policies fifo,sesf,wfq -tenants 2 -weights 3,1 -slo 20ms -deadline 30ms -cancel 0.3
cell update-mix "${serve[@]}" -queries 4 -mpls 4 \
	-policies fifo,sesf,wfq -writefrac 0.1 -ckptops 2 -clustered -selectivities 0.1
cell device-intel "${serve[@]}" -queries 2 -mpls 4 -devices 1,4 -iosched fifo,elevator
cell tiering "${serve[@]}" -queries 2 -mpls 4 -devices 4 -tiers flat,tiered-rr,tiered-temp -hotfrac 0.1 -hotprob 0.9
cell wfq-elevator "${serve[@]}" -queries 2 -mpls 4 -devices 1,4 -iosched elevator \
	-policies wfq -tenants 2 -weights 3,1
cell devices -serve -sf 0.01 -rates 5 -mpls 8 -devices 1,4
cell compare "${compare[@]}"
cell compare-tsv -tsv "${compare[@]}"
cell fig11 -sf 0.01 fig11
cell fig12 -sf 0.01 fig12
cell fig13 -sf 0.01 fig13
cell fig14 -sf 0.01 fig14
cell fig15 -sf 0.01 fig15
cell fig16-tsv -tsv -sf 0.01 fig16
cell fig17 -sf 0.01 fig17
cell fig18-tsv -tsv -sf 0.01 fig18
cell ablation -sf 0.01 ablation
cell ablation-tsv -tsv -sf 0.01 ablation
for b in scanbench scanserved scanload; do
	"$bin/$b" -h 2>&1 | grep -v '^Usage of ' >"$out/help-$b.txt"
done
