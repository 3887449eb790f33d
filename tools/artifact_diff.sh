#!/usr/bin/env bash
# Build the default CLI artifacts at a base git ref and at the working tree,
# then print which of them differ (cmp).  The artifacts are deterministic, so
# a change that claims to keep them must show none here.  Report only: the
# script exits 0 whatever differs.
#
# usage: tools/artifact_diff.sh <base-ref>
set -u

base_ref=${1:?usage: tools/artifact_diff.sh <base-ref>}
root=$(git rev-parse --show-toplevel) || exit 0
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/base/tree"
git -C "$root" archive "$base_ref" | tar -x -C "$work/base/tree" || {
    echo "artifact diff: cannot export $base_ref"; exit 0; }

artifacts=(coverage/coverage.csv
           plan-line-search/plan.json plan-line-search/plan_rings.csv
           plan-algorithm1/plan.json plan-algorithm1/plan_rings.csv
           sweep/sweep.csv mc-surrogate/mc_report.json mc-exact/mc_report.json)

build() {  # build <source tree> <output dir>
    local src=$1/src out=$2
    irsplan() { PYTHONPATH="$src" python -m irsplan.cli "$@" > /dev/null; }
    irsplan coverage --out "$out/coverage"
    irsplan plan --method line-search --set plan.M=100 --out "$out/plan-line-search"
    irsplan plan --method algorithm1 --set plan.M=100 --out "$out/plan-algorithm1"
    irsplan sweep --out "$out/sweep"
    irsplan validate "$out/plan-line-search/plan.json" --seed 1 \
        --set mc.element_draws=gaussian-surrogate --set mc.n_topologies=100 \
        --set mc.n_fading=2000 --out "$out/mc-surrogate"
    irsplan validate "$out/plan-line-search/plan.json" --seed 1 \
        --set mc.element_draws=exact --set mc.n_topologies=10 \
        --set mc.n_fading=10 --out "$out/mc-exact"
}

build "$work/base/tree" "$work/base/out"
build "$root" "$work/head/out"
echo "artifacts against $base_ref ($(git -C "$root" rev-parse --short "$base_ref")):"
for name in "${artifacts[@]}"; do
    if [ ! -f "$work/base/out/$name" ] || [ ! -f "$work/head/out/$name" ]; then
        echo "  MISSING  $name"
    elif cmp -s "$work/base/out/$name" "$work/head/out/$name"; then
        echo "  same     $name"
    else
        echo "  DIFFERS  $name"
    fi
done
exit 0
