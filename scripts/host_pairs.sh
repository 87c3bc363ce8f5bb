#!/usr/bin/env bash
# Host-speed pairs: exports <base-ref> under target/host_pairs/, builds it
# and the working tree, then runs the benchmark's one-run command
# (`benchmark/run.sh --workload W --seed S --seconds 10`, pinned by run.sh)
# <pairs> times on each side per seed, alternating which side goes first.
# Prints, per host metric, one row per seed and, with several seeds, a
# pooled row over every pair: each side's q1 / median / q3 (linear
# interpolation; the pooled quartiles hold the seeds' own spread too), the
# ratio of the medians (change / parent), the gap of the medians over the
# parent's interquartile range (change minus parent, signed so that worse is
# positive: a gap under 1 is inside the parent's own spread), the pairs the
# change won, and the change's worst run against the parent's best. Fails
# if a virtual-clock or exact metric, or the attempted / failed counts,
# differ between any two runs of one seed: a host-speed change must not
# move them. Ten pairs resolve a host effect of about a tenth; several seeds
# pool more pairs, and show whether a claim holds on a seed not used while
# writing the change.
# After the pairs, three traced runs per side (`--trace 1`, the first seed,
# alternating sides like the pairs) print the host-clock per-layer rows side by side, each as its median
# with its min–max — every `sim.*` row (hand-off, sleep and spawn costs, the
# system-time share, switches and timer events per op),
# `simfs.host_ns_per_read_{hit,miss}` and every `engine.call.*.host_ns` — so
# a claim can name its layer; one traced run swings more than the effects
# these rows are read for. Two control rows follow, from layers most changes
# leave alone (`device.host_ns_per_io`, `loadgen.host_ns_per_op`): a layer
# row also moves with the binary's code layout, so it reads a change only
# where it moves more than the controls do. Next to them it prints the crates
# that `git diff <base-ref>` touches, and flags a control row whose code
# lies in one of them: that row is no control for this change. Last, one `xlsm-bench --quick probe` per side
# on the workload's device and write share prints the host clock per charge
# class, scheduler and switch, for the fill and the window, side by side, so
# a claim can name its class too (a tree whose probe attributes no host time
# shows `-`).
#
#   scripts/host_pairs.sh <base-ref> <workload> <seed>[,<seed>...] <pairs>
#
# The runs' JSON lines stay in target/host_pairs/<workload>-<seeds>/.
set -euo pipefail
usage="usage: scripts/host_pairs.sh <base-ref> <workload> <seed>[,<seed>...] <pairs>"
[[ $# == 4 ]] || { echo "$usage" >&2; exit 2; }
base_ref=$1 workload=$2 seeds=$3 pairs=$4
[[ $seeds =~ ^[0-9]+(,[0-9]+)*$ ]] || { echo "$usage" >&2; exit 2; }
IFS=, read -ra seed_list <<<"$seeds"
repo=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$repo" rev-parse --verify "$base_ref^{commit}")
base=$repo/target/host_pairs/$sha
if [[ ! -d $base ]]; then
    rm -rf "$base.partial"
    mkdir -p "$base.partial"
    git -C "$repo" archive "$sha" | tar -x -C "$base.partial"
    mv "$base.partial" "$base"
fi
# The crates the change touches: the directory under crates/ or shims/, or
# benchmark.
touched=$(git -C "$repo" diff --name-only "$sha" |
    awk -F/ '$1 == "crates" || $1 == "shims" { print $2 } $1 == "benchmark" { print $1 }' |
    sort -u | paste -sd, -)
out=$repo/target/host_pairs/$workload-$seeds
rm -rf "$out"
mkdir -p "$out"

# Each tree builds into its own target/, where its run.sh looks.
for tree in "$base" "$repo"; do
    echo "==> build $tree" >&2
    CARGO_TARGET_DIR=$tree/target cargo build -q --release --offline --manifest-path "$tree/benchmark/Cargo.toml"
    CARGO_TARGET_DIR=$tree/target cargo build -q --release --offline --manifest-path "$tree/Cargo.toml" -p xlsm-bench
done

run() { # side tree seed pair [run.sh flags]
    CARGO_TARGET_DIR=$2/target bash "$2/benchmark/run.sh" --workload "$workload" --seed "$3" --seconds 10 \
        "${@:5}" 2>/dev/null | tail -1 >"$out/$1.$3.$4.json"
}
for seed in "${seed_list[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        if ((i % 2 == 0)); then
            run parent "$base" "$seed" "$i"
            run change "$repo" "$seed" "$i"
        else
            run change "$repo" "$seed" "$i"
            run parent "$base" "$seed" "$i"
        fi
        echo "    seed $seed: pair $((i + 1))/$pairs done" >&2
    done
done
seed=${seed_list[0]}
traces=3
for ((i = 0; i < traces; i++)); do
    if ((i % 2 == 0)); then
        run parent "$base" "$seed" "trace$i" --trace 1
        run change "$repo" "$seed" "trace$i" --trace 1
    else
        run change "$repo" "$seed" "trace$i" --trace 1
        run parent "$base" "$seed" "trace$i" --trace 1
    fi
done

# The probe closest to the workload: its device and write share, 4 clients.
case $workload in
    *_sata) device=sata ;;
    *_pcie) device=pcie ;;
    *) device=xpoint ;;
esac
case $workload in
    readrandom_*) write_pct=0 ;;
    overwrite_*) write_pct=100 ;;
    *) write_pct=50 ;;
esac
source "$repo/scripts/pin.sh"
for side in parent change; do
    tree=$base
    [[ $side == change ]] && tree=$repo
    "${pin[@]}" "$tree/target/release/xlsm-bench" --quick probe "$device" "$write_pct" 4 1 >"$out/$side.probe.txt"
done

python3 - "$out" "$pairs" "$workload" "$seeds" "$sha" "$device $write_pct" "$traces" "$touched" <<'EOF'
import json, re, sys

out, pairs, workload, seeds, sha, probe = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4].split(","), sys.argv[5], sys.argv[6]
traces = int(sys.argv[7])
touched = set(filter(None, sys.argv[8].split(",")))
HOST = {"setup_s": "lower", "host_ops_per_s": "higher", "peak_rss_mb": "lower"}
# runs[seed][side]: that seed's runs, in pair order.
runs = {seed: {side: [json.load(open(f"{out}/{side}.{seed}.{i}.json")) for i in range(pairs)]
               for side in ("parent", "change")}
        for seed in seeds}

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)
    return q(0.25), q(0.5), q(0.75)

status = 0
for seed, sides in runs.items():
    first = sides["parent"][0]
    for side, rs in sides.items():
        for i, r in enumerate(rs):
            for key in ("correct", "attempted", "failed"):
                if r[key] != first[key]:
                    print(f"DIFFERS {key}: seed {seed} {side} run {i} {r[key]} vs parent run 0 {first[key]}")
                    status = 1
            for name, m in r["metrics"].items():
                if name not in HOST and m["value"] != first["metrics"][name]["value"]:
                    print(f"DIFFERS {name}: seed {seed} {side} run {i} {m['value']} vs parent run 0 "
                          f"{first['metrics'][name]['value']}")
                    status = 1
    print(f"{workload}, seed {seed}, {pairs} pairs, parent {sha[:7]}; "
          f"failed {first['failed']} of {first['attempted']}")

def row(name, better, label, p, c):
    (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(p), quartiles(c)
    won = sum((cv < pv) if better == "lower" else (cv > pv) for pv, cv in zip(p, c))
    worst, best = (max(c), min(p)) if better == "lower" else (min(c), max(p))
    gap = (cm - pm) if better == "lower" else (pm - cm)
    gap = f"{gap / (pq3 - pq1):>+8.2f}" if pq3 > pq1 else f"{'-':>8}"
    fmt = (lambda v: f"{v:.3f}") if name == "setup_s" else (lambda v: f"{v:.1f}")
    print(f"{name:<15} {label:>6} {fmt(pq1) + ' / ' + fmt(pm) + ' / ' + fmt(pq3):>30} "
          f"{fmt(cq1) + ' / ' + fmt(cm) + ' / ' + fmt(cq3):>30} {cm / pm:>6.3f}x {gap} {won:>3}/{len(p)}  "
          f"{fmt(worst)} / {fmt(best)} ({worst / best:.3f}x)")

print(f"{'metric':<15} {'seed':>6} {'parent q1 / median / q3':>30} {'change q1 / median / q3':>30} {'ratio':>7} {'gap/IQR':>8} {'won':>6}  change worst / parent best")
for name, better in HOST.items():
    pooled = {"parent": [], "change": []}
    for seed, sides in runs.items():
        p, c = ([r["metrics"][name]["value"] for r in sides[s]] for s in ("parent", "change"))
        pooled["parent"] += p
        pooled["change"] += c
        row(name, better, seed, p, c)
    if len(seeds) > 1:
        row(name, better, "pooled", pooled["parent"], pooled["change"])
seed = seeds[0]
traced = {side: [json.load(open(f"{out}/{side}.{seed}.trace{i}.json"))["metrics"] for i in range(traces)]
          for side in ("parent", "change")}
layers = [name for name in traced["parent"][0]
          if name.startswith("sim.") or name in ("simfs.host_ns_per_read_hit", "simfs.host_ns_per_read_miss")
          or (name.startswith("engine.call.") and name.endswith(".host_ns"))]
# Controls: layers most changes leave alone, each with the crates its timed
# code runs in. A layer row moves with the binary's code layout too; it reads
# a change only where it moves more than these do, and a control whose code
# the change touches is none.
controls = {
    "device.host_ns_per_io": {"device", "sim", "workload", "parking_lot"},
    "loadgen.host_ns_per_op": {"benchmark", "workload", "sim"},
}
print(f"{traces} traced runs per side, seed {seed}, host clock per layer: median [min-max]")
print(f"{'layer':<32} {'parent':>28} {'change':>28} {'ratio':>7}")
for name in layers + list(controls):
    if name == next(iter(controls)):
        print(f"control rows (crates the diff touches: {', '.join(sorted(touched)) or 'none'}):")
    cells, medians = [], []
    for side in ("parent", "change"):
        vs = sorted(t[name]["value"] for t in traced[side])
        medians.append(quartiles(vs)[1])
        cells.append(f"{medians[-1]:.1f} [{vs[0]:.1f}-{vs[-1]:.1f}]")
    p, c = medians
    hit = sorted(controls.get(name, set()) & touched)
    flag = f"  NOT A CONTROL: the diff touches {', '.join(hit)}" if hit else ""
    print(f"{name:<32} {cells[0]:>28} {cells[1]:>28} " + (f"{c / p:>6.3f}x" if p else f"{'-':>7}") + flag)
def host_rows(side):
    """{phase: (summary, {row: host ms})} from a probe's host-clock tables."""
    phases, rows = {}, None
    for line in open(f"{out}/{side}.probe.txt"):
        if m := re.match(r"host clock, (\w+): (.*)", line):
            rows = {}
            phases[m[1]] = (m[2].strip(), rows)
        elif rows is not None and (m := re.match(r"  (\w+)\s+([0-9.]+)\s", line)) and m[1] != "row":
            rows[m[1]] = float(m[2])
    return phases
probes = {side: host_rows(side) for side in ("parent", "change")}
print(f"xlsm-bench --quick probe {probe} 4 1 per side, host ms per charge class")
for phase in ("fill", "window"):
    sides = [probes[s].get(phase, ("no host rows", {})) for s in ("parent", "change")]
    print(f"{phase}: parent {sides[0][0]}")
    print(f"{phase}: change {sides[1][0]}")
    print(f"{'row':<18} {'parent':>10} {'change':>10} {'ratio':>7}")
    names = list(sides[1][1]) + [n for n in sides[0][1] if n not in sides[1][1]]
    for name in names:
        p, c = sides[0][1].get(name), sides[1][1].get(name)
        cell = lambda v: f"{v:>10.3f}" if v is not None else f"{'-':>10}"
        ratio = f"{c / p:>6.3f}x" if p and c is not None else f"{'-':>7}"
        print(f"{name:<18} {cell(p)} {cell(c)} {ratio}")
if status:
    print("==> a virtual-clock or exact metric moved")
sys.exit(status)
EOF
