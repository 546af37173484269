#!/usr/bin/env bash
# Checks the benchmark against itself.
#
#   benchmark/selfcheck.sh [SECONDS]        # from anywhere; SECONDS defaults to 25
#
# 1. `cargo test --release` and `cargo clippy -D warnings` on the package.
# 2. Every workload twice on the default seed, the second round in reverse
#    order, then once on the holdout seed.
# 3. The deterministic metrics of the two default-seed runs must be
#    identical; each end-to-end metric of the second run must lie within
#    its BENCHMARK.json bound of the first (setup_s only warns, see
#    below); every run must be correct.
#
# Run outputs land in benchmark/target/selfcheck/.  Exits 1 on any failure.
set -euo pipefail
cd "$(dirname "$0")/.."
seconds=${1:-25}
manifest=benchmark/Cargo.toml
out=benchmark/target/selfcheck
workloads=(workstation programs cluster toolchain)

cargo test --release --offline --quiet --manifest-path "$manifest"
cargo clippy --release --offline --quiet --all-targets --manifest-path "$manifest" -- -D warnings

mkdir -p "$out"
run() { # workload seed file
    cargo run --release --offline --quiet --manifest-path "$manifest" -- \
        --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 >"$out/$3"
}
for w in "${workloads[@]}"; do run "$w" 1 "$w-a.txt"; done
for ((i = ${#workloads[@]} - 1; i >= 0; i--)); do run "${workloads[i]}" 1 "${workloads[i]}-b.txt"; done
for w in "${workloads[@]}"; do run "$w" 7 "$w-holdout.txt"; done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
# setup_s lasts a few milliseconds at process start, so one run catches the
# host in one mode: on a shared host it reads about 1x or 2x from run to
# run.  Its bound applies to the median of many runs; here it only warns.
warn_only = {"setup_s"}

def load(name):
    lines = open(f"{out}/{name}").read().splitlines()
    result = json.loads(lines[-1])
    det = next(json.loads(l)["deterministic"] for l in lines if l.startswith('{"deterministic"'))
    return result, {k: v["value"] for k, v in det.items()}

failures = 0
for w in workloads:
    (a, det_a), (b, det_b), (h, _) = load(f"{w}-a.txt"), load(f"{w}-b.txt"), load(f"{w}-holdout.txt")
    for tag, r in (("default", a), ("default again", b), ("holdout", h)):
        if not r["correct"]:
            print(f"FAIL {w} {tag}: {r['failed']} of {r['attempted']} failed")
            failures += 1
    for k in sorted(set(det_a) | set(det_b)):
        if det_a.get(k) != det_b.get(k):
            print(f"FAIL {w} deterministic {k}: {det_a.get(k)} vs {det_b.get(k)}")
            failures += 1
    for k, bound in bounds.items():
        x, y = a["metrics"][k]["value"], b["metrics"][k]["value"]
        change = abs(y - x) / x
        verdict = "ok  " if change <= bound else ("warn" if k in warn_only else "FAIL")
        failures += verdict == "FAIL"
        print(f"{verdict} {w:12s} {k:14s} {x:14.6f} -> {y:14.6f}  {change * 100:6.2f}% (bound {bound * 100:.0f}%)")
print("selfcheck:", "passed" if failures == 0 else f"{failures} failure(s)")
sys.exit(1 if failures else 0)
EOF
