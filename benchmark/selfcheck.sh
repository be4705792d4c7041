#!/usr/bin/env bash
# Does this benchmark repeat? Runs it the way its driver does and prints the
# spread of every end-to-end metric as Markdown (SPREAD.md is this output).
#
#   benchmark/selfcheck.sh [runs-per-set] [first-seed-of-set-1] [first-seed-of-set-2]
#
# From the root of the repository. Each set runs every workload `runs` times,
# each time with another --seed, workloads interleaved. For every workload ×
# end-to-end metric it prints the median, min, max, (max − min)/median and
# the distance between the quartiles as a share of the median; the last is
# what must stay inside the metric's bound in BENCHMARK.json (setup_s
# excepted), and the second set's median may not be worse than the first's
# by more than the bound. Exits 1 if either fails, or if any run is incorrect.
# Never pass --quick here: a smoke run is not a measurement.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-1}" "${3:-101}" <<'PY'
import json, statistics, subprocess, sys, time

runs, seeds = int(sys.argv[1]), [int(sys.argv[2]), int(sys.argv[3])]
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
metrics = spec["end_to_end"]
ok = True


def run(workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    start = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
    if result is None or not result["correct"] or result["failed"]:
        print(f"RUN FAILED: {' '.join(cmd)}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
        sys.exit(1)
    return result, time.time() - start


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, min(values), max(values), (max(values) - min(values)) / med, (q3 - q1) / med


subprocess.run(spec["command"] + ["--help"], capture_output=True)  # builds, so that no run does
medians = []
for s, first in enumerate(seeds):
    got = {w: {m["name"]: [] for m in metrics} for w in workloads}
    counts = {w: set() for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(runs):
        for w in workloads:
            result, wall = run(w, first + i)
            walls[w].append(wall)
            counts[w].add((result["attempted"], result["failed"]))
            for m in metrics:
                got[w][m["name"]].append(result["metrics"][m["name"]]["value"])
    print(f"\n## Set {s + 1}: {runs} runs per workload, seeds {first}..{first + runs - 1}\n")
    print("| workload | metric | unit | median | min | max | (max−min)/median | IQR/median | bound | |")
    print("|---|---|---|---:|---:|---:|---:|---:|---:|---|")
    medians.append({})
    for w in workloads:
        for m in metrics:
            med, lo, hi, rng, iqr = spread(got[w][m["name"]])
            medians[s][(w, m["name"])] = med
            gated = m["name"] != "setup_s"
            verdict = "ok" if iqr <= m["bound"] else ("FAIL" if gated else "wide (not gated)")
            if gated and iqr > m["bound"]:
                ok = False
            elif gated and iqr > m["bound"] / 3:
                verdict = "ok, above a third of the bound"
            print(f"| {w} | {m['name']} | {m['unit']} | {med:.6g} | {lo:.6g} | {hi:.6g} | "
                  f"{rng:.2%} | {iqr:.2%} | {m['bound']:.0%} | {verdict} |")
    print()
    for w in workloads:
        print(f"- {w}: attempted/failed per run {sorted(counts[w])}, "
              f"wall {statistics.median(walls[w]):.1f} s median, {max(walls[w]):.1f} s max")

print("\n## Second set's median against the first's\n")
print("| workload | metric | set 1 | set 2 | worse by | bound | |")
print("|---|---|---:|---:|---:|---:|---|")
for (w, name), first in medians[0].items():
    m = next(m for m in metrics if m["name"] == name)
    second = medians[1][(w, name)]
    worse = (second - first) / first if m["better"] == "lower" else (first - second) / first
    verdict = "ok" if worse <= m["bound"] else "FAIL"
    ok = ok and worse <= m["bound"]
    print(f"| {w} | {name} | {first:.6g} | {second:.6g} | {worse:+.2%} | {m['bound']:.0%} | {verdict} |")
print("\nRESULT:", "every spread and every shift is inside its bound" if ok else "NOT repeatable enough")
sys.exit(0 if ok else 1)
PY
