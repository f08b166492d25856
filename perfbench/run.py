#!/usr/bin/env python3
"""The inlt benchmark: end-to-end and per-layer metrics of the search ->
codegen -> tile -> verify -> execute pipelines.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Run from the root of a source checkout. Builds perfbench/ (a CMake
project over ../src) into .bench_build/perfbench, runs one workload in
one process (a closed loop: one pipeline call after another), checks
every output, prints a report, and ends with one JSON line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced re-drive at threads=1. perfbench/ledger.json
holds each workload's purpose, its expected outcomes (checked) and the
machine-independent work counts recorded on the commit that added the
benchmark (compared and reported).
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verified_search_vm", "native_search_cold", "rank_space",
             "run_generated")
# Session workers and exec-engine threads: 4, or fewer on a smaller host.
THREADS = min(4, os.cpu_count() or 1)
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base


def build(out):
    """Configure once, then build incrementally; output goes to a log."""
    for need in ("src/CMakeLists.txt", "tools/testdata/cholesky.loop",
                 "perfbench/inputs/lu.loop"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a full source checkout")
    bdir = out / "perfbench"
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    with open(log, "w") as lf:
        steps = []
        if not (bdir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(bdir), "-j", str(THREADS)])
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=lf, stderr=subprocess.STDOUT)
            if rc.returncode:
                fail(f"build failed, see {log}")
    return bdir / "perfbench"


def tail(xs):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(xs)
    if len(s) <= 10:
        return s[-1], 100.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def generated_metrics(r):
    """kernel_ms_geomean, top1_speedup, parallel_speedup (run_generated)."""
    ms = r["native_ms"]
    orders = [v for k, v in ms.items() if "/#" in k]
    top1 = [ms[r["sources"][i]] / ms[r["rank1"][i]] for i in r["sources"]]
    par = [r["serial_ms"][i] / r["partitioned_ms"][i] for i in r["serial_ms"]]
    return {"kernel_ms_geomean": geomean(orders), "top1_speedup": geomean(top1),
            "parallel_speedup": geomean(par)}


def check_ledger(workload, r, ledger, checks):
    expected = ledger["workloads"][workload]["outcomes"]
    for name, exp in expected.items():
        got = r["outcomes"].get(name, {})
        for key, want in exp.items():
            checks.append((got.get(key) == want,
                           f"{name}.{key} = {got.get(key)}, expected {want}"))


def end_to_end(r):
    it = r["iter_s"]
    p50 = statistics.median(it)
    t, pct = tail(it)
    busy = statistics.median(r["search_s"]) if "search_s" in r else p50
    metrics = {
        "setup_s": (statistics.median(r["setup_s"]), "s"),
        "pipeline_s_p50": (p50, "s"),
        "pipeline_s_tail": (t, "s"),
        "candidates_per_s": (r["candidates_per_iter"] / busy, "1/s"),
        "peak_rss_mb": (r["peak_rss_mb"], "MiB"),
    }
    notes = [f"pipeline_s_tail is p{pct:.1f} of {len(it)} iterations; "
             f"setup_s is the median of {len(r['setup_s'])} set-ups"]
    extra = {}
    if "native_ms" in r:
        g = generated_metrics(r)
        extra = {"kernel_ms_geomean": (g["kernel_ms_geomean"], "ms"),
                 "top1_speedup": (g["top1_speedup"], "x"),
                 "parallel_speedup": (g["parallel_speedup"], "x")}
    return metrics, extra, notes


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(r):
    s, c = r["self_ms"], r["counts"]
    cands = r["candidates_per_iter"]
    m = {
        "ir.parse_ms": (s.get("ir.parse", 0.0), "ms"),
        "instance.layout_ms": (s.get("instance.layout", 0.0), "ms"),
        "dependence.analyze_ms": (s.get("dependence.analyze", 0.0), "ms"),
        "dependence.deps": (c.get("dependence.deps", 0), "count"),
        "linalg.fm_eliminations": (c["fm.eliminations"], "count"),
        "linalg.fm_cache_hit_ratio": (
            ratio(c["fm.cache_hits"], c["fm.cache_hits"] + c["fm.cache_misses"]),
            "ratio"),
        "transform.walk_ms": (s.get("transform.walk", 0.0), "ms"),
        "transform.incremental_pushes": (c["incremental.pushes"], "count"),
        "transform.memo_hit_ratio": (
            ratio(c["incremental.memo_hits"], c["incremental.pushes"]), "ratio"),
        "transform.prune_ratio": (
            ratio(cands - c.get("transform.evaluated", 0), cands), "ratio"),
        "transform.recover_ms": (s.get("transform.recover", 0.0), "ms"),
        "model.cost_ms": (s.get("model.cost", 0.0), "ms"),
        "model.estimates": (c["model.estimates"], "count"),
        "codegen.generate_ms": (s.get("codegen.generate", 0.0), "ms"),
        "codegen.simplify_ms": (s.get("codegen.simplify", 0.0), "ms"),
        "codegen.output_nodes": (c.get("codegen.output_nodes", 0), "count"),
        "tile.apply_ms": (s.get("tile.apply", 0.0), "ms"),
        "tile.applied_ratio": (
            ratio(c.get("tile.applied", 0), c.get("tile.attempted", 0)), "ratio"),
        "exec.vm_compile_ms": (s.get("exec.vm_compile", 0.0), "ms"),
        "exec.verify_ms": (s.get("exec.verify", 0.0), "ms"),
        "exec.native_prepare_ms": (s.get("exec.native_prepare", 0.0), "ms"),
        "exec.native_compiles": (c["exec.native.compiles"], "count"),
        "exec.native_cache_hit_ratio": (
            ratio(c["exec.native.lru_hits"] + c["exec.native.disk_hits"],
                  c["exec.native.lru_hits"] + c["exec.native.disk_hits"]
                  + c["exec.native.compiles"]), "ratio"),
        "exec.native_run_ms": (s.get("exec.native_run", 0.0), "ms"),
        "exec.serial_run_ms": (s.get("exec.serial_run", 0.0), "ms"),
        "exec.partitioned_run_ms": (s.get("exec.partitioned_run", 0.0), "ms"),
        "exec.instances": (c["exec.vm.instances"] + c["exec.native.instances"]
                           + c["exec.par.instances"], "count"),
        "pipeline.self_ms": (s.get("pipeline", 0.0), "ms"),
    }
    g = generated_metrics(r) if "native_ms" in r else {}
    m["kernel_ms_geomean"] = (g.get("kernel_ms_geomean", 0.0), "ms")
    m["top1_speedup"] = (g.get("top1_speedup", 0.0), "x")
    m["parallel_speedup"] = (g.get("parallel_speedup", 0.0), "x")
    return m


# Work counts recorded per workload in ledger.json, by metric name.
RECORDED = ("candidates", "legal", "verified", "exec.native_compiles",
            "linalg.fm_eliminations", "model.estimates", "codegen.output_nodes")


def recorded_counts(r, layer):
    o = r["outcomes"].values()
    return {"candidates": sum(x["candidates"] for x in o),
            "legal": sum(x["legal"] for x in o),
            "verified": sum(x["verified"] for x in o),
            **{k: layer[k][0] for k in RECORDED[3:]}}


def trace_report(r, layer, ledger, workload, checks):
    wall_ms = 1e3 * statistics.mean(r["traced_s"])
    spans_ms = sum(r["self_ms"].values())
    checks.append((abs(spans_ms - wall_ms) <= 1e-6 * wall_ms + 1e-3,
                   f"span self times {spans_ms:.3f} ms do not add up to the "
                   f"traced wall {wall_ms:.3f} ms"))
    print(f"traced iterations: {r['iterations']} at threads=1 "
          f"(exec threads {r['exec_threads']}); spans in {r['spans_file']}")
    print(f"{'layer span':<24}{'self ms/iter':>14}{'share':>9}")
    for name, ms in sorted(r["self_ms"].items(), key=lambda kv: -kv[1]):
        print(f"{name:<24}{ms:>14.3f}{100 * ms / wall_ms:>8.1f}%")
    untraced = 1e3 * statistics.median(r["untraced_s"])
    traced = 1e3 * statistics.median(r["traced_s"])
    print(f"tracing overhead: traced {traced:.1f} ms - untraced {untraced:.1f} "
          f"ms (threads=1) = {traced - untraced:+.1f} ms per iteration")
    counts = recorded_counts(r, layer)
    want = ledger["workloads"][workload].get("counts", {})
    same = counts == want
    print(f"work counts {json.dumps(counts)}: "
          + ("equal to the recorded ones" if same else
             f"differ from the recorded {json.dumps(want)}"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    with open(HERE / "ledger.json") as f:
        ledger = json.load(f)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT),
           "--out", str(out / "perfbench-out"), "--threads", str(THREADS)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    r = json.loads(lines[-1])

    checks = []
    check_ledger(args.workload, r, ledger, checks)
    print(f"workload {args.workload}: seed {args.seed}, "
          f"threads {r['threads']}, one closed-loop caller")
    if args.trace:
        metrics = per_layer(r)
        trace_report(r, metrics, ledger, args.workload, checks)
    else:
        metrics, extra, notes = end_to_end(r)
        for name, (v, unit) in {**metrics, **extra}.items():
            print(f"{name:<20}{v:>16.6g} {unit}")
        for n in notes:
            print(n)

    attempted = r["attempted"] + len(checks)
    failed = r["failed"] + sum(1 for ok, _ in checks if not ok)
    print(f"error_rate {failed / attempted:.6g} ({failed} failed of "
          f"{attempted} attempted)")
    for msg in r["failures"] + [m for ok, m in checks if not ok]:
        print(f"FAILED: {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
