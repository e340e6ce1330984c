#!/usr/bin/env python3
"""End-to-end benchmark for PhiGraph: builds the library from source, runs
each workload in its own process and checks every output.

One workload, the way BENCHMARK.json's command runs it (the last stdout
line is the JSON result; --trace 1 reports the per-layer metrics instead of the
end-to-end ones):

    python3 bench/e2e/run.py --workload traverse-small --seed 3 \
        --seconds 10 --trace 0

Every workload, printed as "workload name value unit" lines and saved as one
JSON file (--repeat N runs N sets with seeds S..S+N-1; --trace adds a traced
run of each workload, TRACE_<workload>.json, the per-layer table and the
span self times):

    python3 bench/e2e/run.py --seed 1 [--repeat 5] [--trace] [--out FILE]

Compare two such files against the bounds in BENCHMARK.json:

    python3 bench/e2e/run.py --compare A.json B.json

Smoke test (tiny inputs, every workload traced and untraced, checks on):

    python3 bench/e2e/run.py --smoke [--bin PATH] [--work-dir DIR]

Build products, generated inputs, traces and results go under
$CARGO_TARGET_DIR/e2e when that is set, else .bench_build/e2e, both
relative to the repository root.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ["pagerank-paper", "traverse-small", "cluster-pagerank", "serve-mixed"]
# A single-workload run must end within 900 s when it builds and within
# 180 s otherwise (at the default --seconds).
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
GENERATE_TIMEOUT_S = 60


def measure_timeout_s(seconds):
    """A measuring run spends up to a minute on set-ups, references and
    checks, and a few times --seconds on the timed steps: pagerank-paper
    keeps its last trial even when it overruns, and serve-mixed adds a burst
    after its open-loop step."""
    return 60 + 5 * seconds


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def default_work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "e2e"


def run_child(cmd, timeout, what, capture=False):
    """Runs cmd in its own process group, its stderr passed through and its
    stdout captured or sent to our stderr. On a timeout the whole group
    (compilers under cmake included) is killed and reaped. Returns the
    captured stdout; raises on failure."""
    try:
        p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, text=True,
                             stdout=subprocess.PIPE if capture else sys.stderr,
                             stderr=sys.stderr)
    except OSError as e:
        raise BenchError(f"{what} could not start: {e}")
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        raise BenchError(f"{what} timed out after {timeout} s")
    if p.returncode != 0:
        raise BenchError(f"{what} failed with exit code {p.returncode}")
    return out


def build(work_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no library sources under {ROOT / 'src'}")
    build_dir = work_dir / "build"
    if not (build_dir / "CMakeCache.txt").is_file():
        run_child(["cmake", "-S", str(HERE), "-B", str(build_dir),
                   "-DCMAKE_BUILD_TYPE=Release"], CONFIGURE_TIMEOUT_S,
                  "cmake configure")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_child(["cmake", "--build", str(build_dir), "-j", jobs,
               "--target", "phigraph_bench"], BUILD_TIMEOUT_S, "cmake build")
    binary = build_dir / "phigraph_bench"
    if not binary.is_file():
        raise BenchError(f"build produced no {binary}")
    return binary


def run_workload(binary, work_dir, workload, seed, seconds, trace, tiny=False):
    """Generates the inputs (untimed, own process), then measures in a fresh
    process. Returns the parsed JSON result plus the trace path, if any."""
    graphs = work_dir / "graphs"
    common = [f"--workload={workload}", f"--seed={seed}", f"--graphs={graphs}"]
    if tiny:
        common.append("--tiny")
    run_child([str(binary), "--generate"] + common, GENERATE_TIMEOUT_S,
              f"{workload}: input generation")
    cmd = [str(binary)] + common + [f"--seconds={seconds}"]
    trace_path = None
    if trace:
        trace_dir = work_dir / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"TRACE_{workload}.json"
        cmd.append(f"--trace={trace_path}")
    lines = run_child(cmd, measure_timeout_s(seconds), f"{workload}: run",
                      capture=True).strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: run printed no result")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unreadable result line {lines[-1]!r}")
    result["trace_file"] = str(trace_path) if trace_path else None
    return result


def select(result, names):
    """The named metrics of a result; every one must be present."""
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError(f"{result['workload']}: result lacks {missing}")
    return {n: metrics[n] for n in names}


# ---- one workload (BENCHMARK.json's command) -----------------------------------

def run_one(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    binary = build(default_work_dir())
    result = run_workload(binary, default_work_dir(), args.workload, args.seed,
                          args.seconds, args.trace == 1)
    layer = "per_layer" if args.trace == 1 else "end_to_end"
    metrics = select(result, [m["name"] for m in spec[layer]])
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


# ---- every workload ---------------------------------------------------------------

def span_self_times(trace_file):
    """Per span name: count, total and self milliseconds. Self time is the
    span's duration minus the part of it its children cover."""
    spans = json.loads(Path(trace_file).read_text())["spans"]
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    rows = {}
    for s in spans:
        start, end = s["start_us"], s["end_us"]
        covered, cursor = 0.0, start
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], cursor), min(c["end_us"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        row = rows.setdefault(s["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += (end - start) / 1e3
        row[2] += (end - start - covered) / 1e3
    return rows


def print_trace_report(spec, traced, untraced):
    layer_names = [m["name"] for m in spec["per_layer"]]
    print("\nper-layer metrics (traced run)")
    print(f"{'metric':44s}" + "".join(f"{w:>18s}" for w in traced))
    for name in layer_names:
        cells = []
        for w in traced:
            m = traced[w]["metrics"].get(name)
            cells.append(f"{m['value']:>18.6g}" if m else f"{'-':>18s}")
        unit = next(m["unit"] for m in spec["per_layer"] if m["name"] == name)
        print(f"{name + ' [' + unit + ']':44s}" + "".join(cells))
    for w, res in traced.items():
        base = untraced[w]["metrics"]["op_ms_p50"]["value"]
        delta = res["metrics"]["op_ms_p50"]["value"] / base - 1
        print(f"\n{w}: trace.overhead_frac "
              f"{res['metrics']['trace.overhead_frac']['value']:.3g} "
              f"(measured span cost); op_ms_p50 traced vs untraced run: "
              f"{delta:+.3f} (includes run-to-run drift)")
        rows = span_self_times(res["trace_file"])
        print(f"  {'span':24s}{'count':>8s}{'total ms':>14s}{'self ms':>14s}")
        for name, (count, total, self_ms) in sorted(
                rows.items(), key=lambda kv: -kv[1][2])[:14]:
            print(f"  {name:24s}{count:>8d}{total:>14.2f}{self_ms:>14.2f}")
        print(f"  trace file: {res['trace_file']}")


def suite_run(args):
    spec = load_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    seconds = args.seconds or spec["run_seconds"]
    work_dir = default_work_dir()
    binary = build(work_dir)
    runs = {w: [] for w in WORKLOADS}
    all_correct = True
    for rep in range(args.repeat):
        seed = args.seed + rep
        for w in WORKLOADS:
            t0 = time.time()
            res = run_workload(binary, work_dir, w, seed, seconds, False)
            all_correct &= bool(res["correct"])
            runs[w].append({k: res[k] for k in
                            ("seed", "correct", "attempted", "failed",
                             "metrics")})
            for name in e2e:
                m = res["metrics"][name]
                print(f"{w} {name} {m['value']:.6g} {m['unit']}")
            print(f"{w} failed {res['failed']} of {res['attempted']} "
                  f"(seed {seed}, {time.time() - t0:.1f} s wall)", flush=True)
    if args.trace:
        traced = {}
        for w in WORKLOADS:
            traced[w] = run_workload(binary, work_dir, w, args.seed, seconds,
                                     True)
            all_correct &= bool(traced[w]["correct"])
        untraced = {w: runs[w][0] for w in WORKLOADS}
        print_trace_report(spec, traced, untraced)
    out = Path(args.out) if args.out else (
        work_dir / "results" / f"e2e_seed{args.seed}x{args.repeat}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": seconds,
                               "runs": runs}, indent=1))
    print(f"\nresults: {out}")
    if not all_correct:
        log("correctness check failed; see CHECK FAILED lines above")
    return 0 if all_correct else 1


# ---- compare ------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    spec = load_spec()
    a = json.loads(Path(args.compare[0]).read_text())["runs"]
    b = json.loads(Path(args.compare[1]).read_text())["runs"]
    regressed = False
    print(f"{'workload':18s}{'metric':14s}{'A median [q1, q3]':>34s}"
          f"{'B median [q1, q3]':>34s}{'change':>9s}  verdict")
    for w in [w for w in WORKLOADS if w in a and w in b]:
        for m in spec["end_to_end"]:
            va = [r["metrics"][m["name"]]["value"] for r in a[w]]
            vb = [r["metrics"][m["name"]]["value"] for r in b[w]]
            qa, qb = quartiles(va), quartiles(vb)
            sign = 1 if m["better"] == "lower" else -1
            change = (qb[1] - qa[1]) / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            b_always_better = all(sign * (y - x) < 0 for x in va for y in vb)
            if sign * change > m["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > m["bound"] and not b_always_better:
                verdict = "unresolved (spread wider than bound)"
            else:
                verdict = "ok"
            fa = f"{qa[1]:.5g} [{qa[0]:.4g}, {qa[2]:.4g}]"
            fb = f"{qb[1]:.5g} [{qb[0]:.4g}, {qb[2]:.4g}]"
            print(f"{w:18s}{m['name']:14s}{fa:>34s}{fb:>34s}{change:>+9.3f}"
                  f"  {verdict} (bound {m['bound']})")
        failed = sum(r["failed"] for r in b[w])
        if failed:
            print(f"{w:18s}B has {failed} failed operations")
            regressed = True
    return 1 if regressed else 0


# ---- smoke ----------------------------------------------------------------------------

def smoke(args):
    spec = load_spec()
    work_dir = Path(args.work_dir) if args.work_dir else default_work_dir() / "smoke"
    binary = Path(args.bin) if args.bin else build(default_work_dir())
    ok = True
    for w in WORKLOADS:
        seconds = 2 if w == "serve-mixed" else 0.01
        for trace in (False, True):
            res = run_workload(binary, work_dir, w, 1, seconds, trace, tiny=True)
            layer = "per_layer" if trace else "end_to_end"
            select(res, [m["name"] for m in spec[layer]])
            if trace:
                spans = json.loads(Path(res["trace_file"]).read_text())["spans"]
                ok &= len(spans) > 0
            ok &= bool(res["correct"]) and res["attempted"] > 0
            print(f"{w} trace={int(trace)} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--bin")
    p.add_argument("--work-dir")
    args = p.parse_args()
    try:
        if args.compare:
            return compare(args)
        if args.smoke:
            return smoke(args)
        if args.workload:
            if args.seconds is None:
                args.seconds = load_spec()["run_seconds"]
            return run_one(args)
        return suite_run(args)
    except BenchError as e:
        log(f"run.py: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
