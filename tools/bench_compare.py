#!/usr/bin/env python3
"""Diff two PhiGraph bench JSON files and fail on perf regressions.

Compares the per-version modeled times (exec_s, comm_s) of a candidate
BENCH_*.json against a baseline, plus — when both files carry per-superstep
"phases" tables (emitted by every bench) — the per-phase host-seconds totals.
Exits non-zero when any version regressed by more than the threshold, so CI
can gate on it; use --warn-only while baselines are still host-dependent.

Usage:
    bench_compare.py baseline.json candidate.json [--threshold PCT]
                     [--phase-threshold PCT] [--min-seconds S] [--warn-only]

The tool knows no field names: the bench emitter writes every object from
its struct's field list, and the baseline is the schema. Two rules are
errors (exit 2, even under --warn-only):
  * every key of a baseline object exists in the candidate's matching
    object with the same JSON type — versions are matched by name, list
    rows by position, and an error names the key's full path (e.g.
    versions[CPU Lock].phases[0].generate), so a renamed or dropped field
    cannot silently disarm a check,
  * every counter in a baseline version's "totals" equals the candidate's:
    "totals" holds only counters that are a pure function of graph, program
    and config, so a drifting counter means the workload changed and the
    timing comparison is meaningless.

Timing semantics:
  * versions present on only one side are reported but never fail the
    comparison (the benches, not this tool, decide the version set),
  * a regression is candidate > baseline * (1 + threshold/100),
  * times below --min-seconds are skipped (pure noise at tiny scales),
  * the per-phase totals sum every key of the baseline's phase rows except
    the row index.
"""

from __future__ import annotations

import argparse
import json
import sys

# Key of a phase row that numbers the superstep rather than timing a phase.
PHASE_ROW_INDEX = "superstep"


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot load {path}: {e}")


def versions_by_name(doc: dict, path: str) -> dict[str, dict]:
    versions = doc.get("versions")
    if not isinstance(versions, list):
        sys.exit(f"bench_compare: {path} has no 'versions' array")
    out = {}
    for v in versions:
        name = v.get("name") if isinstance(v, dict) else None
        if not isinstance(name, str):
            sys.exit(f"bench_compare: {path} has a version without a name")
        out[name] = v
    return out


def json_type(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


def check_value(base: object, cand: object, path: str, errors: list[str]) -> None:
    """The key rule: every key of a baseline object exists in the
    candidate's matching object with the same JSON type, recursively.
    Versions are matched by name (a version on one side only is a note,
    not an error), other list rows by position."""
    if json_type(cand) != json_type(base):
        errors.append(
            f"{path} is a {json_type(base)} in the baseline but a "
            f"{json_type(cand)} in the candidate"
        )
    elif isinstance(base, dict):
        for key, value in base.items():
            sub = f"{path}.{key}" if path else key
            if key in cand:
                check_value(value, cand[key], sub, errors)
            else:
                errors.append(
                    f"{sub} is in the baseline but not the candidate — "
                    f"renamed or dropped?"
                )
    elif isinstance(base, list) and path == "versions":
        named = {v.get("name"): v for v in cand if isinstance(v, dict)}
        for v in base:
            name = v.get("name") if isinstance(v, dict) else None
            if name in named:
                check_value(v, named[name], f"versions[{name}]", errors)
    elif isinstance(base, list):
        for i, value in enumerate(base):
            if i < len(cand):
                check_value(value, cand[i], f"{path}[{i}]", errors)
            else:
                errors.append(
                    f"{path}[{i}] is in the baseline but not the candidate"
                )


def number(version: dict, key: str) -> float | None:
    value = version.get(key)
    return float(value) if json_type(value) == "number" else None


def phase_totals(rows: object, keys: list[str]) -> dict[str, float]:
    rows = rows if isinstance(rows, list) else []
    return {
        k: sum(float(r[k]) for r in rows
               if isinstance(r, dict) and json_type(r.get(k)) == "number")
        for k in keys
    }


class Report:
    def __init__(self) -> None:
        self.regressions: list[str] = []
        self.errors: list[str] = []
        self.notes: list[str] = []

    def compare_time(
        self,
        label: str,
        base: float | None,
        cand: float | None,
        threshold_pct: float,
        min_seconds: float,
    ) -> None:
        if base is None or cand is None:
            return  # a missing or non-numeric time is a key-rule error
        if base < min_seconds and cand < min_seconds:
            return
        limit = base * (1.0 + threshold_pct / 100.0)
        delta_pct = 100.0 * (cand - base) / base if base > 0 else float("inf")
        line = f"{label}: {base:.6f}s -> {cand:.6f}s ({delta_pct:+.1f}%)"
        if cand > limit:
            self.regressions.append(line + f"  [> +{threshold_pct:g}% limit]")
        elif cand < base:
            self.notes.append(line + "  [improved]")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--threshold",
        type=float,
        default=10.0,
        metavar="PCT",
        help="max allowed exec_s/comm_s growth in percent (default 10)",
    )
    ap.add_argument(
        "--phase-threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="max allowed per-phase host-seconds growth in percent "
        "(default 25; host phase times are noisier than modeled times)",
    )
    ap.add_argument(
        "--min-seconds",
        type=float,
        default=1e-4,
        metavar="S",
        help="ignore times where both sides are below S (default 1e-4)",
    )
    ap.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (for noisy/shared CI hosts)",
    )
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cand_doc = load(args.candidate)
    base_vs = versions_by_name(base_doc, args.baseline)
    cand_vs = versions_by_name(cand_doc, args.candidate)

    rep = Report()
    check_value(base_doc, cand_doc, "", rep.errors)
    for key in ("figure", "app", "scale"):
        if base_doc.get(key) != cand_doc.get(key):
            rep.errors.append(
                f"{key} mismatch: baseline={base_doc.get(key)!r} "
                f"candidate={cand_doc.get(key)!r}"
            )

    for name in base_vs:
        if name not in cand_vs:
            rep.notes.append(f"version only in baseline: {name}")
    for name in cand_vs:
        if name not in base_vs:
            rep.notes.append(f"version only in candidate: {name}")

    for name in sorted(set(base_vs) & set(cand_vs)):
        b, c = base_vs[name], cand_vs[name]
        bt, ct = b.get("totals"), c.get("totals")
        if isinstance(bt, dict) and isinstance(ct, dict):
            for counter, value in bt.items():
                if counter in ct and ct[counter] != value:
                    rep.errors.append(
                        f"versions[{name}].totals.{counter}: workload drift "
                        f"{value} -> {ct[counter]} (same scale should give "
                        f"identical counters; timings are not comparable)"
                    )

        for key in ("exec_s", "comm_s"):
            rep.compare_time(
                f"{name} {key}",
                number(b, key),
                number(c, key),
                args.threshold,
                args.min_seconds,
            )

        rows = b.get("phases")
        if isinstance(rows, list) and rows and isinstance(rows[0], dict):
            keys = [k for k in rows[0] if k != PHASE_ROW_INDEX]
            bp = phase_totals(rows, keys)
            cp = phase_totals(c.get("phases"), keys)
            for k in keys:
                rep.compare_time(
                    f"{name} phase:{k}",
                    bp[k],
                    cp[k],
                    args.phase_threshold,
                    args.min_seconds,
                )

    for line in rep.notes:
        print(f"  note: {line}")
    for line in rep.errors:
        print(f"  ERROR: {line}")
    for line in rep.regressions:
        print(f"  REGRESSION: {line}")

    if rep.errors:
        print(f"bench_compare: {len(rep.errors)} error(s)")
        return 2
    if rep.regressions:
        print(f"bench_compare: {len(rep.regressions)} regression(s)")
        if args.warn_only:
            print("bench_compare: --warn-only set; exiting 0")
            return 0
        return 1
    print("bench_compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
