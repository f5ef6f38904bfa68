#!/usr/bin/env python3
"""Bench regression guard for bench-smoke CI.

The fresh run and the baseline must have been taken at the same bench scale
(the "scale" field, PERFISO_BENCH_SCALE): a reduced-scale run reads a
different normalized ratio (the engine row read 13-18x at scale 0.05 and
5-7x at scale 1 on one machine), so runs at different scales are not
comparable. Then two checks against the committed baseline, both required:

1. Coverage: every row and every metric present in the baseline must also be
   present in the fresh run. Only the guarded row was ever read before, so a
   bench that silently stopped producing a row (or renamed a metric) slipped
   through as a "pass" — a vanished row is a coverage regression, not a pass.

2. Throughput: the guarded metrics of --row (default: engine_throughput's
   pooled_events_per_sec and cancel_pairs_per_sec) must not drop by more
   than --max-drop (default 15%).

Absolute events-per-second numbers track the machine as much as the code, so
CI passes --normalize-key: both sides are divided by the named same-row
metric measured in the same process (legacy_events_per_sec for the engine
row; events_per_sec_t1 for the cluster-scale row), turning the guard into
"the relative advantage must not shrink". That removes most, not all, of the
machine: the ratio itself moves with CPU generation and cache sizes (the
engine row's pooled/legacy ratio read 7.7x where its first baseline was
recorded and 5.1-6.4x on a 4-vCPU VM at that same commit), so a baseline
is only exact on hardware like the one that recorded it. Run without
--normalize-key for same-machine A/B comparisons.

Standard library only; exit code 0 = pass, 1 = regression or lost coverage,
2 = usage error.
"""

import argparse
import json
import sys

DEFAULT_ROW = "engine_throughput"
DEFAULT_METRICS = "pooled_events_per_sec,cancel_pairs_per_sec"


def load_rows(path):
    """Returns (scale, {label: metrics-dict}) for a BENCH_*.json."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        sys.exit(f"error: cannot read {path}: {err}")
    rows = {}
    for row in doc.get("rows", []):
        label = row.get("label")
        if label is not None:
            rows[label] = row.get("metrics", {})
    return doc.get("scale"), rows


def coverage_failures(baseline, fresh, fresh_path):
    """Every baseline row and metric must still exist in the fresh run."""
    failures = []
    for label, base_metrics in baseline.items():
        if label not in fresh:
            failures.append(f"{fresh_path} no longer produces row '{label}'")
            continue
        missing = sorted(set(base_metrics) - set(fresh[label]))
        if missing:
            failures.append(
                f"{fresh_path} row '{label}' lost metric(s): {', '.join(missing)}")
    return failures


def guarded_value(metrics, row, key, normalize_key, path):
    if key not in metrics:
        sys.exit(f"error: {path} row '{row}' lacks guarded metric '{key}'")
    value = float(metrics[key])
    if normalize_key is None:
        return value
    if normalize_key not in metrics:
        sys.exit(f"error: {path} row '{row}' lacks normalize key '{normalize_key}'")
    denom = float(metrics[normalize_key])
    if denom <= 0:
        sys.exit(f"error: {path} normalize key '{normalize_key}' is not positive")
    return value / denom


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="just-produced BENCH_*.json")
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--row", default=DEFAULT_ROW,
                        help=f"row label to guard for drops (default {DEFAULT_ROW})")
    parser.add_argument("--metrics", default=DEFAULT_METRICS,
                        help="comma-separated metric keys to guard for drops "
                             f"(default {DEFAULT_METRICS})")
    parser.add_argument("--max-drop", type=float, default=0.15,
                        help="maximum tolerated fractional drop (default 0.15)")
    parser.add_argument("--normalize-key", default=None,
                        help="divide guarded metrics by this same-row metric on both "
                             "sides (e.g. legacy_events_per_sec) before comparing")
    args = parser.parse_args()
    if not 0 <= args.max_drop < 1:
        parser.error("--max-drop must be in [0, 1)")
    guarded_metrics = [m for m in args.metrics.split(",") if m]
    if not guarded_metrics:
        parser.error("--metrics must name at least one metric")

    fresh_scale, fresh = load_rows(args.fresh)
    base_scale, baseline = load_rows(args.baseline)
    if fresh_scale != base_scale:
        print(f"FAIL: {args.fresh} ran at scale {fresh_scale} but {args.baseline} "
              f"was recorded at scale {base_scale}; runs at different scales are "
              f"not comparable", file=sys.stderr)
        return 1
    if args.row not in baseline:
        sys.exit(f"error: {args.baseline} has no '{args.row}' row")
    if args.row not in fresh:
        sys.exit(f"error: {args.fresh} has no '{args.row}' row")

    failures = coverage_failures(baseline, fresh, args.fresh)
    for line in failures:
        print(f"coverage: {line}", file=sys.stderr)

    for key in guarded_metrics:
        fresh_v = guarded_value(fresh[args.row], args.row, key, args.normalize_key,
                                args.fresh)
        base_v = guarded_value(baseline[args.row], args.row, key, args.normalize_key,
                               args.baseline)
        if base_v <= 0:
            sys.exit(f"error: baseline {key} is not positive")
        change = fresh_v / base_v - 1.0
        unit = f" (normalized by {args.normalize_key})" if args.normalize_key else ""
        print(f"{key}{unit}: baseline {base_v:.4g}, fresh {fresh_v:.4g} ({change:+.1%})")
        if change < -args.max_drop:
            failures.append(f"{key} dropped {-change:.1%} (> {args.max_drop:.0%})")

    if failures:
        print(f"FAIL: {len(failures)} check(s) failed against the committed baseline",
              file=sys.stderr)
        return 1
    print(f"OK: full baseline coverage; guarded metrics within {args.max_drop:.0%} "
          f"of the committed baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
