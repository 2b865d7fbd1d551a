#!/usr/bin/env python3
"""Benchmark regression gate for the BENCH_*.json perf-trajectory files.

Compares a freshly produced benchmark JSON against the committed baseline
and fails (exit 1) when a throughput-style metric dropped by more than the
allowed fraction, or when an incremental-delta row misses the absolute
speedup floor the acceptance criteria promise.

Rows are matched on their identity fields (scenario, database, plan_cache,
simplify, threads_requested, clients, delta_size, direction — whichever
are present),
so a baseline recorded on a machine with a different core count still
matches: `threads_requested` (0 = all cores) is stable while the resolved
`threads` is not.

All failure modes exit with a one-line diagnosis, never a traceback: a
missing baseline file (e.g. a brand-new benchmark whose JSON was not
committed yet), malformed JSON, rows that are not objects, and baseline
metrics absent from the current rows are all reported with what to do
about them.

Usage:
  check_regression.py --baseline BENCH_throughput.json \
      --current build/BENCH_throughput.json [--threshold 0.25]
  check_regression.py --baseline BENCH_throughput.json \
      --current build/BENCH_throughput.json --min-simplify-speedup 1.05
  check_regression.py --baseline BENCH_incremental.json \
      --current build/BENCH_incremental.json --min-speedup 5
  check_regression.py --baseline BENCH_service.json \
      --current build/BENCH_service.json --latency-threshold 1.0
  check_regression.py --baseline BENCH_durability.json \
      --current build/BENCH_durability.json --min-wal-throughput 0.75
"""

import argparse
import json
import sys

# Fields that identify a run (used to match current rows to baseline rows).
KEY_FIELDS = (
    "scenario",
    "database",
    "plan_cache",
    "simplify",
    "threads_requested",
    "clients",
    "delta_size",
    "direction",
    "wal",
    "tail_records",
    "qos",
    "lane",
    "tenants",
)

# Higher-is-better metrics compared against the baseline with the drop
# threshold. speedup_vs_rebuild is deliberately NOT here: machine-ratio
# metrics swing too much across CI hardware for a drop gate; the absolute
# --min-speedup floor (with its wide margin at delta_size 1) guards it.
# deltas_per_second is likewise absent: the WAL-on/WAL-off ratio is gated
# self-relatively by --min-wal-throughput instead, and the absolute rate
# swings with the runner's filesystem.
METRIC_FIELDS = ("queries_per_second",)

# Lower-is-better metrics (tail latency of BENCH_service.json), gated by
# --latency-threshold: the allowed fractional *increase* over the
# baseline. Tail latency is noisier than throughput on shared runners, so
# it gets its own (wider) threshold instead of reusing --threshold.
LATENCY_FIELDS = ("p99_seconds",)


def fail(message):
    """One-line fatal diagnosis (no traceback)."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_rows(path, role):
    """Loads a BENCH_*.json row list with clear failure messages."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except FileNotFoundError:
        hint = ""
        if role == "baseline":
            hint = (" — if this benchmark is new, run it once and commit "
                    "its JSON as the baseline")
        fail(f"no {role} file at '{path}'{hint}")
    except json.JSONDecodeError as e:
        fail(f"{role} file '{path}' is not valid JSON ({e})")
    if not isinstance(rows, list):
        fail(f"{role} file '{path}' must hold a JSON array of rows, "
             f"got {type(rows).__name__}")
    for index, row in enumerate(rows):
        if not isinstance(row, dict):
            fail(f"{role} file '{path}' row {index} must be a JSON object, "
                 f"got {type(row).__name__}")
        if not any(field in row for field in KEY_FIELDS):
            fail(f"{role} file '{path}' row {index} has none of the "
                 f"identity keys {KEY_FIELDS} — wrong file, or the schema "
                 "changed without updating check_regression.py")
    return rows


def metric_value(row, metric, path):
    try:
        return float(row[metric])
    except (TypeError, ValueError):
        fail(f"'{metric}' in '{path}' is not numeric "
             f"(got {row[metric]!r} on [{format_key(row_key(row))}])")


def row_key(row):
    return tuple((field, row[field]) for field in KEY_FIELDS if field in row)


def format_key(key):
    return ", ".join(f"{field}={value}" for field, value in key)


def check_wal_throughput(current_rows, current_path, min_ratio, failures):
    """Self-relative WAL-overhead gate on BENCH_durability.json: for every
    (scenario, database) with both a wal=on and a wal=off throughput row
    in the *current* run, the WAL-on deltas/second must be at least
    `min_ratio` times the WAL-off rate. Self-relative, so the gate holds
    regardless of the runner's absolute disk speed."""
    checks = 0
    by_group = {}
    for row in current_rows:
        if "wal" not in row or "deltas_per_second" not in row:
            continue
        group = tuple((f, row[f]) for f in ("scenario", "database")
                      if f in row)
        by_group.setdefault(group, {})[row["wal"]] = row
    for group, by_wal in by_group.items():
        base = by_wal.get("off")
        gated = by_wal.get("on")
        if base is None or gated is None:
            continue
        base_rate = metric_value(base, "deltas_per_second", current_path)
        if base_rate <= 0:
            continue
        checks += 1
        rate = metric_value(gated, "deltas_per_second", current_path)
        floor = base_rate * min_ratio
        status = "ok" if rate >= floor else "REGRESSION"
        print(f"{status:>10}  WAL overhead: wal-on {rate:.2f} deltas/s vs "
              f"wal-off {base_rate:.2f} (floor {floor:.2f} = "
              f"{min_ratio:.2f}x)  [{format_key(group)}]")
        if rate < floor:
            failures.append(
                f"WAL-on delta throughput is {rate / base_rate:.2f}x the "
                f"WAL-off throughput (< {min_ratio:.2f}x floor) on "
                f"[{format_key(group)}]")
    return checks


def check_flood_p99(current_rows, current_path, max_ratio, failures):
    """Self-relative QoS gate on BENCH_service.json's flood rows: for
    every flood group with an interactive-lane row under both the fair
    scheduler (qos=fair) and the FIFO queue (qos=fifo) in the *current*
    run, the fair interactive p99 must be at most `max_ratio` times the
    FIFO interactive p99. This is the subsystem's reason to exist —
    interactive tail latency bounded under a batch flood — gated
    self-relatively so it holds on any hardware."""
    checks = 0
    by_group = {}
    for row in current_rows:
        if row.get("lane") != "interactive" or "qos" not in row:
            continue
        if "p99_seconds" not in row:
            continue
        group = tuple((f, row[f]) for f in ("scenario", "database",
                                            "threads_requested", "tenants")
                      if f in row)
        by_group.setdefault(group, {})[row["qos"]] = row
    for group, by_qos in by_group.items():
        fifo = by_qos.get("fifo")
        fair = by_qos.get("fair")
        if fifo is None or fair is None:
            continue
        fifo_p99 = metric_value(fifo, "p99_seconds", current_path)
        if fifo_p99 <= 0:
            continue
        checks += 1
        fair_p99 = metric_value(fair, "p99_seconds", current_path)
        ceiling = fifo_p99 * max_ratio
        status = "ok" if fair_p99 <= ceiling else "REGRESSION"
        print(f"{status:>10}  flood p99: fair-queueing interactive "
              f"{fair_p99:.6f}s vs FIFO {fifo_p99:.6f}s (ceiling "
              f"{ceiling:.6f} = {max_ratio:.2f}x)  [{format_key(group)}]")
        if fair_p99 > ceiling:
            failures.append(
                f"interactive p99 under flood is {fair_p99 / fifo_p99:.2f}x "
                f"the FIFO p99 (> {max_ratio:.2f}x ceiling) on "
                f"[{format_key(group)}] — the priority lane stopped "
                "protecting interactive tail latency")
    return checks


def check_simplify_speedup(current_rows, current_path, min_speedup, failures):
    """Self-relative plan-simplification gate on BENCH_throughput.json:
    within the *current* run, compare each cache-enabled simplify=fast row
    against its simplify=off twin (same scenario/database/threads). At
    least two distinct (scenario, database) pairs must show a fast/off q/s
    ratio of at least `min_speedup` — the ISSUE's "improves on >= 2 of the
    six scenarios" acceptance bar, held self-relatively so it gates on any
    hardware. Individual below-floor pairs are informational (small
    formulas can be simplify-neutral); the gate fails only when the
    improvement disappears almost everywhere."""
    checks = 0
    by_group = {}
    for row in current_rows:
        if row.get("plan_cache") is not True or "simplify" not in row:
            continue
        if "queries_per_second" not in row:
            continue
        group = tuple((f, row[f]) for f in ("scenario", "database",
                                            "threads_requested")
                      if f in row)
        by_group.setdefault(group, {})[row["simplify"]] = row
    improved = set()
    compared = set()
    for group, by_mode in sorted(by_group.items()):
        base = by_mode.get("off")
        fast = by_mode.get("fast")
        if base is None or fast is None:
            continue
        base_qps = metric_value(base, "queries_per_second", current_path)
        if base_qps <= 0:
            continue
        checks += 1
        qps = metric_value(fast, "queries_per_second", current_path)
        ratio = qps / base_qps
        scenario = tuple(v for f, v in group if f in ("scenario", "database"))
        compared.add(scenario)
        status = "ok" if ratio >= min_speedup else "below"
        if ratio >= min_speedup:
            improved.add(scenario)
        print(f"{status:>10}  simplify speedup: fast {qps:.2f} q/s vs off "
              f"{base_qps:.2f} ({ratio:.2f}x, floor {min_speedup:.2f}x)  "
              f"[{format_key(group)}]")
    if checks and len(improved) < min(2, len(compared)):
        failures.append(
            f"plan simplification sped up cache-hit serving by >= "
            f"{min_speedup:.2f}x on only {len(improved)} of "
            f"{len(compared)} scenario databases (need >= 2) — the "
            "inprocessing pass stopped paying for itself")
    return checks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json to compare against")
    parser.add_argument("--current", required=True,
                        help="freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional drop per metric "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="absolute floor for speedup_vs_rebuild on "
                             "delta_size == 1 rows of the current file")
    parser.add_argument("--latency-threshold", type=float, default=None,
                        help="max allowed fractional p99-latency increase "
                             "(e.g. 1.0 = p99 may at most double); latency "
                             "fields are ignored when unset")
    parser.add_argument("--min-wal-throughput", type=float, default=None,
                        help="floor for (wal-on deltas/s) / (wal-off "
                             "deltas/s) within the current file; ignored "
                             "when unset")
    parser.add_argument("--min-simplify-speedup", type=float, default=None,
                        help="floor for (plan_simplify=fast q/s) / "
                             "(plan_simplify=off q/s) on the current file's "
                             "cache-enabled rows; at least two scenario "
                             "databases must clear it; ignored when unset")
    parser.add_argument("--max-flood-p99-ratio", type=float, default=None,
                        help="ceiling for (fair-queueing interactive p99) /"
                             " (FIFO interactive p99) on the current file's"
                             " flood rows; ignored when unset")
    args = parser.parse_args()

    baseline_rows = load_rows(args.baseline, "baseline")
    current_rows = load_rows(args.current, "current")

    current_by_key = {row_key(row): row for row in current_rows}
    failures = []
    checks = 0

    for baseline in baseline_rows:
        key = row_key(baseline)
        current = current_by_key.get(key)
        if current is None:
            failures.append(f"baseline row has no current match: "
                            f"[{format_key(key)}] — if the benchmark's "
                            "configurations changed, refresh the committed "
                            "baseline")
            continue
        for metric in METRIC_FIELDS:
            if metric not in baseline:
                continue
            if metric not in current:
                failures.append(
                    f"baseline key '{metric}' is missing from the current "
                    f"row [{format_key(key)}] — the benchmark stopped "
                    "reporting it; update the baseline (or the gate) "
                    "deliberately")
                continue
            base_value = metric_value(baseline, metric, args.baseline)
            new_value = metric_value(current, metric, args.current)
            if base_value <= 0:
                continue
            checks += 1
            floor = base_value * (1.0 - args.threshold)
            status = "ok" if new_value >= floor else "REGRESSION"
            print(f"{status:>10}  {metric}: {new_value:.2f} vs baseline "
                  f"{base_value:.2f} (floor {floor:.2f})  "
                  f"[{format_key(key)}]")
            if new_value < floor:
                failures.append(
                    f"{metric} dropped {100 * (1 - new_value / base_value):.1f}% "
                    f"(> {100 * args.threshold:.0f}% allowed) on "
                    f"[{format_key(key)}]")
        if args.latency_threshold is None:
            continue
        for metric in LATENCY_FIELDS:
            if metric not in baseline or metric not in current:
                continue
            base_value = metric_value(baseline, metric, args.baseline)
            new_value = metric_value(current, metric, args.current)
            if base_value <= 0:
                continue
            checks += 1
            ceiling = base_value * (1.0 + args.latency_threshold)
            status = "ok" if new_value <= ceiling else "REGRESSION"
            print(f"{status:>10}  {metric}: {new_value:.6f} vs baseline "
                  f"{base_value:.6f} (ceiling {ceiling:.6f})  "
                  f"[{format_key(key)}]")
            if new_value > ceiling:
                failures.append(
                    f"{metric} grew {100 * (new_value / base_value - 1):.1f}% "
                    f"(> {100 * args.latency_threshold:.0f}% allowed) on "
                    f"[{format_key(key)}]")

    if args.min_speedup is not None:
        for row in current_rows:
            if row.get("delta_size") != 1 or "speedup_vs_rebuild" not in row:
                continue
            checks += 1
            speedup = metric_value(row, "speedup_vs_rebuild", args.current)
            status = "ok" if speedup >= args.min_speedup else "REGRESSION"
            print(f"{status:>10}  speedup_vs_rebuild floor: {speedup:.2f}x "
                  f"vs required {args.min_speedup:.2f}x "
                  f"[{format_key(row_key(row))}]")
            if speedup < args.min_speedup:
                failures.append(
                    f"speedup_vs_rebuild {speedup:.2f}x misses the "
                    f"{args.min_speedup:.2f}x floor on "
                    f"[{format_key(row_key(row))}]")

    if args.min_wal_throughput is not None:
        checks += check_wal_throughput(current_rows, args.current,
                                       args.min_wal_throughput, failures)

    if args.min_simplify_speedup is not None:
        checks += check_simplify_speedup(current_rows, args.current,
                                         args.min_simplify_speedup, failures)

    if args.max_flood_p99_ratio is not None:
        checks += check_flood_p99(current_rows, args.current,
                                  args.max_flood_p99_ratio, failures)

    if checks == 0:
        print("error: no comparable metrics found "
              "(wrong files, or key fields changed?)", file=sys.stderr)
        return 1
    if failures:
        print(f"\n{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nall {checks} checks passed "
          f"(threshold {100 * args.threshold:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
