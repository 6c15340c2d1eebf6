#!/usr/bin/env python3
"""Guard against simulator-throughput regressions.

Compares a freshly produced ``glifs.bench_report.v1`` JSON (the
``bench_sim_throughput`` output) against the committed baseline
``BENCH_sim_throughput.json`` and fails when any shared
``cycles_per_sec`` row dropped by more than the threshold (default
30%).

Raw rates are machine-dependent, so for cross-machine use (CI runners
vs the machine that committed the baseline) pass ``--normalize-by
<row>``: every fresh rate is scaled by ``baseline[row] / fresh[row]``
before comparison, cancelling the overall speed difference while
still catching *relative* regressions -- e.g. the compiled simulator
losing its edge over the reference interpreter.

Exit code 0 when within budget, 1 on regression or malformed input.
"""

import argparse
import json
import sys


def load_rates(path):
    """Return {row name: cycles_per_sec} from a bench report."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "glifs.bench_report.v1":
        raise ValueError(f"{path}: not a glifs.bench_report.v1 file")
    rates = {}
    for row in doc.get("results", []):
        rate = row.get("cycles_per_sec")
        if isinstance(rate, (int, float)) and rate > 0:
            rates[row["name"]] = float(rate)
    if not rates:
        raise ValueError(f"{path}: no cycles_per_sec rows")
    return rates


def compare(baseline, fresh, threshold, normalize_by=None):
    """Yield (name, base, scaled_fresh, ok) for every shared row."""
    scale = 1.0
    if normalize_by is not None:
        if normalize_by not in baseline or normalize_by not in fresh:
            raise ValueError(
                f"--normalize-by row {normalize_by!r} missing from "
                "baseline or fresh report")
        scale = baseline[normalize_by] / fresh[normalize_by]
    for name in sorted(baseline):
        if name not in fresh:
            continue
        base = baseline[name]
        got = fresh[name] * scale
        yield name, base, got, got >= base * (1.0 - threshold)


def self_test():
    base = {"a": 100.0, "b": 200.0, "norm": 1000.0}
    ok_fresh = {"a": 90.0, "b": 250.0, "norm": 1000.0}
    bad_fresh = {"a": 60.0, "b": 250.0, "norm": 1000.0}
    rows = list(compare(base, ok_fresh, 0.30))
    assert all(ok for _, _, _, ok in rows), rows
    rows = list(compare(base, bad_fresh, 0.30))
    assert [ok for _, _, _, ok in rows] == [False, True, True], rows
    # Normalization cancels a uniformly slower machine...
    slow = {k: v / 3.0 for k, v in base.items()}
    rows = list(compare(base, slow, 0.30, normalize_by="norm"))
    assert all(ok for _, _, _, ok in rows), rows
    # ...but still catches a relative regression.
    slow["a"] /= 2.0
    rows = list(compare(base, slow, 0.30, normalize_by="norm"))
    assert [ok for n, _, _, ok in rows if n == "a"] == [False], rows
    # Rows missing on either side are skipped, not errors.
    assert len(list(compare(base, {"a": 100.0, "norm": 1.0}, 0.3))) == 2
    print("check_bench_regression: self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed bench report")
    ap.add_argument("--fresh", help="freshly produced bench report")
    ap.add_argument("--threshold", type=float, default=0.30,
                    help="max allowed fractional drop (default 0.30)")
    ap.add_argument("--normalize-by", metavar="ROW",
                    help="scale fresh rates so this row matches the "
                         "baseline (cross-machine comparison)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the built-in unit checks and exit")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    if not args.baseline or not args.fresh:
        ap.error("--baseline and --fresh are required")

    try:
        baseline = load_rates(args.baseline)
        fresh = load_rates(args.fresh)
        rows = list(compare(baseline, fresh, args.threshold,
                            args.normalize_by))
    except (OSError, ValueError, KeyError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 1

    failures = 0
    for name, base, got, ok in rows:
        delta = (got - base) / base * 100.0
        flag = "ok" if ok else "REGRESSION"
        print(f"{flag:>10}  {name:40s} {base:12.0f} -> {got:12.0f} "
              f"({delta:+.1f}%)")
        failures += not ok
    if not rows:
        print("check_bench_regression: no shared cycles_per_sec rows",
              file=sys.stderr)
        return 1
    if failures:
        print(f"check_bench_regression: {failures} row(s) regressed "
              f"beyond {args.threshold:.0%}", file=sys.stderr)
        return 1
    print(f"check_bench_regression: {len(rows)} row(s) within "
          f"{args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
