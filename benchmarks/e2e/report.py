"""Compare trajectory points: ``python -m benchmarks.e2e.report A.json
B.json [...]``.

The first file is the base.  One row per (workload, end-to-end metric)
and later file: both values, the ratio with its base, the metric's
bound, and a verdict —

* ``regressed`` / ``improved``: worse / better than the base by more
  than the bound;
* ``unchanged``: within the bound;
* ``unresolved``: the windows of one side's own run (the five equal
  parts of its measured phase) spread wider than the bound (quartile
  distance over median), so the run cannot tell.

Exit status 1 if any row regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for entry in (str(HERE.parents[1]), str(HERE.parents[1] / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.e2e.run import load_spec  # noqa: E402

CALIBRATION_TOLERANCE = 0.10


def window_spread(record: dict, metric: str) -> float:
    """Quartile distance over median of one run's own windows; 0 for a
    metric that is not measured per window."""
    values = record["windows"].get(metric)
    if not values or not statistics.median(values):
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(base: float, value: float, better: str, bound: float,
            spread: float) -> str:
    if spread > bound > 0:
        return "unresolved"
    worse = value - base if better == "lower" else base - value
    limit = bound * abs(base)
    if worse > limit:
        return "regressed"
    if -worse > limit:
        return "improved"
    return "unchanged"


def compare(base: dict, other: dict, label: str, metrics: list[dict]) -> bool:
    """Print the rows of ``other`` against ``base``; True if any
    regressed."""
    a, b = base["calibration_mops"], other["calibration_mops"]
    if abs(a - b) / a > CALIBRATION_TOLERANCE:
        print(f"WARNING: calibration_mops {a:.2f} (base) vs {b:.2f} ({label}) "
              f"differ by {abs(a - b) / a:.0%}: timings are not comparable")
    for key in ("seed", "scale", "seconds"):
        if base[key] != other[key]:
            print(f"WARNING: {key} differs: {base[key]} (base) vs "
                  f"{other[key]} ({label})")
    regressed = False
    print(f"{'workload':<18} {'metric':<28} {'base':>12} {label:>12} "
          f"{'ratio (base)':>22} {'bound':>6}  verdict")
    for name, record in base["workloads"].items():
        if name not in other["workloads"]:
            continue
        theirs = other["workloads"][name]
        for entry in metrics:
            metric, better, bound = entry["name"], entry["better"], entry["bound"]
            old = record["end_to_end"][metric]
            new = theirs["end_to_end"][metric]
            ratio = f"{new / old:.3f}x of {old:.4g}" if old else "n/a of 0"
            spread = max(
                window_spread(record, metric), window_spread(theirs, metric)
            )
            outcome = verdict(old, new, better, bound, spread)
            regressed |= outcome == "regressed"
            print(f"{name:<18} {metric:<28} {old:>12.4f} {new:>12.4f} "
                  f"{ratio:>22} {bound:>6.1%}  {outcome}")
    return regressed


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__)
        return 2
    points = [json.loads(Path(path).read_text()) for path in argv]
    base, *others = points
    metrics = load_spec()["end_to_end"]
    print(f"base: {argv[0]} (commit {base['commit']}, {base['utc']})")
    regressed = False
    for path, other in zip(argv[1:], others):
        print(f"\nagainst: {path} (commit {other['commit']}, {other['utc']})")
        regressed |= compare(base, other, Path(path).stem[:12], metrics)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
