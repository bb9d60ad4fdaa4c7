"""bench_e2e entry point.

There is one measurement procedure, :func:`measure`: build the dataset,
open this workload's copy, warm up, measure a fixed count of ops
untraced and, when asked, 20 % more with spans; check every output.

One measurement, as BENCHMARK.json's ``command`` runs it (last line of
stdout one JSON object; nothing is appended to the trajectory)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
        --trace 0|1

The full run is that same measurement, traced, once per workload, each
in a process of its own; it prints every metric and appends one
trajectory point to ``history/``::

    PYTHONPATH=src python -m benchmarks.e2e.run [--workload NAME]
        [--seed N] [--scale K|tiny] [--repeat N] [--profile WORKLOAD]
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import multiprocessing
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.engine.durability import DurabilityOptions  # noqa: E402

from benchmarks.e2e import dataset as ds  # noqa: E402
from benchmarks.e2e import trace, workloads  # noqa: E402
from benchmarks.e2e.clock import Ruler, loop_seconds  # noqa: E402
from benchmarks.e2e.workloads import FAILED_OPS_SHARE, WORKLOADS  # noqa: E402

HISTORY = HERE / "history"
DEFAULT_SEED = 2008
#: Same-seed repeats must agree on these to the last digit.
EXACT = ("logical_reads_per_op", "wal_bytes_per_op")
#: Layer shares from spans and from cProfile may differ by this much.
PROFILE_TOLERANCE = 0.10
COVERAGE = (0.95, 1.05)
_DEFAULTS = DurabilityOptions()
FLUSH_POLICY = {
    "measured": {
        "group_commit": _DEFAULTS.group_commit,
        "auto_checkpoint_bytes": _DEFAULTS.auto_checkpoint_bytes,
    },
    "load": ds.LOAD_DURABILITY,
}


def load_spec() -> dict:
    """BENCHMARK.json: the one table of workloads, metrics, units and
    bounds.  ``end_to_end`` gains the ninth metric, which the file
    cannot list (see ``workloads.FAILED_OPS_SHARE``)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise SystemExit("BENCHMARK.json and workloads.py name different workloads")
    spec["end_to_end"].append(FAILED_OPS_SHARE)
    return spec


def calibration_mops() -> float:
    """Millions of iterations per second of ``clock``'s pure-Python
    loop: the scalar that says whether two trajectory points ran on
    machines of like speed.  Best of three."""
    return max(2.0 / loop_seconds(2_000_000) for _ in range(3))


def commit_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


# -- the measurement ---------------------------------------------------------


def set_up(name: str, scale: str, seed: int, seconds: float, scratch: Path):
    """Everything before the first warm-up op, timed as ``setup_s``:
    dataset build, this workload's copy, ``Cluster.open``, pool sizing
    and thread placement.  Returns ``(dataset, cluster, ops, info)``."""
    workload = WORKLOADS[name]
    cpus = ds.available_cpus()
    ds.pin_caller(cpus)
    tenants, rows = ds.parse_scale(scale)
    ruler = Ruler()
    dataset = ds.build(scratch / "data", tenants, rows, seed, ruler.lap)
    cluster, placement = ds.open_copy(
        dataset, scratch / "work", cold=workload.cold, cpus=cpus
    )
    ruler.lap()
    # The frozen rate at the default scale and above; proportionally
    # fewer ops on a smaller dataset, so ``--scale tiny`` stays a smoke
    # run.
    default_rows = ds.logical_rows(*ds.parse_scale(ds.DEFAULT_SCALE))
    share = min(1.0, dataset.logical_rows / default_rows)
    ops = max(50, round(workload.rate * seconds * share))
    info = {
        "setup_s": ruler.reference_s,
        "setup_raw_s": ruler.raw_s,
        "tenants": tenants,
        "rows_per_table": rows,
        "logical_rows": dataset.logical_rows,
        "stored_bytes": dataset.stored_bytes,
        "cpus": {"caller": cpus[0] if cpus else None, **placement},
    }
    return dataset, cluster, ops, info


def measure(name: str, scale: str, seed: int, seconds: float, traced: bool):
    """One workload, once, in this process.  Returns the
    ``workloads.RunResult`` and what the set-up found."""
    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        dataset, cluster, ops, info = set_up(name, scale, seed, seconds, scratch)
        result = workloads.run(
            WORKLOADS[name],
            dataset,
            cluster,
            seed,
            ops,
            int(ops * workloads.TRACED_SHARE) if traced else 0,
            setup_s=info["setup_s"],
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return result, info


def report_one(args, spec: dict) -> int:
    """BENCHMARK.json's command: one measurement, one JSON line."""
    result, _ = measure(
        args.workload, args.scale, args.seed, args.seconds, bool(args.trace)
    )
    if args.trace:
        listed, values = spec["per_layer"], result.per_layer
    else:
        # Without the ninth, which is ``failed`` / ``attempted`` here.
        listed, values = spec["end_to_end"][:-1], result.end_to_end
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    metric["name"]: {
                        "value": values[metric["name"]],
                        "unit": metric["unit"],
                    }
                    for metric in listed
                },
            }
        )
    )
    return 0


# -- full run ----------------------------------------------------------------


def run_set(args, spec: dict, names: list[str]) -> tuple[dict, dict]:
    """Every named workload, each measured in a process of its own (so
    ``peak_rss_mb`` is one measurement's, as it is under BENCHMARK.json's
    command); returns the trajectory point and the spans."""
    calibration = calibration_mops()
    print(f"calibration {calibration:.2f} Mops")
    point = {
        "commit": commit_sha(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y%m%dT%H%M%SZ"
        ),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "nproc": len(ds.available_cpus()),
        "connections": ds.SHARDS,
        "python": platform.python_version(),
        "flush_policy": FLUSH_POLICY,
        "private_seams": list(trace.PRIVATE_SEAMS),
        "calibration_mops": calibration,
        "workloads": {},
    }
    spans = {}
    for name in names:
        with concurrent.futures.ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")
        ) as child:
            result, info = child.submit(
                measure, name, args.scale, args.seed, args.seconds, True
            ).result()
        point["workloads"][name] = {
            "ops": result.ops,
            "attempted": result.attempted,
            "failed": result.failed,
            "pool_pages": result.pool_pages,
            **info,
            "end_to_end": result.end_to_end,
            "per_layer": result.per_layer,
            "layer_self_us_per_op": result.layer_self_us,
            "windows": result.windows,
        }
        spans[name] = result.spans
        print_workload(name, result, info, spec)
    return point, spans


def print_workload(name: str, result, info: dict, spec: dict) -> None:
    print(f"\n== {name}: {info['tenants']} tenants x {info['rows_per_table']} "
          f"rows x 10 tables = {info['logical_rows']} rows, "
          f"{info['stored_bytes']} bytes on disk; {result.ops} ops measured, "
          f"{result.failed} failed of {result.attempted} checked, "
          f"pool pages {result.pool_pages}, cores {info['cpus']}")
    for metric in spec["end_to_end"]:
        print(f"  {metric['name']:<36} "
              f"{result.end_to_end[metric['name']]:>14.4f} {metric['unit']:<6}"
              f" bound {metric['bound']:.1%}")
    for metric in spec["per_layer"]:
        print(f"  {metric['name']:<36} "
              f"{result.per_layer[metric['name']]:>14.4f} {metric['unit']}")
    total = sum(result.layer_self_us.values())
    shares = ", ".join(
        f"{layer} {us / total:.0%}"
        for layer, us in sorted(
            result.layer_self_us.items(), key=lambda item: -item[1]
        )
    )
    print(f"  time budget: {shares}")


def append_history(point: dict, spans: dict) -> Path:
    HISTORY.mkdir(exist_ok=True)
    stem = f"{point['commit']}-{point['utc']}"
    path = HISTORY / f"{stem}.json"
    serial = 1
    while path.exists():  # never overwrite a trajectory point
        serial += 1
        path = HISTORY / f"{stem}-{serial}.json"
    path.write_text(json.dumps(point, indent=2) + "\n")
    path.with_suffix(".spans.json").write_text(json.dumps(spans))
    return path


def check_trace(point: dict) -> list[str]:
    problems = []
    for name, record in point["workloads"].items():
        coverage = record["per_layer"]["trace.coverage_ratio"]
        if not COVERAGE[0] <= coverage <= COVERAGE[1]:
            problems.append(
                f"{name}: trace.coverage_ratio {coverage:.3f} outside "
                f"{COVERAGE[0]}-{COVERAGE[1]}"
            )
        if record["failed"]:
            problems.append(f"{name}: {record['failed']} failed ops")
    return problems


def compare_repeats(points: list[dict], spec: dict) -> list[str]:
    """The noise self-check: the same code and seed twice must agree
    within each metric's own bound, and exactly on the EXACT counts."""
    problems = []
    first, *others = points
    print("\n== repeat spread (largest |a - b| / a over the repeats)")
    for name, record in first["workloads"].items():
        for metric in spec["end_to_end"]:
            metric_name = metric["name"]
            bound = 0.0 if metric_name in EXACT else metric["bound"]
            base = record["end_to_end"][metric_name]
            values = [
                other["workloads"][name]["end_to_end"][metric_name]
                for other in others
            ]
            # Against a base of 0 any other value is all the way off.
            spread = max(
                abs(value - base) / base if base else float(value != 0)
                for value in values
            )
            verdict = "ok" if spread <= bound else "OUTSIDE BOUND"
            print(f"  {name:<18} {metric_name:<28} {spread:>8.2%}  "
                  f"bound {bound:.1%}  {verdict}")
            if spread > bound:
                problems.append(f"{name}.{metric_name}: {spread:.2%} > {bound:.1%}")
    return problems


def profile(args) -> int:
    """One traced measurement with cProfile running too: the two views
    of where the time goes must agree (README.md says what is compared)."""
    scratch_root = HERE / ".work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        dataset, cluster, ops, info = set_up(
            args.profile, args.scale, args.seed, args.seconds, scratch
        )
        profiler = trace.Profiler(cluster)
        result = workloads.run(
            WORKLOADS[args.profile], dataset, cluster, args.seed,
            int(ops * workloads.TRACED_SHARE), ops,
            setup_s=info["setup_s"], wrap=profiler,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from_profile = trace.compared_shares(profiler.layer_seconds(result.traced_client_s))
    from_spans = trace.compared_shares(result.layer_self_us)
    print(f"== {args.profile}: share of client-observed time by layer")
    worst = 0.0
    for layer in trace.COMPARED_LAYERS:
        gap = abs(from_spans[layer] - from_profile[layer])
        worst = max(worst, gap)
        print(f"  {layer:<13} spans {from_spans[layer]:>6.1%}  "
              f"cProfile {from_profile[layer]:>6.1%}  gap {gap:>5.1%}")
    if worst > PROFILE_TOLERANCE:
        print(f"FAIL: a layer's share differs by more than "
              f"{PROFILE_TOLERANCE:.0%}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--scale", default=ds.DEFAULT_SCALE)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--profile", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return report_one(args, spec)
    if args.profile:
        return profile(args)
    names = [args.workload] if args.workload else list(WORKLOADS)
    # Only the whole set at the recorded size belongs to the trajectory;
    # a smoke or partial run is not comparable with its points.
    recorded = (
        args.workload is None
        and args.scale == ds.DEFAULT_SCALE
        and args.seconds == spec["run_seconds"]
    )
    points, problems = [], []
    for _ in range(args.repeat):
        point, spans = run_set(args, spec, names)
        if recorded:
            print(f"\ntrajectory point: {append_history(point, spans)}")
        problems += check_trace(point)
        points.append(point)
    if len(points) > 1:
        problems += compare_repeats(points, spec)
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
