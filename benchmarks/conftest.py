"""Shared fixtures for the benchmark suite.

Each ``bench_*`` module regenerates one of the paper's tables or
figures: it runs the corresponding experiment harness on the simulated
substrate, prints the reproduced rows/series, writes them under
``benchmarks/results/``, and asserts the *shape* claims the paper makes
(who wins, roughly by what factor, where crossovers fall).  The
``benchmark`` fixture additionally wall-clock-times the core operation
of each experiment so ``pytest benchmarks/ --benchmark-only`` yields
real timings of this implementation.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import shutil
import tempfile

import pytest

from repro.experiments.chunkqueries import (
    ChunkQueryConfig,
    ChunkQueryExperiment,
    PAPER_WIDTHS,
)

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Scaled-down Experiment 2 dataset (paper: 10,000 x 100; DESIGN.md §2).
BENCH_CONFIG = ChunkQueryConfig(parents=60, children_per_parent=6)

#: Q2 scale factors measured (paper sweeps 0..90 in steps of 6).
BENCH_SCALES = (3, 15, 30, 45, 60, 75, 90)


@pytest.fixture(scope="session")
def report():
    """Print a reproduced table/series and persist it."""

    def _report(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print()
        print(text)

    return _report


class _ExperimentPool:
    """Lazily built, session-cached Experiment 2 layouts."""

    def __init__(self) -> None:
        self._experiments: dict[str, ChunkQueryExperiment] = {}
        self._measurements: dict[tuple, object] = {}
        self._base_dir: str | None = None

    def _config(self, label: str) -> ChunkQueryConfig:
        """The paper flushed "the database buffer pool and the disk
        cache between every run", so Experiment 2 runs on the
        disk-backed pager — cold-cache physical reads are real file
        reads."""
        if self._base_dir is None:
            self._base_dir = tempfile.mkdtemp(prefix="repro-bench-")
        return dataclasses.replace(
            BENCH_CONFIG, db_path=os.path.join(self._base_dir, label)
        )

    def cleanup(self) -> None:
        if self._base_dir is not None:
            shutil.rmtree(self._base_dir, ignore_errors=True)

    def experiment(self, label: str) -> ChunkQueryExperiment:
        if label not in self._experiments:
            config = self._config(label)
            if label == "conventional":
                exp = ChunkQueryExperiment("private", config)
            elif label.endswith("-vp"):
                width = int(label[len("chunk") : -len("-vp")])
                exp = ChunkQueryExperiment(
                    "chunk", config, width=width, folded=False
                )
            else:
                width = int(label[len("chunk") :])
                exp = ChunkQueryExperiment("chunk", config, width=width)
            exp.load()
            self._experiments[label] = exp
        return self._experiments[label]

    def measure(self, label: str, scale: int, *, cold: bool = False):
        key = (label, scale, cold)
        if key not in self._measurements:
            self._measurements[key] = self.experiment(label).measure(
                scale, cold=cold
            )
        return self._measurements[key]


@pytest.fixture(scope="session")
def pool():
    instance = _ExperimentPool()
    yield instance
    instance.cleanup()


def chunk_labels() -> list[str]:
    return [f"chunk{w}" for w in PAPER_WIDTHS]
