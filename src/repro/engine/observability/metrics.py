"""The metrics registry: how a counter is stored, exported and differenced.

The paper's experiments are all *measurements* — Table 2's hit ratios,
Figure 10's logical page reads, the response-time quantiles of the
testbed — so every counter the engine maintains is exported through one
named registry (``db.metrics``), in the layered-metrics style of the
FoundationDB Record Layer.  One mechanism, three roles:

* **storage** — a component keeps the events it counts as plain fields
  of a :class:`CounterSet` dataclass: one attribute increment per
  event, written nowhere else.  One-off events keep a :class:`Counter`
  / :class:`Gauge` / :class:`Histogram` bound once at construction.
* **read** — :meth:`MetricsRegistry.attach` exports those live fields
  under registry names; ``value`` / ``snapshot`` / ``render`` /
  ``names`` are the one read surface for every number.
* **difference** — :meth:`CounterSet.snapshot` / :meth:`CounterSet.delta`
  (several sets at once: :class:`CounterWindow`) are the only
  before/after primitive; ``db.trace`` is built on them.

Naming convention: dotted lowercase paths, ``<subsystem>.<detail>``,
e.g. ``pool.data.logical_reads`` or ``locks.wait_ms``.  Histogram names
end in a unit suffix (``_ms``, ``_rows``) where applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from ..errors import EngineError

#: Histograms keep at most this many samples; beyond it the reservoir is
#: deterministically decimated (every second sample kept, stride
#: doubled) so long runs stay bounded without losing the distribution's
#: shape.  Count / sum / min / max stay exact regardless.
HISTOGRAM_RESERVOIR = 8192


@dataclass
class CounterSet:
    """Base of the per-component stats dataclasses (``PoolStats``,
    ``ExecStats``, ``LockStats``, ``WalStats``, ...): every field is a
    number the component increments in place, on the instance it got
    from :meth:`MetricsRegistry.counter_set`."""

    #: field -> exported registry name: ``<prefix>.<field>`` for a
    #: subclass declared with ``prefix=``, else spelled out by it.
    EXPORTED: ClassVar[dict[str, str]] = {}

    def __init_subclass__(cls, prefix: str | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if prefix is not None:
            cls.EXPORTED = {
                name: f"{prefix}.{name}" for name in cls.__annotations__
            }

    def snapshot(self):
        """A frozen copy to difference against later."""
        return type(self)(**vars(self))

    def delta(self, earlier):
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return type(self)(
            **{k: v - getattr(earlier, k) for k, v in vars(self).items()}
        )


class CounterWindow:
    """Several counter sets differenced together: snapshots them on
    construction, :meth:`deltas` is what each accumulated since."""

    def __init__(self, **ledgers: CounterSet) -> None:
        self._ledgers = ledgers
        self._before = {
            name: ledger.snapshot() for name, ledger in ledgers.items()
        }

    def deltas(self) -> dict[str, CounterSet]:
        return {
            name: ledger.delta(self._before[name])
            for name, ledger in self._ledgers.items()
        }


class Attached:
    """A live attribute of an object its owner increments, exported
    read-only under a registry name."""

    __slots__ = ("name", "_owner", "_attribute")

    def __init__(self, name: str, owner: object, attribute: str) -> None:
        self.name = name
        self._owner = owner
        self._attribute = attribute

    @property
    def value(self) -> float:
        return getattr(self._owner, self._attribute)


class Counter:
    """A monotonically non-decreasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise EngineError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A value that can move both ways (e.g. resident page count)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Sampled distribution with exact count/sum/min/max and approximate
    percentiles from a deterministic bounded reservoir."""

    __slots__ = ("name", "count", "total", "min", "max", "_samples", "_stride", "_seen")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._samples: list[float] = []
        self._stride = 1
        self._seen = 0  # observations since the last kept sample

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._seen += 1
        if self._seen >= self._stride:
            self._seen = 0
            self._samples.append(value)
            if len(self._samples) > HISTOGRAM_RESERVOIR:
                # Decimate deterministically: keep every second sample.
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the reservoir; 0.0 when empty."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = math.ceil(p / 100 * len(ordered))
        return ordered[max(0, min(len(ordered) - 1, rank - 1))]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named metrics for one database instance.

    ``counter`` / ``gauge`` / ``histogram`` get-or-create, so callers
    never need to pre-register; asking for an existing name with a
    different type is an error — in particular for a name ``attach``
    exported, so no second ledger can be opened beside the owner's.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram | Attached] = {}
        self._sets: dict[type, CounterSet] = {}

    def _get_or_create(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise EngineError(
                f"metric {name!r} is a {type(metric).__name__}, "
                f"not a {cls.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)

    def attach(self, owner, names: dict[str, str]):
        """Export ``owner``'s attributes (``{attribute: exported name}``:
        the fields of a :class:`CounterSet`, or a component's size as a
        gauge), read live by ``value`` / ``snapshot`` / ``render``.
        Returns ``owner``."""
        for attribute, name in names.items():
            if name in self._metrics:
                raise EngineError(f"metric {name!r} is already registered")
            self._metrics[name] = Attached(name, owner, attribute)
        return owner

    def counter_set(self, cls: type[CounterSet]) -> CounterSet:
        """Get-or-create, like ``counter``: the registry's one ``cls``
        instance, attached under ``cls.EXPORTED`` on first use.  Every
        structure that counts into it (each B-tree and heap file of a
        database, its executor) increments the same ledger."""
        found = self._sets.get(cls)
        if found is None:
            found = self._sets[cls] = self.attach(cls(), cls.EXPORTED)
        return found

    def get(self, name: str):
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (histograms: the count)."""
        metric = self._metrics.get(name)
        if metric is None:
            return default
        if isinstance(metric, Histogram):
            return metric.count
        return metric.value

    def _read(self, name: str):
        metric = self._metrics[name]
        return metric.summary() if isinstance(metric, Histogram) else metric.value

    def snapshot(self) -> dict:
        """A plain-dict view: scalars for counters/gauges, summary dicts
        for histograms.  Suitable for JSON export or diffing."""
        return {name: self._read(name) for name in self.names()}

    def render(self, prefix: str = "") -> str:
        """Plain-text dump of every metric under ``prefix``."""
        lines: list[str] = []
        for name in self.names():
            if prefix and not name.startswith(prefix):
                continue
            value = self._read(name)
            if isinstance(value, dict):
                lines.append(
                    f"{name}  count={value['count']} mean={value['mean']:.3f} "
                    f"p50={value['p50']:.3f} p95={value['p95']:.3f} "
                    f"p99={value['p99']:.3f} max={value['max']:.3f}"
                )
            else:
                text = f"{value:g}" if isinstance(value, float) else str(value)
                lines.append(f"{name}  {text}")
        return "\n".join(lines)
