"""The placement catalog: which shard owns which tenant.

Placement is decided by a consistent-hash ring (CRC32 of
``"{shard}#{replica}"`` virtual points, :mod:`bisect` lookup) so adding
or removing a shard only moves the tenants that land on the affected
arc.  Individual tenants can be *pinned* to a shard, which is how a
finished rebalance records its cut-over: the ring answer stays stable
while the pin overrides it.

Every mutation bumps ``version``.  Shards remember the version under
which they were told they own a tenant; a router seeing
``WrongShardError`` refreshes its placement view and retries, so a
stale map is a performance problem, never a correctness one.

The catalog also persists the *rebalance journal* — at most one tenant
move may be in flight, and its current phase is recorded in the same
atomically-replaced JSON file as the placement itself.  That makes the
cut-over (flip pin + advance phase) a single ``os.replace``, which is
the atomicity anchor for crash recovery in
:mod:`repro.cluster.rebalance`.
"""

from __future__ import annotations

import bisect
import json
import os
import zlib
from pathlib import Path
from typing import Any

from .errors import ClusterError, RebalanceInProgressError

FORMAT = "repro-placement-v1"
#: Virtual points per shard on the ring.  The file keeps recording it,
#: so the format stays ``v1`` in both directions.
REPLICAS = 64


def _hash(key: str) -> int:
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class PlacementCatalog:
    """Maps ``tenant_id`` to a shard name; optionally file-backed."""

    def __init__(
        self,
        shards: list[str] | tuple[str, ...] = (),
        *,
        path: str | Path | None = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.version = 0
        self.pins: dict[int, str] = {}
        self.rebalance: dict[str, Any] | None = None
        self._shards: list[str] = []
        self._points: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)

    # -- ring maintenance ----------------------------------------------------

    @property
    def shards(self) -> list[str]:
        return list(self._shards)

    def _rebuild_ring(self) -> None:
        ring = []
        for shard in self._shards:
            for replica in range(REPLICAS):
                ring.append((_hash(f"{shard}#{replica}"), shard))
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]

    def add_shard(self, name: str) -> None:
        if name in self._shards:
            raise ClusterError(f"shard {name!r} already registered")
        self._shards.append(name)
        self._rebuild_ring()
        self.version += 1

    def remove_shard(self, name: str) -> None:
        if name not in self._shards:
            raise ClusterError(f"unknown shard {name!r}")
        pinned_here = [t for t, s in self.pins.items() if s == name]
        if pinned_here:
            raise ClusterError(
                f"shard {name!r} still has pinned tenants {sorted(pinned_here)}"
            )
        self._shards.remove(name)
        self._rebuild_ring()
        self.version += 1

    # -- lookup --------------------------------------------------------------

    def shard_for(self, tenant_id: int) -> str:
        pin = self.pins.get(tenant_id)
        if pin is not None:
            return pin
        if not self._points:
            raise ClusterError("placement catalog has no shards")
        index = bisect.bisect_right(self._points, _hash(f"tenant:{tenant_id}"))
        if index == len(self._points):
            index = 0
        return self._owners[index]

    # -- pins ----------------------------------------------------------------

    def pin(self, tenant_id: int, shard: str) -> None:
        if shard not in self._shards:
            raise ClusterError(f"unknown shard {shard!r}")
        self.pins[tenant_id] = shard
        self.version += 1

    def unpin(self, tenant_id: int) -> None:
        if self.pins.pop(tenant_id, None) is not None:
            self.version += 1

    # -- rebalance journal ---------------------------------------------------

    def begin_rebalance(self, tenant_id: int, source: str, dest: str) -> None:
        if self.rebalance is not None:
            raise RebalanceInProgressError(
                f"rebalance of tenant {self.rebalance['tenant_id']} "
                f"already in flight"
            )
        for shard in (source, dest):
            if shard not in self._shards:
                raise ClusterError(f"unknown shard {shard!r}")
        self.rebalance = {
            "tenant_id": tenant_id,
            "source": source,
            "dest": dest,
            "phase": "copy",
        }
        self.version += 1
        self.save()

    def update_phase(self, phase: str, *, pin_dest: bool = False) -> None:
        if self.rebalance is None:
            raise ClusterError("no rebalance in flight")
        self.rebalance["phase"] = phase
        if pin_dest:
            # The cut-over: the pin flip and the phase advance land in
            # the same atomic file replace.
            self.pins[self.rebalance["tenant_id"]] = self.rebalance["dest"]
        self.version += 1
        self.save()

    def clear_rebalance(self) -> None:
        if self.rebalance is not None:
            self.rebalance = None
            self.version += 1
            self.save()

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT,
            "version": self.version,
            "replicas": REPLICAS,
            "shards": list(self._shards),
            "pins": {str(t): s for t, s in self.pins.items()},
            "rebalance": self.rebalance,
        }

    def save(self) -> None:
        if self.path is None:
            return
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)

    @classmethod
    def load(cls, path: str | Path) -> PlacementCatalog:
        path = Path(path)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("format") != FORMAT:
            raise ClusterError(f"not a placement catalog: {path}")
        catalog = cls(path=path)
        catalog._shards = list(data["shards"])
        catalog._rebuild_ring()
        catalog.pins = {int(t): s for t, s in data["pins"].items()}
        catalog.rebalance = data["rebalance"]
        catalog.version = data["version"]
        return catalog

    # -- in-memory snapshots (for tests and crash simulation) ----------------

    def snapshot(self) -> dict[str, Any]:
        return json.loads(json.dumps(self.to_dict()))

    def restore(self, snapshot: dict[str, Any]) -> None:
        self._shards = list(snapshot["shards"])
        self._rebuild_ring()
        self.pins = {int(t): s for t, s in snapshot["pins"].items()}
        self.rebalance = snapshot["rebalance"]
        self.version = snapshot["version"]
