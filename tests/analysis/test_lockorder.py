"""Static lock-order pass (LCK rules)."""

import textwrap

from repro.analysis.lockorder import (
    HIERARCHY,
    MUTATE_LOCK_INVERSION,
    analyze_lock_order,
    build_graph,
)


class TestCleanTree:
    def test_engine_graph_is_acyclic_and_ordered(self):
        report = analyze_lock_order()
        assert report.findings == []
        assert report.checked > 0

    def test_expected_edges_are_extracted(self):
        """The load-bearing acquisition edges must actually be found —
        an extraction bug that finds nothing would also 'pass'."""
        graph = build_graph()
        edges = {(e.src, e.dst) for e in graph.edges}
        for expected in (
            ("heap", "pool"),
            ("btree", "pool"),
            ("catalog", "heap"),
            ("txn", "durability"),
            ("durability", "wal"),
            ("pool", "store"),
        ):
            assert expected in edges, expected

    def test_writeback_wal_override_narrows_the_edge(self):
        """BufferPool calling before_page_write must read as pool→wal
        (the method only flushes the log), not pool→durability — the
        latter would be a false cycle with the checkpoint path."""
        graph = build_graph()
        edges = {(e.src, e.dst) for e in graph.edges}
        assert ("pool", "wal") in edges
        assert ("pool", "durability") not in edges

    def test_every_extracted_resource_is_ranked(self):
        graph = build_graph()
        assert graph.resources <= set(HIERARCHY)


class TestSeededInversion:
    def test_mutation_fires_cycle_and_inversion(self):
        report = analyze_lock_order(mutate=MUTATE_LOCK_INVERSION)
        rules = report.by_rule()
        assert rules.get("LCK001", 0) >= 1
        assert rules.get("LCK002", 0) >= 1
        assert not report.ok

    def test_cycle_message_names_the_loop(self):
        report = analyze_lock_order(mutate=MUTATE_LOCK_INVERSION)
        cycle_findings = [
            f for f in report.findings if f.rule_id == "LCK001"
        ]
        assert any(
            "wal" in f.message and "heap" in f.message
            for f in cycle_findings
        )


class TestScanner:
    def test_synthetic_source_backward_edge(self, tmp_path):
        """A log method that calls back into the heap is exactly the
        inversion the pass must flag on real code too."""
        (tmp_path / "bad.py").write_text(
            textwrap.dedent(
                """
                class WriteAheadLog:
                    def append(self, record):
                        self._heap.fetch(record)
                """
            )
        )
        report = analyze_lock_order(root=str(tmp_path))
        assert report.by_rule().get("LCK002", 0) == 1

    def test_unranked_resource_is_warned(self, tmp_path, monkeypatch):
        import repro.analysis.lockorder as lockorder

        monkeypatch.setitem(lockorder.CLASS_RESOURCES, "GossipBus", "gossip")
        monkeypatch.setitem(lockorder.ATTR_RESOURCES, "gossip", "gossip")
        (tmp_path / "gossip.py").write_text(
            textwrap.dedent(
                """
                class GossipBus:
                    def publish(self):
                        self.pool.read(1)

                class BufferPool:
                    def read(self, page_id):
                        self.gossip.publish()
                """
            )
        )
        report = analyze_lock_order(root=str(tmp_path))
        assert report.by_rule().get("LCK003", 0) == 1
        # gossip is unranked so its edges are skipped by LCK002, but
        # the cycle detector still sees the loop.
        assert report.by_rule().get("LCK001", 0) == 1
