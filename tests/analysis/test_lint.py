"""Protocol lint (LNT rules) over real and synthetic source trees."""

import textwrap

import pytest

from repro.analysis.lint import analyze_lint, run_crashpoint_census


@pytest.fixture(scope="module")
def census():
    return run_crashpoint_census()


def write_tree(tmp_path, files):
    for rel, body in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return str(tmp_path)


class TestCleanTree:
    def test_src_is_lint_clean(self, census):
        report = analyze_lint(census=census)
        assert report.findings == []
        assert report.checked > 0


class TestMarkDirtyRule:
    def test_mark_dirty_outside_storage_layer(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "engine/rogue.py": """
                    def poke(pool, page_id):
                        pool.mark_dirty(page_id)
                """,
                "engine/pager.py": """
                    class BufferPool:
                        def touch(self):
                            self.mark_dirty(1)
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        findings = [f for f in report.findings if f.rule_id == "LNT001"]
        assert len(findings) == 1
        assert "rogue.py" in findings[0].locus


class TestCrashSwallowRule:
    def test_bare_except_without_reraise(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "engine/sloppy.py": """
                    def run(step):
                        try:
                            step()
                        except:
                            pass
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT002", 0) == 1

    def test_base_exception_with_reraise_is_fine(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "engine/careful.py": """
                    def run(step, cleanup):
                        try:
                            step()
                        except BaseException:
                            cleanup()
                            raise
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT002", 0) == 0

    def test_except_exception_is_not_flagged(self, tmp_path, census):
        """SimulatedCrash subclasses BaseException precisely so that
        ``except Exception`` cannot swallow it."""
        root = write_tree(
            tmp_path,
            {
                "engine/normal.py": """
                    def run(step):
                        try:
                            step()
                        except Exception:
                            pass
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT002", 0) == 0


class TestDeadCrashpointRule:
    def test_unreferenced_crashpoint_in_census_is_fine(self):
        report = analyze_lint(census={"txn.commit": 1, "extra.point": 3})
        # Static refs from the real src/ tree still fail (most are not
        # in this tiny census), proving the diff direction: static refs
        # must be covered by the census, not vice versa.
        assert report.by_rule().get("LNT003", 0) >= 1

    def test_a_synthetic_root_checks_its_own_crashpoints(self, tmp_path):
        dead = write_tree(tmp_path / "dead", {"wal.py": "f.crashpoint('x.y')\n"})
        [finding] = analyze_lint(root=dead, census={}).findings
        assert finding.rule_id == "LNT003" and "'x.y'" in finding.message
        assert finding.locus == "wal.py:1"
        clean = write_tree(tmp_path / "clean", {"wal.py": "X = 1\n"})
        assert analyze_lint(root=clean, census={}).findings == []

    def test_full_census_covers_all_static_refs(self, census):
        report = analyze_lint(census=census)
        assert report.by_rule().get("LNT003", 0) == 0

    def test_fstring_crashpoints_match_as_patterns(self, census):
        from repro.analysis.lint import static_crashpoints

        patterns = [r for r in static_crashpoints() if not r.literal]
        assert patterns, "expected f-string crashpoint refs (admin.*)"
        for ref in patterns:
            assert any(ref.matches(name) for name in census)
        assert not any(
            ref.matches("adminXfooXbegin") for ref in patterns
        )


class TestMetricLoopRule:
    def test_registry_lookup_in_loop(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "engine/hot.py": """
                    def drain(metrics, items):
                        for item in items:
                            metrics.counter("engine.drained").inc()
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT004", 0) == 1

    def test_prebound_counter_in_loop_is_fine(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "engine/cool.py": """
                    class Drain:
                        def __init__(self, metrics):
                            self._bind_counters(metrics)
                            self._h_size = metrics.histogram("engine.drain_rows")

                        def _bind_counters(self, metrics):
                            self._c_drained = metrics.counter("engine.drained")

                        def drain(self, items):
                            for item in items:
                                self._c_drained.inc()
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT004", 0) == 0

    def test_written_out_name_outside_constructor(self, tmp_path, census):
        """One lookup per statement is still a lookup per statement:
        ``engine/`` and ``core/statement_cache.py`` bind instruments
        whose names are written out once, at construction."""
        root = write_tree(
            tmp_path,
            {
                "engine/lazy.py": """
                    class Cache:
                        def __init__(self, metrics):
                            self._metrics = metrics

                        def lookup(self, key):
                            self._metrics.counter("engine.cache.hits").inc()

                        def export(self, name):
                            return self._metrics.gauge(name)
                """,
                "core/statement_cache.py": """
                    PREFIX = "mt.statement_cache"

                    def invalidate(metrics, dropped):
                        metrics.counter(f"{PREFIX}.invalidations").inc(dropped)
                """,
                "core/api.py": """
                    def count(metrics):
                        metrics.counter("mt.calls").inc()
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        loci = [f.locus for f in report.findings if f.rule_id == "LNT004"]
        assert len(loci) == 2
        assert any(locus.startswith("engine/lazy.py") for locus in loci)
        assert any(locus.startswith("core/statement_cache.py") for locus in loci)

    def test_rule_scoped_to_engine(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                "testbed/report.py": """
                    def render(metrics, names):
                        for name in names:
                            metrics.counter(name).inc()
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        assert report.by_rule().get("LNT004", 0) == 0


class TestPrivateEngineImportRule:
    def test_private_engine_names_above_the_engine(self, tmp_path, census):
        root = write_tree(
            tmp_path,
            {
                # What crosstenant.py used to do, relative and absolute.
                "core/transform/merge.py": """
                    from ...engine.expr import _ARITH, Schema
                    from repro.engine.values import _coerce
                """,
                "core/fine.py": """
                    from ..engine.expr import ExprCompiler
                    from .transform.merge import _helper
                """,
                "engine/plan/inside.py": """
                    from ..expr import _ARITH
                """,
            },
        )
        report = analyze_lint(root=root, census=census)
        findings = [f for f in report.findings if f.rule_id == "LNT005"]
        assert sorted(f.locus for f in findings) == [
            "core/transform/merge.py:2",
            "core/transform/merge.py:3",
        ]
        assert "_ARITH" in findings[0].message
