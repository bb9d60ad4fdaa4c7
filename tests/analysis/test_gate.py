"""End-to-end analysis gate: the CLI must pass clean testbeds and fail
seeded defects — the acceptance criterion for ``--strict``."""

from repro.analysis.__main__ import main
from repro.analysis.runner import AnalysisConfig, run_analysis

SMALL = [
    "--tenants", "2",
    "--rows", "1",
    "--variability", "0.0",
    "--no-admin-ops",
]


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "SEM001" in out and "ISO001" in out and "LAY001" in out


def test_clean_gate_passes(capsys):
    assert main(["--strict", "--layouts", "extension", "pivot", *SMALL]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_gate_fails_on_dropped_tenant_guard(capsys):
    code = main(
        ["--strict", "--mutate", "drop-tenant-guard",
         "--layouts", "extension", *SMALL]
    )
    assert code == 1
    assert "ISO0" in capsys.readouterr().out


def test_gate_fails_on_dropped_casts(capsys):
    code = main(
        ["--strict", "--mutate", "drop-read-casts",
         "--layouts", "universal", *SMALL]
    )
    assert code == 1
    assert "LAY003" in capsys.readouterr().out


def test_gate_fails_on_dropped_dml_guard(capsys):
    """The DML templates run through prepared handles: only a recorder
    on the engine's statement path sees them lose their tenant guard —
    on the fan-out path (chunk_folding) and the direct one (basic)."""
    for layout in ("chunk_folding", "basic"):
        code = main(
            ["--strict", "--mutate", "drop-dml-guard",
             "--layouts", layout, *SMALL]
        )
        assert code == 1
        assert "ISO002" in capsys.readouterr().out


def test_findings_flow_into_metrics():
    config = AnalysisConfig(
        layouts=("extension",),
        variabilities=(0.0,),
        tenants=2,
        rows_per_table=1,
        admin_ops=False,
    )
    report = run_analysis(config)
    assert report.ok
    assert report.checked > 0


def test_admin_ops_replay_is_clean():
    config = AnalysisConfig(
        layouts=("chunk",),
        variabilities=(0.0,),
        tenants=2,
        rows_per_table=1,
        admin_ops=True,
    )
    report = run_analysis(config)
    assert report.ok, [f.message for f in report.findings]


def test_gate_fails_on_widened_cross_tenant_set(capsys):
    code = main(
        ["--strict", "--mutate", "widen-crosstenant",
         "--layouts", "extension", "universal", *SMALL]
    )
    assert code == 1
    assert "ISO006" in capsys.readouterr().out
