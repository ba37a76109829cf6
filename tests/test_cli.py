"""CLI smoke tests (fast paths only)."""

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "113 queries total" in out
    assert "13d" in out


def test_sql(capsys):
    assert main(["sql", "13d"]) == 0
    out = capsys.readouterr().out
    assert "company_name AS cn" in out
    assert "cn.country_code = '[us]'" in out


def test_run_single_experiment(capsys):
    code = main(
        ["run", "table1", "--scale", "tiny", "--queries", "1a,6a,13d"]
    )
    assert code == 0
    assert "Table 1" in capsys.readouterr().out


def test_run_unknown_experiment(capsys):
    assert main(["run", "nope", "--scale", "tiny"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_explain(capsys):
    assert main(["explain", "1a", "--scale", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "optimized with PostgreSQL-style estimates" in out
    assert "q-err=" in out


def test_profile(capsys):
    assert main(["profile"]) == 0
    out = capsys.readouterr().out
    assert "Workload profile" in out
    assert "FK-FK (n:m) join edges" in out


def test_export_sql(tmp_path, capsys):
    assert main(["export-sql", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("*.sql"))
    assert len(files) == 113
    content = (tmp_path / "13d.sql").read_text()
    assert content.startswith("SELECT MIN(")
    assert "cn.country_code = '[us]'" in content


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_oracle_processes_flag_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--oracle-processes", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --oracle-processes" in (
        capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "verb", [["run", "fig3"], ["report", "fig3-deep"], ["sweep"]],
    ids=["run", "report", "sweep"],
)
class TestQueryList:
    def test_unknown_names_rejected(self, verb, capsys):
        assert main(verb + ["--queries", "1a,zz"]) == 2
        assert "unknown query name(s): zz" in capsys.readouterr().err

    def test_repeated_names_rejected(self, verb, capsys):
        assert main(verb + ["--queries", "1a,4a,4a"]) == 2
        assert "repeated query name(s): 4a" in capsys.readouterr().err


@pytest.mark.parametrize(
    "report, experiments",
    [
        ("fig3-deep", ["fig3"]),
        ("fig6-deep", ["section4.1", "fig6"]),
        ("fig8-deep", ["fig8"]),
    ],
)
def test_run_prints_the_deep_report(report, experiments, capsys):
    """`repro run` of a deep figure is its `-deep` report, byte for byte
    (Section 4.1 and Figure 6 are the two halves of ``fig6-deep``)."""
    flags = ["--scale", "tiny", "--queries", "1a,4a"]
    for name in experiments:
        assert main(["run", name] + flags) == 0
    ran = capsys.readouterr().out
    assert main(["report", report] + flags) == 0
    assert ran == capsys.readouterr().out


@pytest.mark.parametrize("verb", ["sql", "explain"])
def test_unknown_positional_query_rejected(verb, capsys):
    assert main([verb, "zz"]) == 2
    assert "unknown query name(s): zz" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment, needs",
    [("fig4", "6a, 16d, 17b, 25c"), ("fig9", "6a, 13a, 16d, 17b, 25c")],
)
def test_run_rejects_queries_the_figure_lacks(experiment, needs, capsys):
    assert main(["run", experiment, "--scale", "tiny", "--queries", "1a"]) == 2
    assert f"{experiment} reads queries {needs}" in capsys.readouterr().err


def test_run_prices_each_deep_cell_once(tmp_path):
    """One `repro run` prices through one scratch store, so a deep cell
    an earlier figure priced is replayed by a later one."""
    from repro.cli import _EXPERIMENTS, _RunInputs, _register_experiments
    from repro.pipeline import instrument

    _register_experiments()
    inputs = _RunInputs("tiny", 42, ("1a", "4a"), tmp_path)
    priced = {}
    for name in ["fig3", "fig5", "section4.1", "fig6", "fig7", "fig8"]:
        before = instrument.snapshot()
        _EXPERIMENTS[name](inputs)
        priced[name] = (instrument.snapshot() - before).deep_cells_priced
    assert priced == {
        "fig3": 10, "fig5": 2, "section4.1": 36, "fig6": 0, "fig7": 4,
        "fig8": 8,
    }
