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
