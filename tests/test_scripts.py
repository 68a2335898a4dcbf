"""Smoke runs of the scripts under scripts/ at tiny sizes.

Each script puts the package's src directory on sys.path itself, so it is
loaded by path and its main run in-process, from a working directory other
than the repository root.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _run_main(name, argv, capsys):
    spec = importlib.util.spec_from_file_location(f"script_{name}", _SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert sys.path[0] == str(_SCRIPTS.parent / "src")
    script.main(argv)
    return capsys.readouterr().out


@pytest.fixture(autouse=True)
def _outside_the_repo(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "path", list(sys.path))


def test_reproduce_tables_prints_one_row_per_method(capsys):
    argv = ["--models", "1", "--sizes", "30", "--p", "6", "--reps", "2",
            "--B1", "3", "--B2", "3", "--n-test", "40"]
    out = _run_main("reproduce_tables", argv, capsys)
    assert "model 1  (p=6, reps=2, B1=3, B2=3)" in out
    for method in ("rp-lda2", "rp-qda5", "rp-knn5", "lda", "qda", "knn"):
        assert any(line.split()[0] == method for line in out.splitlines() if line.strip())


def test_theory_checks_prints_both_verdicts(capsys):
    argv = ["--p", "6", "--n", "30", "--grid", "2,3,4,5", "--mc-test", "200", "--mc-n", "300"]
    out = _run_main("theory_checks", argv, capsys)
    assert "rate check on model 1: grid (2, 3, 4, 5)" in out
    assert out.count("bound check, alpha=") == 2
    assert out.count("mean winner ") == 2
