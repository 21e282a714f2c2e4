"""Every demo runs to its end in process, without a numpy RuntimeWarning."""

import types
import warnings
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    # Compiled by hand, so that no bytecode cache is written into demos/.
    module = types.ModuleType(f"demo_{path.stem}")
    exec(compile(path.read_text(), str(path), "exec"), vars(module))
    monkeypatch.chdir(tmp_path)  # demo 04 writes its tables under out/
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        module.main()
    assert capsys.readouterr().out
