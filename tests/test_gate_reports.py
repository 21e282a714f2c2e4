"""Reports come out alike whatever the locale or a leading byte-order mark.

The report corpus (``corpus.py``) pins the report bytes. These tests show
that one ``gate`` recipe, grid and config, and the ``truth-table``, ``mc``
and ``sweep`` commands, give the same bytes under an ASCII locale as under
UTF-8, and that gate inputs with a leading UTF-8 byte-order mark give the
bytes that they give without one.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import GRID, RECIPES
from sotlogic import cli
from sotlogic.cli import main


def _run_under_an_ascii_locale(argv):
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "sotlogic.cli", *argv],
                          env=env, timeout=60, capture_output=True, text=True)


def _assert_same_files_with_lf(expected, got):
    names = sorted(p.name for p in expected.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        data = (got / name).read_bytes()
        assert data == (expected / name).read_bytes(), name
        assert b"\r\n" not in data


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_gate_files_alike_under_an_ascii_locale(tmp_path, fmt):
    # The recipe, grid and config are read as UTF-8, and every file is
    # written as UTF-8 with LF endings, whatever the locale's encoding.
    (tmp_path / "ops.txt").write_text("# caf\u00e9\n" + RECIPES["array"],
                                      encoding="utf-8")
    (tmp_path / "grid.csv").write_text(GRID.format(topology="2t1r"))
    (tmp_path / "dev.json").write_text('{"R_on": 900.0}')
    argv = ["gate", "--ops", str(tmp_path / "ops.txt"), "--array",
            str(tmp_path / "grid.csv"), "--config", str(tmp_path / "dev.json"),
            "--ic-cal", "1.78", "--format", fmt, "--out"]
    assert main(argv + [str(tmp_path / "utf8")]) == 0
    proc = _run_under_an_ascii_locale(argv + [str(tmp_path / "c")])
    assert proc.returncode == 0, proc.stderr
    _assert_same_files_with_lf(tmp_path / "utf8", tmp_path / "c")
    # A config key outside ASCII is named as unknown, not undecodable.
    (tmp_path / "dev.json").write_text('{"caf\u00e9": 1.0}', encoding="utf-8")
    proc = _run_under_an_ascii_locale(argv + [str(tmp_path / "k")])
    assert proc.returncode == 2
    assert "unknown device parameter key" in proc.stderr


@pytest.mark.parametrize("argv", [
    ["truth-table"],
    ["mc", "-n", "70", "--format", "json"],
    ["sweep", "--axis", "RA", "--min", "5", "--max", "50", "--points", "70"],
], ids=["truth-table", "mc", "sweep"])
def test_report_files_alike_under_an_ascii_locale(tmp_path, argv):
    # Every report is written as UTF-8 with LF endings, whatever the
    # locale's encoding.
    assert main(argv + ["--out", str(tmp_path / "utf8")]) == 0
    proc = _run_under_an_ascii_locale(argv + ["--out", str(tmp_path / "c")])
    assert proc.returncode == 0, proc.stderr
    _assert_same_files_with_lf(tmp_path / "utf8", tmp_path / "c")


@pytest.mark.parametrize("marked", ["ops.txt", "grid.csv", "dev.json"])
def test_inputs_that_start_with_a_byte_order_mark_read_alike(tmp_path, marked):
    # Some editors save UTF-8 with a leading byte-order mark (BOM).
    texts = {"ops.txt": RECIPES["array"],
             "grid.csv": GRID.format(topology="2t1r"),
             "dev.json": '{"R_on": 900.0}'}
    for run, bom in (("plain", ""), ("bom", "\ufeff")):
        for name, text in texts.items():
            (tmp_path / f"{run}_{name}").write_text(
                (bom if name == marked else "") + text, encoding="utf-8")
        assert main(["gate", "--ops", str(tmp_path / f"{run}_ops.txt"),
                     "--array", str(tmp_path / f"{run}_grid.csv"),
                     "--config", str(tmp_path / f"{run}_dev.json"),
                     "--ic-cal", "1.78", "--out", str(tmp_path / run)]) == 0
    names = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert sorted(p.name for p in (tmp_path / "bom").iterdir()) == names
    for name in names:
        assert (tmp_path / "bom" / name).read_bytes() == \
            (tmp_path / "plain" / name).read_bytes(), name
