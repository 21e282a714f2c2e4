"""The ``gate`` command's report bytes, pinned by digest.

Each case runs a recipe through ``cli.main`` in process and compares the
sha256 of every file it writes with a digest recorded before the array
state became a bit grid. The cases cover both topologies, CSV and JSON,
a uniform array from ``--rows/--cols``, an ``--array`` grid in which one
op's output already holds the opposite of its initial value, and an empty
recipe.
"""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from sotlogic import cli
from sotlogic.cli import main

RECIPES = {
    # Two columns; later ops read earlier outputs. Optional fields:
    # v_drive, i_sot, pulse.
    "mixed": ("nor,0,0;1,2\n"
              "or,1,0;1,2\n"
              "nand,0,1;2,3\n"
              "and,1,0;2,3,,,1e-9\n"
              "nor,1,2;3,4,0.1,1e-6\n"),
    # The grid's outputs already hold the opposite of their initial value:
    # the NOR (too weak a drive to switch) must write P back, the OR
    # switches to the value its output holds.
    "array": ("nor,0,0;1,2,0.1,1e-6\n"
              "or,1,0;1,3\n"
              "nand,1,0;3,2\n"),
    "empty": "# no ops\n",
}
GRID = "rows,cols,topology\n4,2,{topology}\n1,0\n0,1\n0,0\n1,1\n"
SIZES = {"mixed": ["--rows", "5", "--cols", "2"], "empty": ["--rows", "3"]}

# (recipe, topology, format) -> {file name: sha256 of its bytes}
DIGESTS = {
    ('mixed', '2t1r', 'csv'): {
        "gate_state.csv":
            "98b379edff039b3d4efb27695122bd899d7fe454c7601adc549c58f43f09142e",
        "gate_traces.csv":
            "209b6274a868a8c9cc449b6b2cfccf3b76cbe4fc4a1f43fe4649dda921aec3e8",
    },
    ('mixed', '2t1r', 'json'): {
        "gate_report.json":
            "21da24489d7e3acac24795d453e5cdec251de79955e6dca1a4dec277354293a3",
        "gate_state.csv":
            "98b379edff039b3d4efb27695122bd899d7fe454c7601adc549c58f43f09142e",
    },
    ('mixed', 'vgsot', 'csv'): {
        "gate_state.csv":
            "7f340ac827112ab051f501a6b78207f31213168c09f82ec8022cb6ea3e7c2941",
        "gate_traces.csv":
            "750ade6708e20fb0d4d8282d2d50df3e388aedfaafd34966afd06c54e09068e0",
    },
    ('mixed', 'vgsot', 'json'): {
        "gate_report.json":
            "10b79a75d031849a445ac1ae9dbd5dd05e6490ad172ccb90f823c8f8b1c38348",
        "gate_state.csv":
            "7f340ac827112ab051f501a6b78207f31213168c09f82ec8022cb6ea3e7c2941",
    },
    ('array', '2t1r', 'csv'): {
        "gate_state.csv":
            "1c6e22205aff11f1f727de0c53281cd06e4e986727c38dde2970a56f5aaa0b95",
        "gate_traces.csv":
            "4892928dc3da408646e77de8590a0c1ac08aede0c50b0789fd8517e2681efdbe",
    },
    ('array', '2t1r', 'json'): {
        "gate_report.json":
            "e76bc4f6d27971286c2a48778488a107251a0bd36bf4058798b858e02c2939ee",
        "gate_state.csv":
            "1c6e22205aff11f1f727de0c53281cd06e4e986727c38dde2970a56f5aaa0b95",
    },
    ('array', 'vgsot', 'csv'): {
        "gate_state.csv":
            "5671f848ead8f8b470bd1c74fa8292c41e9e6d09a7f8e8173c67d4113463a4db",
        "gate_traces.csv":
            "cad9e53db7755da8b0981654170bc94360aa4f87eb4fac25b4cd1847fa36b918",
    },
    ('array', 'vgsot', 'json'): {
        "gate_report.json":
            "a50b32b8a6c331fee13e710db299465b8e27bbf9a738bbf4adca9bc5d4111041",
        "gate_state.csv":
            "5671f848ead8f8b470bd1c74fa8292c41e9e6d09a7f8e8173c67d4113463a4db",
    },
    ('empty', '2t1r', 'csv'): {
        "gate_state.csv":
            "0315d51fe86f7505491ba701f1e03a995244228eecfeb68c7daf7939d1a57729",
        "gate_traces.csv":
            "f3b72bc3d03d06d71a9f6b7da5e6fff5160eb30a00b02483fe12944b8c9439ea",
    },
    ('empty', '2t1r', 'json'): {
        "gate_report.json":
            "ab1b2f229c9353a96b3fca2c41ac4eafbbf9411420c01785f2f9a0a612c34e01",
        "gate_state.csv":
            "0315d51fe86f7505491ba701f1e03a995244228eecfeb68c7daf7939d1a57729",
    },
    ('empty', 'vgsot', 'csv'): {
        "gate_state.csv":
            "c703564ed41d6c23762dc0f86f8bbce2699f5c709b7a576e3f080e995f39fa72",
        "gate_traces.csv":
            "8d60cd3bd5dce201544cc8c636ff58596233ebde49852733c7523d0c2fa6ac9c",
    },
    ('empty', 'vgsot', 'json'): {
        "gate_report.json":
            "9852b91bdeed2b219b6456ca1c9897bfecef0744cf91a5c759785e14b8379e71",
        "gate_state.csv":
            "c703564ed41d6c23762dc0f86f8bbce2699f5c709b7a576e3f080e995f39fa72",
    },
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_gate_reports_match_recorded_digests(tmp_path, case):
    recipe, topology, fmt = case
    (tmp_path / "ops.txt").write_text(RECIPES[recipe])
    argv = ["gate", "--topology", topology, "--format", fmt,
            "--ops", str(tmp_path / "ops.txt"), "--out", str(tmp_path / "o")]
    if topology == "2t1r":
        argv += ["--ic-cal", "1.78"]
    if recipe in SIZES:
        argv += SIZES[recipe]
    else:
        (tmp_path / "grid.csv").write_text(GRID.format(topology=topology))
        argv += ["--array", str(tmp_path / "grid.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "o").iterdir())}
    assert digests == DIGESTS[case]


def _run_under_an_ascii_locale(argv):
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONUTF8="0", PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "sotlogic.cli", *argv],
                          env=env, timeout=60, capture_output=True, text=True)


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
    names = sorted(p.name for p in (tmp_path / "utf8").iterdir())
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == names
    for name in names:
        data = (tmp_path / "c" / name).read_bytes()
        assert data == (tmp_path / "utf8" / name).read_bytes(), name
        assert b"\r\n" not in data
    # A config key outside ASCII is named as unknown, not undecodable.
    (tmp_path / "dev.json").write_text('{"caf\u00e9": 1.0}', encoding="utf-8")
    proc = _run_under_an_ascii_locale(argv + [str(tmp_path / "k")])
    assert proc.returncode == 2
    assert "unknown device parameter key" in proc.stderr


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
