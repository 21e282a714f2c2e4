"""The ``gate`` command's report bytes, pinned by digest.

Each case runs a recipe through ``cli.main`` in process and compares the
sha256 of every file it writes with a digest recorded before the array
state became a bit grid. The cases cover both topologies, CSV and JSON,
a uniform array from ``--rows/--cols``, an ``--array`` grid in which one
op's output already holds the opposite of its initial value, and an empty
recipe.
"""

import hashlib
import warnings

import pytest

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
            "496da3a4bf291ac8737d57decdd3b86f68fb57fca416e4b7836ec53c030271bf",
    },
    ('mixed', '2t1r', 'json'): {
        "gate_report.json":
            "a420fe4c6a2528c628be98f5d82fbe0b5b1ae7a2163652c8895a1c0d2192c85e",
        "gate_state.csv":
            "98b379edff039b3d4efb27695122bd899d7fe454c7601adc549c58f43f09142e",
    },
    ('mixed', 'vgsot', 'csv'): {
        "gate_state.csv":
            "7f340ac827112ab051f501a6b78207f31213168c09f82ec8022cb6ea3e7c2941",
        "gate_traces.csv":
            "fbe73b6c359388a9845ef24a01c9d0d63aff121941401739937a63b12811f1cd",
    },
    ('mixed', 'vgsot', 'json'): {
        "gate_report.json":
            "353d93e176d5025764d2e284edf2d6cfd84eb8c5a9bb003a9b886257866420ba",
        "gate_state.csv":
            "7f340ac827112ab051f501a6b78207f31213168c09f82ec8022cb6ea3e7c2941",
    },
    ('array', '2t1r', 'csv'): {
        "gate_state.csv":
            "1c6e22205aff11f1f727de0c53281cd06e4e986727c38dde2970a56f5aaa0b95",
        "gate_traces.csv":
            "001bcbe27aabb5176a6a84045b102d632c274d24e350155983e08733b271f6af",
    },
    ('array', '2t1r', 'json'): {
        "gate_report.json":
            "fe105af4629ec6d9e55ab8df4ed98f6b8f2843efecab70aa48185335c1fe022a",
        "gate_state.csv":
            "1c6e22205aff11f1f727de0c53281cd06e4e986727c38dde2970a56f5aaa0b95",
    },
    ('array', 'vgsot', 'csv'): {
        "gate_state.csv":
            "5671f848ead8f8b470bd1c74fa8292c41e9e6d09a7f8e8173c67d4113463a4db",
        "gate_traces.csv":
            "82ab8bf04730aaf846603aac00996cbf2d33d0e521271f71fcd92efeef3d6761",
    },
    ('array', 'vgsot', 'json'): {
        "gate_report.json":
            "15ad69f3dd56f424830a7eceaeaf9899aeebb1a06a58325b637ff5ef1a4592f5",
        "gate_state.csv":
            "5671f848ead8f8b470bd1c74fa8292c41e9e6d09a7f8e8173c67d4113463a4db",
    },
    ('empty', '2t1r', 'csv'): {
        "gate_state.csv":
            "0315d51fe86f7505491ba701f1e03a995244228eecfeb68c7daf7939d1a57729",
        "gate_traces.csv":
            "666622634650ccd223c2b801f5aff47d3813b404b0ffed36dd446884cc00d4fd",
    },
    ('empty', '2t1r', 'json'): {
        "gate_report.json":
            "d5b124136aacbad0bfc068188260b389f2d334bb7f53c97b44f2ff1f77d3e027",
        "gate_state.csv":
            "0315d51fe86f7505491ba701f1e03a995244228eecfeb68c7daf7939d1a57729",
    },
    ('empty', 'vgsot', 'csv'): {
        "gate_state.csv":
            "c703564ed41d6c23762dc0f86f8bbce2699f5c709b7a576e3f080e995f39fa72",
        "gate_traces.csv":
            "f266f660251e93a6cc48cba259e1527c9ec278a53477bc47d179d5ead2d333e1",
    },
    ('empty', 'vgsot', 'json'): {
        "gate_report.json":
            "77a10f517d2904971a8f1f89b4f589339893dbf62bedaa038cfe1c66d5879ee2",
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
