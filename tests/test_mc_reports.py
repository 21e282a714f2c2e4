"""The ``mc`` command's report bytes, pinned by digest.

Each case runs a campaign through ``cli.main`` in process and compares
the sha256 of every file it writes with a digest recorded before the
campaign result kept its (patterns, trials) arrays. The cases cover both
topologies, all four gates, CSV and JSON, 1 and 3 inputs and a run that
spans two sampling blocks. They pin the histogram table and the
``overlap_fraction`` meta value, which the benchmark's reference checks
do not read.
"""

import hashlib
import warnings

import pytest

from sotlogic.cli import main

# (topology, gate, inputs, format) -> flags after ``--trials 200 --seed 11``;
# a later ``--trials`` overrides the first.
FLAGS = {
    ("2t1r", "nor", 1, "csv"): [],
    ("2t1r", "nand", 3, "json"): [],
    ("2t1r", "or", 3, "csv"): ["--sigma-ra", "0.1"],
    ("2t1r", "and", 1, "json"): ["--trials", "4099"],  # two blocks
    ("vgsot", "or", 1, "json"): [],
    ("vgsot", "and", 3, "csv"): ["--margin-fraction", "0.2"],
    ("vgsot", "nand", 3, "json"): ["--bins", "7", "--sigma-ra", "0.05"],
    ("vgsot", "nor", 1, "csv"): ["--trials", "4099"],  # two blocks
}

# (topology, gate, inputs, format) -> {file name: sha256 of its bytes}
DIGESTS = {
    ('2t1r', 'nor', 1, 'csv'): {
        "mc_histogram.csv":
            "5b2a0baab45e4fa3c6cf04cd23e92fb0fb6fe02552d08550ae2a260013e8bcc0",
        "mc_summary.csv":
            "35fcb073f5cc03a26fae6641b9c4da5b1a2a97cbfcaadaf3cd7b86e1de98d721",
        "mc_trials.csv":
            "6d32b3409943f0d55f6ef0ad42c035501f3c2dffbc307efa10c674774c1aaab0",
    },
    ('2t1r', 'nand', 3, 'json'): {
        "mc_report.json":
            "0b9097c3de845474bd52daf970e854e42d4e5d948dac02119fd6fbd3eda6c93a",
    },
    ('2t1r', 'or', 3, 'csv'): {
        "mc_histogram.csv":
            "b6724f5dfa31b8f7fc278886d49783cd760292d62237a7a3fd87a08d11b3a777",
        "mc_summary.csv":
            "480d9f03f5ba623a94c2ceeac8a634826b550c107beaebcc9d730370bcbf75eb",
        "mc_trials.csv":
            "f0b73de04cf6c861384a23a1374edb5831955bb80e1120dd8aeb7e056fb4a7cc",
    },
    ('2t1r', 'and', 1, 'json'): {
        "mc_report.json":
            "927bbc422dfb6c79516e210da90313f52a921effeaf0789f95c7ff0b56ff1600",
    },
    ('vgsot', 'or', 1, 'json'): {
        "mc_report.json":
            "357853aa47e13a5e89b31be26f553576e7ff39fbf6ec24d2b99637e9ac07d9ae",
    },
    ('vgsot', 'and', 3, 'csv'): {
        "mc_histogram.csv":
            "d124deb970033d6aca0d52b98aefa661253c1b7beca01778ceb49c257139d859",
        "mc_summary.csv":
            "90c0272e2ca0f638132158daa9e921d23e5c65ebcf1e5228656beb7bd79190e6",
        "mc_trials.csv":
            "26468a1d10fa5bc903b5ace9527ce23752c77d8d3db522a5f294f4fd94401eb5",
    },
    ('vgsot', 'nand', 3, 'json'): {
        "mc_report.json":
            "3953850bd5398388ec40f924ec23d274dc15a35810ad247d290c63ac41de3a12",
    },
    ('vgsot', 'nor', 1, 'csv'): {
        "mc_histogram.csv":
            "287707fa16e58dc634f255b740822dd62f33231395db127039917edc9a84fdc8",
        "mc_summary.csv":
            "62ca8911c103484a6a21b3dea834bfff9ceda3743a383cad937a3f7cb0707450",
        "mc_trials.csv":
            "03af79f5503d44742bece7c656fa9f8cd11d318499a4e7aeadcd9a7047ecfe8c",
    },
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_mc_reports_match_recorded_digests(tmp_path, case):
    topology, gate, inputs, fmt = case
    argv = ["mc", "--topology", topology, "--gate", gate, "--inputs",
            str(inputs), "--format", fmt, "--trials", "200", "--seed", "11",
            "--out", str(tmp_path / "o")] + FLAGS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        assert main(argv) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / "o").iterdir())}
    assert digests == DIGESTS[case]
