"""The ``mc`` command's report bytes, pinned by digest.

Each case runs a campaign through ``cli.main`` in process and compares
the sha256 of every file it writes with a digest recorded before the
campaign result kept its (patterns, trials) arrays, or, for the later
cases, before short blocks were solved across patterns or before trials
tables were written as byte matrices. The cases cover both topologies,
all four gates, CSV and JSON, 1 to 4 and 8 inputs, runs that span two
sampling blocks, runs whose patterns are solved in groups of 2, 16 and
256, and a trials table of more rows than one write chunk. They pin the
histogram table and the ``overlap_fraction`` meta value, which the
benchmark's reference checks do not read.
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
    # Recorded before blocks were solved across patterns: mc_wide's shape
    # (16 patterns in one group), all 256 patterns in one group, groups of
    # two patterns, and two blocks whose last one groups every pattern.
    ("vgsot", "and", 4, "json"): ["--trials", "250"],
    ("2t1r", "nor", 8, "csv"): ["--trials", "16"],
    ("vgsot", "or", 3, "csv"): ["--trials", "1500"],
    ("2t1r", "nand", 2, "json"): ["--trials", "4099", "--sigma-ra", "0.05"],
    # Recorded before trial tables were written as byte matrices: 67,200
    # rows, more than one write chunk.
    ("2t1r", "nor", 4, "csv"): ["--trials", "4200"],
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
    ('vgsot', 'and', 4, 'json'): {
        "mc_report.json":
            "3d1f728becf36681ef567ec9966e7ea78f4f4168399ba244c1bd45017c77ed05",
    },
    ('2t1r', 'nor', 8, 'csv'): {
        "mc_histogram.csv":
            "2830f184a073fed6ce91b699993b9b48cf45c678743eeefebcdb7fbe8793cf80",
        "mc_summary.csv":
            "c189f06a6a426e2bce5f138ef09671f5e8a98b844b217c85e0f999a983eaf0c7",
        "mc_trials.csv":
            "66163a8e0f1b502e52d48dce185c798c225918267387bcd648da3920062ef336",
    },
    ('vgsot', 'or', 3, 'csv'): {
        "mc_histogram.csv":
            "04385e39791bc9085e4ae5e54836345158c39f803430c9201068fb93e0ace00a",
        "mc_summary.csv":
            "3285a285f0d11c1abc0bb6af33e40d2e1028e006c2ca2184237d8fa3a64a687c",
        "mc_trials.csv":
            "e84dc487e87d8d60e0d818b60ceb5995ef1756c09d61e023158e42e4ca875c17",
    },
    ('2t1r', 'nand', 2, 'json'): {
        "mc_report.json":
            "279ecdc05e674ed5bcf9a4f25d8cc41f29896908d2bd784d162d81a1bebbd8cb",
    },
    ('2t1r', 'nor', 4, 'csv'): {
        "mc_histogram.csv":
            "f111e6fc78bf58c7e01ea38806ba430051ce5821559f5ba8ad46fc55bbaacd42",
        "mc_summary.csv":
            "90e8404bda340f091af05279a54e5708502a8bd685420c2723bd3a099d2260ff",
        "mc_trials.csv":
            "8acc1a42c5d52f786419284537d75666ea6a7fad8d174a97e137b40f09d9d7ae",
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
