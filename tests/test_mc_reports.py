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
            "40a54115ce30818e6b6fcc11a73ebaa6c7278d33cffb682076e6ede2977e755f",
        "mc_summary.csv":
            "f3fe085f228239573c734e173fef3409f2ab3be3cd3bb0cb9f5ebdb36f51dc78",
        "mc_trials.csv":
            "988b326d37d43380d0a1d5fc4bd6b7762605cb9a0218b1173d3b76fff67afc33",
    },
    ('2t1r', 'nand', 3, 'json'): {
        "mc_report.json":
            "20a46a4b0673a9458756ec4151f2fca8e09fbb3c589688e8f5b48148d9f66d8e",
    },
    ('2t1r', 'or', 3, 'csv'): {
        "mc_histogram.csv":
            "21cfe23f461056c6ebc8eab1cc0f6334ce6bee4d2b42887d6ca5d13011a9b600",
        "mc_summary.csv":
            "7f0fbc95d6d1103f3171573a99838adc06500acf82873f36a05865f90cc9fd52",
        "mc_trials.csv":
            "dd580550216058f7ba25b00eec4fd9b0920a1beae782638ebc2fd677df65bc93",
    },
    ('2t1r', 'and', 1, 'json'): {
        "mc_report.json":
            "cb3ad741a7cbff666f3c44b79cfecd558ea6443f763394434bbb75ba99a59373",
    },
    ('vgsot', 'or', 1, 'json'): {
        "mc_report.json":
            "7493dba6aae8c17f8e1caf067e949fb7f40c8eacccd59d6864cdf5362222deb6",
    },
    ('vgsot', 'and', 3, 'csv'): {
        "mc_histogram.csv":
            "6991e2f39add7f6162fecafc3857794ab63ede44309ef6554196ea9b8dcb2c13",
        "mc_summary.csv":
            "48c6d67f4387e3e6c356e23cbe2a63f2e0612868456cd1fc4ebb08cf5a32ca1a",
        "mc_trials.csv":
            "149817b93b361bef270a99ee04ff564725266f8f928fad756686cae1f7efb50f",
    },
    ('vgsot', 'nand', 3, 'json'): {
        "mc_report.json":
            "32bb7f121accc1e3d9fc7d4b6b19dba71b133679d2f1194f18c0fa9c53a7c3b0",
    },
    ('vgsot', 'nor', 1, 'csv'): {
        "mc_histogram.csv":
            "6d709edde7ca906656c399c90d1a957ae3de70f791dc0745311edbd3ae79302f",
        "mc_summary.csv":
            "72647f956f9502bbfa888ff4019da602dc91fd25003357c49ec7d874486db412",
        "mc_trials.csv":
            "7e6adfde69328da7141224cb6b8a9568bf2b3adbd5f38656343ad3f7670291dc",
    },
    ('vgsot', 'and', 4, 'json'): {
        "mc_report.json":
            "4922236bf4f2ee2f92c29995cfda6ebe841221583b1bbc51426c53551e096d92",
    },
    ('2t1r', 'nor', 8, 'csv'): {
        "mc_histogram.csv":
            "90c1e5af230908a15aff58cc6fb7d510dc7121fc20793f7b2c331a5fc2002118",
        "mc_summary.csv":
            "a4410c0afae1dd7387f80c9b5c66ac741d5258c847ce4cc6999af37ff46d9532",
        "mc_trials.csv":
            "71163d1c4fd926cae565e28b520a3eb0cbbbf5b21d0a0cb90dc63cfef29d253d",
    },
    ('vgsot', 'or', 3, 'csv'): {
        "mc_histogram.csv":
            "aa53be422034afe18c730a8b884749ee2f21218beeb80a27d9b2259aa578127d",
        "mc_summary.csv":
            "1e8591de7ea9b1455072e302117a74e54c57f3119f0830963f83cd8b5d3cd9ee",
        "mc_trials.csv":
            "5af73c33d2825c93848043468b81f7ce10fd5b50d00857c0c24a1c16403ee68c",
    },
    ('2t1r', 'nand', 2, 'json'): {
        "mc_report.json":
            "0d1a96947ff7593f7225152d19c6a91147408ea0656c800c6fff8abfcf97b377",
    },
    ('2t1r', 'nor', 4, 'csv'): {
        "mc_histogram.csv":
            "2b3e450cc8ca0b98e35dc8b50e06fea76e7955a9ec90f86a41a071c02c134b3f",
        "mc_summary.csv":
            "0f3212e531a717e4e65e5eaf8d7f6208c0ed4e070a5b0aaed124c076e3bcc48c",
        "mc_trials.csv":
            "a800861ac697aec8d99b70e06130eb9744e08bb3dc981b8bf1496a60ed6acf90",
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
