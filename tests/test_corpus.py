"""Every argv of the report corpus (``corpus.py``) gives the exit code and
the bytes that its manifest records."""

import json

import pytest

from corpus import CORPUS, MANIFEST, key, record

RECORDED = json.loads(MANIFEST.read_bytes())


def test_manifest_records_the_corpus_and_every_exit_code():
    assert sorted(RECORDED) == sorted(map(key, CORPUS))
    assert {entry["exit"] for entry in RECORDED.values()} == {0, 1, 2}


@pytest.mark.parametrize("argv", CORPUS, ids=",".join)  # ids hold no space
def test_corpus_argv_gives_its_recorded_bytes(tmp_path, argv):
    assert record(argv, tmp_path) == RECORDED[key(argv)]


def test_the_environment_names_no_device(tmp_path, monkeypatch):
    # A report's device comes from its argv and the files it names alone.
    cfg = tmp_path / "dev.json"
    cfg.write_text('{"TMR0": 0}')
    monkeypatch.setenv("SOTLOGIC_CONFIG", str(cfg))
    argv = "truth-table --topology 2t1r --gate nor --inputs 2 --format csv"
    assert record(argv.split(), tmp_path) == RECORDED[argv]
