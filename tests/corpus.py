"""The report corpus: the argv whose report bytes tier-1 pins.

:func:`record` runs one argv of ``CORPUS`` in process, and
``corpus_digests.json`` holds each argv's record, one argv a line. Run as
a script, this module records every argv again, prints ``changed:
<argv>`` for each entry that differs from the manifest, and rewrites it::

    PYTHONPATH=src python tests/corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

from sotlogic.cli import CONFIG_ENV, main

MANIFEST = Path(__file__).with_name("corpus_digests.json")
TOPOLOGIES = ("2t1r", "vgsot")

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
    # A comment line outside ASCII, on the default 4x1 array.
    "smoke": "# caf\u00e9\nnor,0,0;1,2\nor,0,0;1,3\n",
}
GRID = "rows,cols,topology\n4,2,{topology}\n1,0\n0,1\n0,0\n1,1\n"

# The files an argv may name: a token equal to a key is written under the
# run's root and replaced by its path.
FIXTURES = {
    **{f"{name}.txt": text for name, text in RECIPES.items()},
    **{f"grid_{t}.csv": GRID.format(topology=t) for t in TOPOLOGIES},
    "ra12.json": '{"RA": 12.0}\n',
    "ki0.json": '{"Ki0": 1e-9}\n',  # no zero-bias barrier: exits 2
}

# mc campaigns, after "--topology --gate --inputs --format --trials 200
# --seed 11" (a later --trials overrides it): all four gates, flags that
# move the histogram and the verdicts, runs over two sampling blocks,
# patterns solved in groups of 2, 16 and 256, and several write chunks.
MC_CAMPAIGNS = """\
2t1r nor 1 csv
2t1r nand 3 json
2t1r or 3 csv --sigma-ra 0.1
2t1r and 1 json --trials 4099
vgsot or 1 json
vgsot and 3 csv --margin-fraction 0.2
vgsot nand 3 json --bins 7 --sigma-ra 0.05
vgsot nor 1 csv --trials 4099
vgsot and 4 json --trials 250
2t1r nor 8 csv --trials 16
vgsot or 3 csv --trials 1500
2t1r nand 2 json --trials 4099 --sigma-ra 0.05
2t1r nor 4 csv --trials 4200"""

# One argv a line: the op flags at a given drive (and write current); a
# plain command of each kind (the recipe has a non-ASCII comment) and
# negative flag values with exponents; and the failure exit codes:
# 1 (inseparable at zero drive, or a truth-table mismatch) and 2 (config
# errors, and "-nan", which argparse reads as mc's "-n" with the value
# "an").
LISTED = """\
margin --v-drive -1.2 --inputs 3
margin --topology vgsot --gate or --v-drive 1.2 --format json
sweep --axis RA --min 5 --max 50 --points 4 --v-drive 0.9
sweep --axis t_f --min 1e-9 --max 2e-9 --points 3 --topology vgsot \
--gate nand --v-drive 1.3 --i-sot 5e-5 --format json
truth-table
mc -n 70 --format json
gate --ops smoke.txt
margin --config ra12.json
sweep --axis RA --min 5 --max 50 --points 70
sweep --axis H_EX_Oe --mi -1e2 --max -1e1 --points 3
truth-table --topology vgsot --gate or --i-so -7e-5
truth-table --v-drive 0
mc -n 0
calibrate --config ki0.json
sweep --axis nonsense --min 0 --max 1
mc --sigma -nan"""


def key(argv) -> str:
    return " ".join(argv)


def _corpus() -> list:
    nominal = [[command, "--topology", t, "--gate", g, "--inputs", str(n),
                "--format", f]
               for command in ("truth-table", "margin", "calibrate")
               for t in TOPOLOGIES for g in ("nor", "nand", "or", "and")
               for n in range(1, 9) for f in ("csv", "json")]
    # Trials tables on both sides of report._MATRIX_ROWS (64 rows) and of
    # the 4096-row write chunk at 4 patterns, and of variation.BLOCK at 2.
    mc = [["mc", "--topology", t, "--inputs", n, "-n", trials, "--format", f]
          for t in TOPOLOGIES for f in ("csv", "json")
          for n, trials in (("2", "15"), ("2", "16"), ("2", "1024"),
                            ("2", "1025"), ("1", "4096"), ("1", "4097"))]
    # Trial numbers of 5 digits, two int groups a cell, over five chunks.
    mc += [["mc", "--inputs", "1", "-n", "10001", "--format", f]
           for f in ("csv", "json")]
    sweeps = [["sweep", "--axis", "RA", "--min", "5", "--max", "50",
               "--points", points, "--topology", t, "--format", f]
              for points in ("1", "63", "64", "250")
              for t in TOPOLOGIES for f in ("csv", "json")]
    campaigns = [["mc", "--topology", t, "--gate", g, "--inputs", n,
                 "--format", f, "--trials", "200", "--seed", "11", *flags]
                for t, g, n, f, *flags in map(str.split,
                                              MC_CAMPAIGNS.splitlines())]
    # Gate recipes: on a uniform array from --rows/--cols, on an --array
    # grid, and empty.
    recipes = [["gate", "--topology", t, "--format", f, "--ops",
                   f"{recipe}.txt",
                   *(["--ic-cal", "1.78"] if t == "2t1r" else []), *size]
                  for t in TOPOLOGIES for f in ("csv", "json")
                  for recipe, size in (
                      ("mixed", ["--rows", "5", "--cols", "2"]),
                      ("array", ["--array", f"grid_{t}.csv"]),
                      ("empty", ["--rows", "3"]))]
    corpus = (nominal + mc + sweeps + campaigns + recipes
              + [line.split() for line in LISTED.splitlines()])
    assert len({key(argv) for argv in corpus}) == len(corpus)
    return corpus


CORPUS = _corpus()


def record(argv, root) -> dict:
    """Run ``argv`` in process with its fixtures and ``--out`` under
    ``root``: its exit code and the sha256 of its stdout (with ``<out>``
    for the output directory) and of each file it writes. Stderr is not
    recorded: argparse words it differently across Python versions."""
    root = Path(root)
    for name in FIXTURES.keys() & set(argv):
        (root / name).write_bytes(FIXTURES[name].encode())
    out = root / "out"
    argv = [str(root / a) if a in FIXTURES else a for a in argv]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
    stdout = stdout.getvalue().replace(str(out), "<out>").encode()
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {"exit": code, "stdout": hashlib.sha256(stdout).hexdigest(),
            "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                      for p in files}}


def _rerecord() -> None:
    os.environ.pop(CONFIG_ENV, None)  # an argv's device is its own --config
    old = json.loads(MANIFEST.read_bytes()) if MANIFEST.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for argv in CORPUS:
            new[key(argv)] = record(argv, tempfile.mkdtemp(dir=tmp))
    for k in sorted(old.keys() | new.keys()):
        if old.get(k) != new.get(k):
            print(f"changed: {k}")
    lines = (f"{json.dumps(k)}: {json.dumps(new[k], sort_keys=True)}"
             for k in sorted(new))
    MANIFEST.write_bytes(("{\n" + ",\n".join(lines) + "\n}\n").encode())


if __name__ == "__main__":
    _rerecord()
