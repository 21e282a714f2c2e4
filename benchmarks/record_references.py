"""Record references.json, the outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs define correct:

    python3 benchmarks/record_references.py

Nominal commands get their exit code and the digest of their data rows.
``mc`` commands get their exit code and each pattern's success rate over
REF_TRIALS trials at REF_SEED, a seed the benchmark never passes (its mc
seeds are below 2**32).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import workloads
from run import OUT, SRC, invoke

REF_TRIALS = 20000
REF_SEED = 2 ** 32 + 12345


def main() -> int:
    sys.path.insert(0, str(SRC))
    from sotlogic import cli
    out_dir = OUT / "record"
    refs = {}
    for name in workloads.NAMES:
        for command in workloads.build(name, seed=0).commands:
            if command.ref_key in refs:
                continue
            argv = command.argv
            if command.mc_trials:
                argv = tuple(command.ref_key.split()) + (
                    "--trials", str(REF_TRIALS), "--workers", "2",
                    "--seed", str(REF_SEED))
            shutil.rmtree(out_dir, ignore_errors=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code, _ = invoke(cli, argv + ("--out", str(out_dir)))
            files = checks.read_outputs(out_dir)
            if command.mc_trials:
                s_cols, s_rows, _, _ = checks.mc_tables(files)
                in_cols = [k for k, c in enumerate(s_cols)
                           if c.startswith("IN")]
                i_succ = s_cols.index("successes")
                rates = {"".join(row[k] for k in in_cols):
                         int(row[i_succ]) / REF_TRIALS for row in s_rows}
                refs[command.ref_key] = {"exit": code, "trials": REF_TRIALS,
                                         "seed": REF_SEED, "rates": rates}
            else:
                refs[command.ref_key] = {
                    "exit": code, "data_sha256": checks.data_digest(files)}
            print(command.ref_key, code, file=sys.stderr)
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
