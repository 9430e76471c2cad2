#!/usr/bin/env python3
"""Write a fixed corpus of CLI runs, to compare two checkouts byte for byte.

On models of lengths 1-4 in both modes it runs ``random``, ``convert --trace``,
``decode`` with and without ``--tile`` and ``--marginals`` on CRF and HMC files,
time-varying and stationary, and ``verify --against --report`` and ``verify
--samples``, each in a forked child.  OUTDIR keeps every file written, and each
command's stdout, stderr and exit code as ``NAME.out``, ``.err``, ``.code``.  Usage:

    python scripts/cli_differential.py OUTDIR
    diff -r OUTDIR OTHER   # OTHER written by a copy of this script in another checkout
"""

import json
import os
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainequiv import cli

SEQUENCES = "o0\no1 o0\n\no0 o1 o1\no1 o1 o0 o0\no2 o0\no0 o0 o1 o1 o0\no1\n"
DECODE_FLAGS = ((), ("--tile",), ("--marginals",), ("--tile", "--marginals"))


def run(name: str, *argv: str):
    """Run ``chainequiv argv``, its stdout, stderr and exit code saved under ``name``."""
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            for fd, suffix in ((1, "out"), (2, "err")):
                os.dup2(os.open(f"{name}.{suffix}", os.O_WRONLY | os.O_CREAT | os.O_TRUNC), fd)
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
        finally:
            for stream in (sys.stdout, sys.stderr):
                stream.flush()
            os._exit(code)
    Path(f"{name}.code").write_text(f"{os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])}\n")


def stationary(src: str, dst: str, keys: tuple[str, str]):
    """Copy a model file with every table replaced by its first, if the file exists."""
    if os.path.exists(src):
        doc = json.loads(Path(src).read_text())
        doc.update({key: doc[key][:1] * len(doc[key]) for key in keys})
        Path(dst).write_text(json.dumps(doc, indent=2))


def main() -> int:
    os.makedirs(sys.argv[1], exist_ok=True)
    os.chdir(sys.argv[1])
    Path("seqs.txt").write_text(SEQUENCES)
    for mode in ("strict", "generalized"):
        for n in range(1, 5):
            m = f"{mode}-n{n}"
            run(f"{m}-random", "random", "--n", str(n), "--hidden", "3", "--obs", "2", "--seed",
                str(n), "--mode", mode, "-o", f"{m}-crf.json")
            stationary(f"{m}-crf.json", f"{m}-scrf.json", ("V", "U"))
            run(f"{m}-convert", "convert", f"{m}-crf.json", "-o", f"{m}-hmc.json", "--trace", f"{m}-trace.json")
            stationary(f"{m}-hmc.json", f"{m}-shmc.json", ("trans", "emit"))
            for model in ("crf", "scrf", "hmc", "shmc"):
                for flags in DECODE_FLAGS:
                    run(f"{m}-decode-{model}{''.join(flags)}", "decode", f"{m}-{model}.json",
                        "seqs.txt", *flags)
            run(f"{m}-verify-against", "verify", f"{m}-crf.json", "--against", f"{m}-hmc.json",
                "--report", f"{m}-report.json")
            run(f"{m}-verify-samples", "verify", f"{m}-crf.json", "--samples", "5", "--seed", "3", "--budget", "200")
    return 0


if __name__ == "__main__":
    sys.exit(main())
