#!/usr/bin/env python3
"""Write a fixed corpus of CLI runs, and compare two checkouts' corpora file by file.

On models of lengths 1-4 in both modes it runs ``random``, ``convert --trace``,
``decode`` with and without ``--tile`` and ``--marginals`` on CRF and HMC files,
time-varying and stationary, and ``verify --against --report`` and ``verify
--samples``, each in a forked child.  In both modes it also runs ``random`` and
``convert --trace`` on a model of 130 positions, 16 labels and 8 symbols, whose
arrays span several writer blocks (``JSON_BLOCK_CELLS``) and whose trace is
written by the forked writer, and ``verify --against --report`` on a model of 6
positions, 3 labels and 3 symbols, whose exhaustive check spans several
enumeration blocks (``ENUMERATION_BLOCK_CELLS``), and on it ``verify
--samples`` of 3000 sequences, drawn in 34 blocks.  On a stationary CRF of 20
positions, 8 labels and 4 symbols, on its converted HMC and on that HMC's
stationary copy, it runs ``decode --marginals`` with and without ``--tile`` on
120 lines of 20 symbols and with ``--tile`` on 150 lines of 10-30 symbols
(:func:`decode_runs`), so each chain call spans several product blocks
(``PRODUCT_BLOCK_ROWS``) and a padded tail.  On a stationary CRF of 64 labels
with potentials of 0 and -700, and on its HMCs, it runs ``decode --tile
--marginals`` on 300 lines of 2-6 symbols (:func:`wide_decode_runs`), which
reach the kernel's exact recompute of underflowed entries.  On copies of the
generalized 130-position CRF whose first hidden symbol has an escaped
character or is spelled ``-inf``, and of the strict 2-position CRF whose
first hidden symbol has an escaped character, which the reader must check
cell by cell (:func:`checked_reader_runs`), it runs ``convert --trace`` and
``decode --marginals``; the unchanged CRFs are read by the plain path, so
both reader paths are compared on a long and on a small model.  On a copy of
the generalized 130-position CRF with ``V[:, 0, 0]`` and ``V[:, -1, -1]`` set
to ``-inf`` it runs ``convert --trace`` (:func:`token_edge_runs`), so every
writer block of the trace's phi starts and ends on a ``"-inf"`` token.
Then it runs each
command's failures (:func:`failures`): bad options, files of the wrong kind,
shape or syntax, a CRF of zero weight, two inputs from stdin's one pipe or
from one FIFO, a model or sequence file on stdin that is not UTF-8, outputs
that cannot be written, and the budget and tolerance verdicts.
OUTDIR keeps every file written, and each command's stdout, stderr and exit
code as ``NAME.out``, ``.err``, ``.code``.  A run still going after
``TIMEOUT`` seconds is killed by SIGALRM, and its code is recorded as -14.

``--compare A B`` compares two such directories (:func:`compare`): a file
matches when its bytes are the same in both, or when it is a ``.json`` file
whose two copies parse to the same tree with every float bit-equal, so a
change of number text alone (``2e-05`` against ``0.00002``) still matches.
It prints each file that does not match and exits 1 if there is one.
Usage:

    python scripts/cli_differential.py OUTDIR
    python scripts/cli_differential.py --compare OUTDIR OTHER   # OTHER from a copy in another checkout
"""

import argparse
import json
import os
import signal
import struct
import sys
import traceback
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chainequiv import cli

TIMEOUT = 10
SEQUENCES = "o0\no1 o0\n\no0 o1 o1\no1 o1 o0 o0\no2 o0\no0 o0 o1 o1 o0\no1\n"
DECODE_FLAGS = ((), ("--tile",), ("--marginals",), ("--tile", "--marginals"))


def run(name: str, *argv: str, stdin: str | None = None):
    """Run ``chainequiv argv``, its stdout, stderr and exit code saved under ``name``.

    With ``stdin``, the bytes of that file reach the command through a pipe;
    the file must fit in the pipe's buffer.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        signal.alarm(TIMEOUT)
        try:
            if stdin is not None:
                read_end, write_end = os.pipe()
                os.write(write_end, Path(stdin).read_bytes())
                os.close(write_end)
                os.dup2(read_end, 0)
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


def lines(path: str, lengths, symbols: int, seed: int):
    """Write a sequence file of one line per entry of ``lengths``, of random symbols ``o0``, ``o1``, ..."""
    rng = np.random.default_rng(seed)
    Path(path).write_text("".join(" ".join(f"o{i}" for i in rng.integers(0, symbols, length)) + "\n"
                                  for length in lengths))


def decode_runs():
    """``decode --marginals`` of many lines on a stationary 8-label CRF, its HMC and a stationary HMC."""
    n, symbols = 20, 4
    run("k8-random", "random", "--n", str(n), "--hidden", "8", "--obs", str(symbols), "--seed", "8",
        "-o", "k8-crf.json")
    stationary("k8-crf.json", "k8-scrf.json", ("V", "U"))
    run("k8-convert", "convert", "k8-scrf.json", "-o", "k8-hmc.json")
    stationary("k8-hmc.json", "k8-shmc.json", ("trans", "emit"))
    lines("k8-fixed.txt", [n] * 120, symbols, seed=20)
    lines("k8-ragged.txt", np.random.default_rng(30).integers(10, 31, 150), symbols, seed=30)
    for model in ("scrf", "hmc"):
        for flags in (("--marginals",), ("--tile", "--marginals")):
            run(f"k8-decode-{model}-fixed{''.join(flags)}", "decode", f"k8-{model}.json", "k8-fixed.txt", *flags)
    for model in ("scrf", "hmc", "shmc"):  # the converted HMC is not stationary: lines of other lengths fail
        run(f"k8-decode-{model}-ragged--tile--marginals", "decode", f"k8-{model}.json", "k8-ragged.txt",
            "--tile", "--marginals")


def wide_decode_runs():
    """``decode --tile --marginals`` of 300 lines of 2-6 symbols on a stationary 64-label CRF and its HMCs.

    The CRF's pairwise table is 0 on the diagonal and -700 off it, and each
    label emits one symbol at 0 and the others at -700, so most entries of a
    step's scaled product fall below ``SCALED_FLOOR`` and are recomputed
    exactly; the 300 lines are more than one decode block at 2**20 // 64**2
    lines, a bound decode once had.
    """
    n, k, symbols = 6, 64, 4
    run("k64-random", "random", "--n", str(n), "--hidden", str(k), "--obs", str(symbols), "--seed", "64",
        "-o", "k64-random.json")
    if os.path.exists("k64-random.json"):
        doc = json.loads(Path("k64-random.json").read_text())
        pair = np.where(np.eye(k, dtype=bool), 0.0, -700.0)
        emit = np.where(np.arange(symbols) == np.arange(k)[:, None] % symbols, 0.0, -700.0)
        doc.update(V=[pair.tolist()] * (n - 1), U=[emit.tolist()] * n)
        Path("k64-scrf.json").write_text(json.dumps(doc, indent=2))
    run("k64-convert", "convert", "k64-scrf.json", "-o", "k64-hmc.json")
    stationary("k64-hmc.json", "k64-shmc.json", ("trans", "emit"))
    lines("k64-ragged.txt", np.random.default_rng(64).integers(2, n + 1, 300), symbols, seed=64)
    for model in ("scrf", "hmc", "shmc"):  # the converted HMC is not stationary: lines of other lengths fail
        run(f"k64-decode-{model}-ragged--tile--marginals", "decode", f"k64-{model}.json", "k64-ragged.txt",
            "--tile", "--marginals")


def checked_reader_runs():
    """``convert --trace`` and ``decode --marginals`` of CRFs whose first hidden symbol is respelled.

    A backslash anywhere in the text, or a symbol spelled ``-inf``, keeps the
    model-file reader from proving its cells plain, so these files take the
    checks of every cell: the long generalized CRF with an escaped quote or
    ``-inf``, and the strict 2-position CRF with an escaped quote.
    """
    lines("long-seqs.txt", [130] * 4, 8, seed=131)
    for name, source, symbol, seqs in (("escaped", "generalized-long-crf.json", 'h"0', "long-seqs.txt"),
                                       ("neg-inf", "generalized-long-crf.json", "-inf", "long-seqs.txt"),
                                       ("small-escaped", "strict-n2-crf.json", 'h"0', "seqs.txt")):
        if os.path.exists(source):
            doc = json.loads(Path(source).read_text())
            doc["hidden_symbols"][0] = symbol
            Path(f"{name}-crf.json").write_text(json.dumps(doc, indent=2))
        run(f"{name}-convert", "convert", f"{name}-crf.json", "-o", f"{name}-hmc.json", "--trace", f"{name}-trace.json")
        run(f"{name}-decode", "decode", f"{name}-crf.json", seqs, "--marginals")


def token_edge_runs():
    """``convert --trace`` of the long generalized CRF with its pairwise tables' first and last cells ``-inf``.

    phi's first and last cells are then ``-inf`` at every position, so each
    writer block of the trace's phi, a whole number of tables, starts and
    ends on the ``"-inf"`` token.
    """
    if os.path.exists("generalized-long-crf.json"):
        doc = json.loads(Path("generalized-long-crf.json").read_text())
        for table in doc["V"]:
            table[0][0] = table[-1][-1] = "-inf"
        Path("edge-inf-crf.json").write_text(json.dumps(doc, indent=2))
    run("edge-inf-convert", "convert", "edge-inf-crf.json", "-o", "edge-inf-hmc.json", "--trace", "edge-inf-trace.json")


def failures():
    """Runs that end in an exit code other than 0, ``fail-*``, on the models ``main`` wrote.

    A wrong length without ``--tile``, and ``--tile`` on a time-varying or a
    length-1 model, are among ``main``'s decode runs.
    """
    doc = json.loads(Path("strict-n2-crf.json").read_text())
    doc.update(mode="generalized", V=[[["-inf"] * 3] * 3])  # no labeling has weight
    Path("zero.json").write_text(json.dumps(doc))
    Path("bad.json").write_text('{"kind": "crf",')
    Path("bad-utf8.json").write_bytes(Path("strict-n2-hmc.json").read_bytes().replace(b'"o0"', b'"o\xff"', 1))
    Path("bad-utf8.txt").write_bytes(b"o0 o1\n\xff o0\n")
    os.mkfifo("fifo")  # removed after the runs: a corpus holds regular files only
    crf, hmc, unwritable = "strict-n2-crf.json", "strict-n2-hmc.json", "missing-dir/out.json"
    runs = {
        "random-n0": ("random", "--n", "0", "--hidden", "2", "--obs", "2"),
        "random-seed": ("random", "--n", "2", "--hidden", "2", "--obs", "2", "--seed", "-1"),
        "random-output": ("random", "--n", "2", "--hidden", "2", "--obs", "2", "-o", unwritable),
        "convert-hmc": ("convert", hmc),
        "convert-missing": ("convert", "missing.json"),
        "convert-bad-json": ("convert", "bad.json"),
        "convert-zero": ("convert", "zero.json"),
        "convert-output": ("convert", crf, "-o", unwritable),
        "convert-trace": ("convert", crf, "-o", "fail-convert-trace-hmc.json", "--trace", unwritable),
        "decode-stdin": ("decode", "-", "-"),
        "decode-dev-stdin-model": ("decode", "/dev/stdin", "-"),
        "decode-dev-stdin-sequences": ("decode", "-", "/dev/stdin"),
        "decode-dev-stdin-both": ("decode", "/dev/stdin", "/dev/stdin"),
        "decode-fifo-both": ("decode", "fifo", "fifo"),
        "verify-hmc": ("verify", hmc),
        "verify-against-crf": ("verify", crf, "--against", crf),
        "verify-against-shape": ("verify", crf, "--against", "strict-n3-hmc.json"),
        "verify-stdin": ("verify", "-", "--against", "-"),
        "verify-dev-stdin-model": ("verify", "/dev/stdin", "--against", "-"),
        "verify-dev-stdin-against": ("verify", "-", "--against", "/dev/stdin"),
        "verify-dev-stdin-both": ("verify", "/dev/stdin", "--against", "/dev/stdin"),
        "verify-fifo-both": ("verify", "fifo", "--against", "fifo"),
        "verify-zero": ("verify", "zero.json"),
        "verify-zero-evidence": ("verify", "zero.json", "--against", hmc),
        "verify-zero-evidence-samples": ("verify", "zero.json", "--against", hmc, "--samples", "4",
                                         "--budget", "20"),
        "verify-budget-0": ("verify", crf, "--budget", "0"),
        "verify-samples-0": ("verify", crf, "--samples", "0"),
        "verify-seed": ("verify", crf, "--seed", "-1"),
        "verify-labelings": ("verify", "strict-n4-crf.json", "--budget", "80"),
        "verify-enumerations": ("verify", "strict-n4-crf.json", "--budget", "100"),
        "verify-report": ("verify", crf, "--report", unwritable),
        "verify-tolerance-zero": ("verify", "strict-n4-crf.json", "--tolerance", "0"),
    }
    for tolerance in ("nan", "-1e-9", "inf", "-inf"):
        runs[f"verify-tolerance={tolerance}"] = ("verify", crf, f"--tolerance={tolerance}")
    for name, argv in runs.items():
        piped = hmc if argv[0] == "decode" else crf
        run(f"fail-{name}", *argv, stdin=piped if "/dev/stdin" in argv else None)
    run("fail-decode-stdin-model-not-utf8", "decode", "-", "seqs.txt", stdin="bad-utf8.json")
    run("fail-decode-stdin-sequences-not-utf8", "decode", hmc, "-", stdin="bad-utf8.txt")
    os.remove("fifo")


def same_tree(a, b) -> bool:
    """Whether two parsed JSON values are equal, with the same types, key order and float bits."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same_tree, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(same_tree(a[key], b[key]) for key in a)
    return a == b


def same_value(name: str, a: bytes, b: bytes) -> bool:
    """Whether ``name`` is a ``.json`` file and its texts ``a`` and ``b`` parse to the same tree."""
    if not name.endswith(".json"):
        return False
    try:
        return same_tree(json.loads(a), json.loads(b))
    except ValueError:  # not JSON, or not UTF-8
        return False


def compare(a: str, b: str) -> int:
    """Print the files of the corpora ``a`` and ``b`` that do not match, then a count; 1 if any."""
    names = {str(p.relative_to(root)) for root in map(Path, (a, b)) for p in root.rglob("*") if p.is_file()}
    failed, by_value = [], 0
    for name in sorted(names):
        paths = Path(a, name), Path(b, name)
        if not all(p.is_file() for p in paths):
            failed.append(f"{name}: only in {a if paths[0].is_file() else b}")
            continue
        texts = [p.read_bytes() for p in paths]
        if texts[0] == texts[1]:
            continue
        if same_value(name, *texts):
            by_value += 1
        else:
            failed.append(f"{name}: differs")
    for line in failed:
        print(line)
    print(f"{len(names)} files: {len(names) - len(failed)} match, {by_value} of them by value only; "
          f"{len(failed)} do not match")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("outdir", nargs="?", help="directory to write the corpus to")
    target.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two corpora")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    os.makedirs(args.outdir, exist_ok=True)
    os.chdir(args.outdir)
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
        m = f"{mode}-long"
        run(f"{m}-random", "random", "--n", "130", "--hidden", "16", "--obs", "8", "--seed", "130", "--mode", mode,
            "-o", f"{m}-crf.json")
        run(f"{m}-convert", "convert", f"{m}-crf.json", "-o", f"{m}-hmc.json", "--trace", f"{m}-trace.json")
        m = f"{mode}-n6"
        run(f"{m}-random", "random", "--n", "6", "--hidden", "3", "--obs", "3", "--seed", "6", "--mode", mode,
            "-o", f"{m}-crf.json")
        run(f"{m}-convert", "convert", f"{m}-crf.json", "-o", f"{m}-hmc.json")
        run(f"{m}-verify-against", "verify", f"{m}-crf.json", "--against", f"{m}-hmc.json",
            "--report", f"{m}-report.json")
        run(f"{m}-verify-samples", "verify", f"{m}-crf.json", "--samples", "3000", "--budget", "65536",
            "--report", f"{m}-samples-report.json")
    decode_runs()
    wide_decode_runs()
    checked_reader_runs()
    token_edge_runs()
    failures()
    return 0


if __name__ == "__main__":
    sys.exit(main())
