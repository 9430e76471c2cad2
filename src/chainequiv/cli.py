"""Batch command-line front end: random models, conversion, decoding, verification.

Model files are read and written by :mod:`chainequiv.modelfile`, and sequence
files decoded by :mod:`chainequiv.decode`.

Exit codes: 0 ok, 2 parse error, 3 degenerate model, 4 impossible
observation, 5 equivalence failure, 6 budget exceeded.
"""

import argparse
import functools
import math
import os
import stat
import sys
import traceback

import numpy as np

from .crf import MODES, STRICT, DegenerateModel, random_crf_model
from .decode import decode_lines, read_sequences
from .equivalence import crf_to_hmc
from .modelfile import ModelFile, ParseError, _write_json
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    all_sequences,
    block_rows,
    enumerate_crf_posterior_batch,
    enumerate_hmc_posterior_batch,
    posterior_matrix_marginals,
)
from .tables import ValidationError

# Not called in this module: perfbench/tracing.py wraps the per-line
# marginals and the conversion under these names.
from .crf import crf_posterior_marginals  # noqa: F401
from .equivalence import crf_to_hmc_generalized  # noqa: F401
from .hmc import hmc_posterior_marginals  # noqa: F401

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DEGENERATE = 3
EXIT_IMPOSSIBLE = 4
EXIT_MISMATCH = 5
EXIT_BUDGET = 6

# ``convert --trace`` writes a trace of at least FORK_CELLS cells from a forked
# process while this one writes the HMC (see _write_outputs).  The writer
# takes about 0.14-0.25 us a cell, and fork plus wait about 4 ms.  On a 2-vCPU
# Xeon, converting k = 16 models in one process, forking cost 1.9-2.4 ms at
# 11,264 trace cells, broke even within about 1 ms from 17,000 to 34,000,
# and saved 2-5 ms at 46,000-69,000 and 10-15 ms at 138,000.
FORK_CELLS = 2**15


def _same_target(a: str, b: str) -> bool:
    """Whether the output paths ``a`` and ``b`` name one target: both stdout, or one file.

    ``-`` and a path are one target when stdout's descriptor and the path
    stat as one file (``/dev/stdout``, or the file stdout is redirected to);
    a stdout without a file descriptor is never a path's target.
    """
    if a == b:
        return True
    if "-" in (a, b):
        try:
            return os.path.samestat(os.fstat(sys.stdout.fileno()), os.stat(b if a == "-" else a))
        except (OSError, ValueError):  # no descriptor, or a file that does not exist yet
            return False
    try:
        return os.path.samefile(a, b)
    except OSError:  # a file that does not exist yet
        return os.path.realpath(a) == os.path.realpath(b)


def _one_stream(a: str, b: str | None) -> str | None:
    """Where the input paths ``a`` and ``b`` would both read one stream from: "stdin", "one pipe" or None.

    They do when both are ``-``, and when both stat as one file that is not
    regular (a pipe, FIFO or terminal, ``-`` standing for stdin's own
    descriptor), whose bytes only one read gets.  The stream is stdin's when
    one path is ``-`` or it is stdin's descriptor (``/dev/stdin``, say).  A
    regular file, stdin's or not, is never refused: each open of its path
    reads it from its start.
    """
    if b is None:
        return None
    if a == b == "-":
        return "stdin"

    def status(path):
        return os.fstat(sys.stdin.fileno()) if path == "-" else os.stat(path)

    try:
        shared = status(a)
        if stat.S_ISREG(shared.st_mode) or not os.path.samestat(shared, status(b)):
            return None
    except (OSError, ValueError):  # no descriptor, or a path that does not exist
        return None
    if "-" in (a, b):
        return "stdin"
    try:
        return "stdin" if os.path.samestat(shared, status("-")) else "one pipe"
    except (OSError, ValueError):
        return "one pipe"


def _write_outputs(writes, cells: int):
    """Run ``writes``, two ``(path, write)`` pairs, one after the other or both at once.

    They run at once (:func:`_write_forked`) when ``cells`` is at least
    FORK_CELLS, the platform has ``os.fork`` and the paths name different
    targets; in order when the fork itself fails.  In order, stdout is
    flushed between the writes, and when the first wrote stdout's own
    file through its path and the second writes ``-``, stdout's file is
    started again, as a second open of the path would, so the bytes are
    those of one path named twice.
    """
    (path_a, write_a), (path_b, write_b) = writes
    same = _same_target(path_a, path_b)
    if cells >= FORK_CELLS and hasattr(os, "fork") and not same and _write_forked(writes):
        return
    write_a()
    sys.stdout.flush()  # before write_b opens a path that may be stdout's file
    if same and path_b == "-" != path_a and sys.stdout.seekable():
        sys.stdout.seek(0)
        sys.stdout.truncate()
    write_b()


def _write_forked(writes) -> bool:
    """Run ``writes`` at once, one in a forked child; False, with nothing written, if the fork fails.

    The child runs the write with a file path, the second when both have
    one, and leaves through ``os._exit``, so it never returns into the
    caller and never touches stdout; it only formats text and writes one
    file, with no BLAS call.  This process runs the other write meanwhile
    and reaps the child on every path.  A write that fails with ParseError
    (``cannot write``) leaves the other's output complete; once both are
    done, the failure is raised here, the first write's when both fail.
    Any other failure of the child raises RuntimeError with the child's
    traceback.  A pipe or fork refused by the system (EMFILE, EAGAIN,
    ENOMEM) closes what was opened and returns False.
    """
    child = 1 if writes[1][0] != "-" else 0
    sys.stdout.flush()
    sys.stderr.flush()
    ends = ()
    try:
        ends = read_end, write_end = os.pipe()
        pid = os.fork()
    except OSError:
        for end in ends:
            os.close(end)
        return False
    if pid == 0:
        _run_forked(writes[child][1], read_end, write_end)
    os.close(write_end)
    failures = {}
    try:
        writes[1 - child][1]()
    except ParseError as e:
        failures[1 - child] = e
    finally:
        with open(read_end, "rb") as pipe:
            report = pipe.read().decode()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == EXIT_PARSE:
        failures[child] = ParseError(report)
    elif code != EXIT_OK:
        raise RuntimeError(f"the writer of {writes[child][0]} exited with {code}:\n{report}")
    if failures:
        raise failures[min(failures)]
    return True


def _run_forked(write, read_end: int, write_end: int):
    """The child of :func:`_write_forked`: run ``write``, send any failure down the pipe, exit."""
    code = 1
    try:
        os.close(read_end)
        try:
            write()
            code, report = EXIT_OK, ""
        except ParseError as e:
            code, report = EXIT_PARSE, str(e)
        except BaseException:
            report = traceback.format_exc()
        with open(write_end, "wb") as pipe:
            pipe.write(report.encode())
    finally:
        os._exit(code)



# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_random(args) -> int:
    model = random_crf_model(args.n, args.hidden, args.obs, seed=args.seed, mode=args.mode)
    ModelFile.from_crf(model).dump(args.output)
    return EXIT_OK


def _load(path: str, kind: str, who: str):
    """The model in the ``kind`` model file at ``path``; ``who`` names the command or option in errors."""
    mf = ModelFile.load(path)
    if mf.kind != kind:
        raise ParseError(f'kind: {who} expects {"an" if kind == "hmc" else "a"} "{kind}" model file')
    return mf.to_model()


def cmd_convert(args) -> int:
    model = _load(args.model, "crf", "convert")
    hmc, trace = crf_to_hmc(model)

    def write_hmc():
        ModelFile.from_hmc(hmc, mode=model.mode).dump(args.output)

    if args.trace is None:
        write_hmc()
    else:
        doc = {
            "psi": trace.psi.log_values,
            "phi": trace.phi.log_values,
            "beta": trace.beta.log_values,
            "unreachable": [sorted(u) for u in trace.unreachable],
        }
        cells = sum(doc[key].size for key in ("psi", "phi", "beta"))
        _write_outputs([(args.output, write_hmc),
                        (args.trace, functools.partial(_write_json, args.trace, doc))], cells)
    return EXIT_OK


def cmd_decode(args) -> int:
    """MPM labels per nonblank sequence line, and with ``--marginals`` its marginal columns."""
    stream = _one_stream(args.model, args.sequences)
    if stream:
        raise ParseError(f"the model and the sequences cannot both come from {stream}")
    model = ModelFile.load(args.model).to_model()
    bad, impossible = decode_lines(model, read_sequences(args.sequences), args.tile, args.marginals)
    return EXIT_PARSE if bad else EXIT_IMPOSSIBLE if impossible else EXIT_OK


def _exhaustive_blocks(symbols: int, length: int, rows: int):
    """Every observation sequence in lexicographic order, in blocks of at most ``rows`` (at least one).

    A block is one prefix followed by all its ``symbols**j`` continuations,
    the largest such count within ``rows``, whose emission partial sums the
    enumeration shares; it is built from its prefix, so only one block of
    sequences exists at a time.
    """
    j = 0
    while j < length and symbols ** (j + 1) <= rows:
        j += 1
    tails = all_sequences(symbols, j)
    for head in all_sequences(symbols, length - j):
        yield np.column_stack((np.broadcast_to(head, (len(tails), length - j)), tails))


def _sampled_blocks(symbols: int, length: int, rows: int, samples: int, seed: int):
    """``samples`` random observation sequences, drawn ``rows`` at a time from ``default_rng(seed)``.

    numpy draws bounded integers one after another from the generator's
    stream, so the blocks are the rows of one whole draw of ``samples``
    sequences, while only one block of them exists at a time.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, samples, rows):
        yield rng.integers(0, symbols, size=(min(rows, samples - start), length), dtype=np.intp)


def cmd_verify(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise ParseError(f"--tolerance must be a finite number >= 0, got {args.tolerance}")
    if args.budget < 1:
        raise ParseError(f"--budget must be at least 1, got {args.budget}")
    if args.samples is not None and args.samples < 1:
        raise ParseError(f"--samples must be at least 1, got {args.samples}")
    if args.seed < 0:
        raise ParseError(f"--seed must be at least 0, got {args.seed}")
    stream = _one_stream(args.model, args.against)
    if stream:
        raise ParseError(f"the model and --against cannot both come from {stream}")
    model = _load(args.model, "crf", "verify")
    if args.against is None:
        hmc = crf_to_hmc(model)[0]
    else:
        hmc = _load(args.against, "hmc", "--against")
        if (hmc.hidden.symbols != model.hidden.symbols or hmc.obs.symbols != model.obs.symbols
                or hmc.length != model.length):
            raise ParseError("--against model does not match the CRF's alphabets and length")

    k, l, n = model.hidden.size, model.obs.size, model.length
    num_labelings = k**n
    if num_labelings > args.budget:
        raise BudgetExceeded(f"{k}^{n} = {num_labelings} labelings exceed the budget of {args.budget}")
    exhaustive = l**n * num_labelings <= args.budget
    rows = block_rows(num_labelings, args.budget)
    if exhaustive:
        blocks = _exhaustive_blocks(l, n, rows)
    elif args.samples is not None:
        blocks = _sampled_blocks(l, n, rows, args.samples, args.seed)
    else:
        raise BudgetExceeded(f"exhaustive check needs {l}^{n} * {k}^{n} = {l**n * num_labelings} "
                             f"enumerations, over the budget of {args.budget}; pass --samples")

    checked = skipped = 0
    worst = -1.0
    worst_y = worst_rows = None
    for block in blocks:
        pc, log_kappa = enumerate_crf_posterior_batch(model, block, budget=args.budget)
        ph, _ = enumerate_hmc_posterior_batch(hmc, block, budget=args.budget)
        valid = ~np.isneginf(log_kappa)
        skipped += int((~valid).sum())
        if not valid.any():
            continue
        if not valid.all():
            pc, ph, block = pc[valid], ph[valid], block[valid]
        # A NaN can only fill a whole dead HMC row, whose NaN maximum is overwritten.
        diffs = np.abs(pc - ph).max(axis=1)
        diffs[np.isnan(ph[:, 0])] = 1.0
        checked += len(block)
        i = int(np.argmax(diffs))
        if diffs[i] > worst:
            worst = float(diffs[i])
            worst_y = tuple(int(v) for v in block[i])
            worst_rows = pc[i:i + 1].copy(), np.nan_to_num(ph[i:i + 1], nan=0.0)

    if checked == 0:
        raise DegenerateModel("every checked observation sequence has zero evidence")
    mc, mh = (posterior_matrix_marginals(p, k, n) for p in worst_rows)
    worst_pos = int(np.argmax(np.abs(mc - mh).max(axis=2)))

    passed = worst <= args.tolerance
    report = {
        "hidden_size": k,
        "obs_size": l,
        "n": n,
        "mode": model.mode,
        "exhaustive": bool(exhaustive),
        "sequences_checked": int(checked),
        "sequences_skipped_zero_evidence": int(skipped),
        "max_discrepancy": float(worst),
        "worst_y": [model.obs.symbol(i) for i in worst_y],
        "worst_position": worst_pos,
        "tolerance": float(args.tolerance),
        "passed": bool(passed),
    }
    print(f"checked {checked} observation sequence(s)"
          + (f", skipped {skipped} with zero evidence" if skipped else "")
          + f" ({'exhaustive' if exhaustive else 'sampled'})")
    print(f"max posterior discrepancy: {worst:.3e} (tolerance {args.tolerance:.1e})")
    print(f"worst y: {' '.join(report['worst_y'])} (position {worst_pos})")
    print("PASS" if passed else "FAIL")
    if args.report is not None:
        _write_json(args.report, report)
    return EXIT_OK if passed else EXIT_MISMATCH


# Built once per process: ``main`` only calls ``parse_args`` on it, which
# returns a fresh namespace each time and leaves the parser as it was.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainequiv",
        description="Linear-chain CRFs, hidden Markov chains, and the exact conversion between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("random", help="generate a seeded random CRF model file")
    p.add_argument("--n", type=int, required=True, help="sequence length (>= 1)")
    p.add_argument("--hidden", type=int, required=True, help="number of hidden labels")
    p.add_argument("--obs", type=int, required=True, help="number of observation symbols")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--mode", choices=MODES, default=STRICT,
                   help='"generalized" zeroes each cell with probability 0.1')
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("convert", help="construct the HMC equivalent to a CRF model file")
    p.add_argument("model", help='CRF model file (or "-" for stdin)')
    p.add_argument("-o", "--output", default="-", help="output path (default stdout)")
    p.add_argument("--trace", metavar="FILE",
                   help="also write the psi/phi/beta construction trace as JSON")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("decode", help="MPM-decode observation sequences with a model file")
    p.add_argument("model", help='CRF or HMC model file (or "-" for stdin)')
    p.add_argument("sequences", help="text file, one whitespace-separated sequence per line")
    p.add_argument("--marginals", action="store_true",
                   help="append per-position marginal columns (6 decimals)")
    p.add_argument("--tile", action="store_true",
                   help="retile a time-homogeneous model to each line's length")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="check a CRF and its constructed HMC agree on every y")
    p.add_argument("model", help='CRF model file (or "-" for stdin)')
    p.add_argument("--against", metavar="FILE",
                   help="verify against this HMC file instead of constructing one")
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="max allowed posterior discrepancy (default 1e-9)")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max labelings enumerated at once (default 10^6)")
    p.add_argument("--samples", type=int, default=None,
                   help="check this many random y instead of all of them")
    p.add_argument("--seed", type=int, default=0, help="seed for --samples (default 0)")
    p.add_argument("--report", metavar="FILE",
                   help='write a machine-readable JSON report ("-" for stdout, after the summary)')
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    """Run the command in ``argv``; an error it raises becomes one ``error:`` line and an exit code."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as e:
        code, message = EXIT_PARSE, str(e)
    except DegenerateModel as e:
        code, message = EXIT_DEGENERATE, str(e)
    except BudgetExceeded as e:
        code, message = EXIT_BUDGET, str(e)
    print(f"error: {message}", file=sys.stderr)
    return code
