"""The benchmark's workloads: generated inputs, the operations of one round, and output checks.

A workload object generates its inputs from the seed when it is built; that
is its set-up.  ``ops()`` lists the operations of one round; every run
repeats whole rounds.  An operation times only the program call, then checks
the outputs against :mod:`reference` or against properties of the method and
raises :class:`CheckFailed` on any mismatch.  Outputs are checked in full the
first time their bytes are seen; a later operation that writes the same bytes
has already been checked.
"""

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
from hostspeed import Clock
from modelfiles import read_model, read_trace_psi, symbols, write_crf, write_sequences

ROW_SUM_TOL = 1e-9
EQUIVALENCE_TOL = 1e-9
MARGINAL_TOL = 1e-9
LOG_TOTAL_REL_TOL = 1e-12
PSI_TOL = 1e-12
# Printed marginals carry 6 decimals, so they sit within half a unit of the
# last place of the exact value; the slack covers float rounding.
PRINTED_TOL = 5e-7 + 1e-12
TIE_TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass
class OpResult:
    seconds: float   # wall time of the program call(s) alone
    items: int       # lines, sequences, models or chain positions handled
    bytes_out: int   # bytes the CLI wrote: stdout plus output files


def _main(argv: list[str]) -> int:
    # Looked up at call time, so a traced run calls its wrapper.
    from chainequiv import cli

    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code


def run_cli(clock: Clock, argv: list[str], stdout_path: Path) -> tuple[int, float, str]:
    """``chainequiv.cli.main(argv)`` in-process: (exit code, seconds, stderr text)."""
    err = io.StringIO()
    with open(stdout_path, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, seconds = clock.time(_main, argv)
    return code, seconds, err.getvalue()


def digest(*paths: Path) -> str:
    h = hashlib.blake2b()
    for p in paths:
        h.update(Path(p).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def sizes(*paths: Path) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def uniform_crf(rng, n: int, k: int, l: int, scale: float, zero_prob: float):
    """(V, U) potentials i.i.d. uniform on [-scale, scale]; cells zeroed with ``zero_prob``."""
    V = rng.uniform(-scale, scale, (n - 1, k, k))
    U = rng.uniform(-scale, scale, (n, k, l))
    if zero_prob:
        V[rng.random(V.shape) < zero_prob] = -math.inf
        U[rng.random(U.shape) < zero_prob] = -math.inf
    return V, U


def check_rows_sum_to_one(what: str, probs: np.ndarray):
    gap = float(np.abs(probs.sum(axis=-1) - 1.0).max(initial=0.0))
    if not gap <= ROW_SUM_TOL:
        raise CheckFailed(f"{what}: a row sums to one only within {gap:.3e}")


def check_hmc_file(what: str, hmc: dict):
    for key in ("init", "trans", "emit"):
        check_rows_sum_to_one(f"{what} {key}", hmc[key])


def hmc_log_tables(hmc: dict):
    return tuple(reference.log_prob(hmc[key]) for key in ("init", "trans", "emit"))


def check_same_posterior_marginals(what: str, a, b):
    """Two reference forward-backward results ``(log_total, marginals)`` agree."""
    if (a[1] is None) != (b[1] is None):
        raise CheckFailed(f"{what}: one side has zero weight and the other does not")
    if a[1] is not None:
        gap = float(np.abs(a[1] - b[1]).max())
        if not gap <= EQUIVALENCE_TOL:
            raise CheckFailed(f"{what}: marginals differ by {gap:.3e}")


class Workload:
    name = ""
    item = ""

    def __init__(self, seed: int, workdir: Path, clock: Clock):
        self.clock = clock
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.verified = set()

    def ops(self) -> list:
        raise NotImplementedError


class DecodeStream(Workload):
    """CLI ``decode --marginals`` of line files with a small time-homogeneous CRF and its HMC."""

    name, item = "decode-stream", "lines"
    LABELS, SYMBOLS, MODEL_LENGTH = 8, 6, 20
    MIXED_LINES, FIXED_LINES = 2000, 1000

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        rng = np.random.default_rng([seed, 1])
        k, l, n = self.LABELS, self.SYMBOLS, self.MODEL_LENGTH
        self.V0 = rng.uniform(-5.0, 5.0, (k, k))
        self.U0 = rng.uniform(-5.0, 5.0, (k, l))
        self.crf = self.dir / "crf.json"
        self.hmc = self.dir / "hmc.json"
        write_crf(self.crf, np.broadcast_to(self.V0, (n - 1, k, k)),
                  np.broadcast_to(self.U0, (n, k, l)), "strict")
        # Line lengths cycle through 10..30 whatever the seed; symbols are seeded.
        self.mixed = [rng.integers(0, l, 10 + (i * 13) % 21) for i in range(self.MIXED_LINES)]
        self.fixed = list(rng.integers(0, l, (self.FIXED_LINES, n)))
        self.mixed_file = self.dir / "mixed.txt"
        self.fixed_file = self.dir / "fixed.txt"
        write_sequences(self.mixed_file, self.mixed)
        write_sequences(self.fixed_file, self.fixed)
        code, _, err = run_cli(self.clock, ["convert", str(self.crf), "-o", str(self.hmc)], self.dir / "convert.out")
        if code != 0:
            raise RuntimeError(f"set-up: convert exited {code}: {err.strip()}")
        self.hidden_index = {s: i for i, s in enumerate(symbols("h", k))}
        self.references = {}
        self.crf_labels = None

    def ops(self):
        return [
            lambda: self._decode("mixed-crf", self.crf, self.mixed_file, self.mixed, ["--tile"]),
            lambda: self._decode("fixed-crf", self.crf, self.fixed_file, self.fixed, []),
            lambda: self._decode("fixed-hmc", self.hmc, self.fixed_file, self.fixed, []),
        ]

    def _decode(self, which, model, seq_file, seqs, extra):
        out = self.dir / f"{which}.out"
        code, seconds, err = run_cli(self.clock, ["decode", str(model), str(seq_file), "--marginals"] + extra, out)
        if code != 0 or err:
            raise CheckFailed(f"decode {which}: exit code {code}, stderr {err[:200]!r}")
        data = out.read_bytes()
        labels = [line.split("\t", 1)[0] for line in data.decode().splitlines()]
        key = (which, hashlib.blake2b(data).hexdigest())
        if key not in self.verified:
            self._verify(which, data.decode(), seqs)
            self.verified.add(key)
        if which == "fixed-crf":
            self.crf_labels = labels
        elif which == "fixed-hmc" and labels != self.crf_labels:
            raise CheckFailed("decode: CRF and converted-HMC label columns differ on the fixed-length file")
        return OpResult(seconds, len(seqs), len(data))

    def _reference(self, which, i, y):
        key = (which, i)
        if key not in self.references:
            if which == "fixed-hmc":
                if "hmc" not in self.references:
                    self.references["hmc"] = hmc_log_tables(read_model(self.hmc))
                chain = reference.hmc_chain(*self.references["hmc"], y)
            else:
                chain = reference.tiled_crf_chain(self.V0, self.U0, y)
            self.references[key] = reference.forward_backward(*chain)[1]
        return self.references[key]

    def _verify(self, which, text, seqs):
        lines = text.splitlines()
        if len(lines) != len(seqs):
            raise CheckFailed(f"decode {which}: {len(lines)} output lines for {len(seqs)} input lines")
        for i, (line, y) in enumerate(zip(lines, seqs)):
            fields = line.split("\t")
            try:
                labels = [self.hidden_index[s] for s in fields[0].split(" ")]
                printed = np.array([[float(v) for v in f.split(",")] for f in fields[1:]])
            except (KeyError, ValueError) as e:
                raise CheckFailed(f"decode {which} line {i + 1}: unreadable output ({e})") from None
            ref = self._reference(which, i, y)
            if len(labels) != len(y) or printed.shape != ref.shape:
                raise CheckFailed(f"decode {which} line {i + 1}: wrong number of labels or marginals")
            gap = float(np.abs(printed - ref).max())
            if not gap <= PRINTED_TOL:
                raise CheckFailed(f"decode {which} line {i + 1}: printed marginals off by {gap:.3e}")
            picked = ref[np.arange(len(y)), labels]
            if (picked < ref.max(axis=1) - TIE_TOL).any():
                raise CheckFailed(f"decode {which} line {i + 1}: a label is not a posterior argmax")


@dataclass
class WideModel:
    mode: str
    V: np.ndarray
    U: np.ndarray
    ys: np.ndarray
    sample: np.ndarray
    crf: object
    hmc: object
    references: dict = field(default_factory=dict)
    crf_probs: np.ndarray | None = None


class MarginalsWide(Workload):
    """Library batch marginals, CRF and converted HMC, on 32 labels and 100 positions."""

    name, item = "marginals-wide", "sequences"
    LABELS, SYMBOLS, LENGTH, COLUMNS = 32, 8, 100, 200
    SAMPLED_COLUMNS = 4
    # (mode, potential range, share of zero-weight cells)
    MODELS = (("strict", 5.0, 0.0), ("strict", 500.0, 0.0), ("generalized", 5.0, 0.1))

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        from chainequiv import crf, equivalence, tables

        rng = np.random.default_rng([seed, 2])
        k, l, n = self.LABELS, self.SYMBOLS, self.LENGTH
        hidden = tables.Alphabet(tuple(symbols("h", k)))
        obs = tables.Alphabet(tuple(symbols("o", l)))
        self.models = []
        for mode, scale, zero_prob in self.MODELS:
            V, U = uniform_crf(rng, n, k, l, scale, zero_prob)
            ys = rng.integers(0, l, (self.COLUMNS, n))
            sample = rng.choice(self.COLUMNS, self.SAMPLED_COLUMNS, replace=False)
            model = crf.CrfModel(hidden, obs, tuple(tables.Table2(v) for v in V),
                                 tuple(tables.Table2(u) for u in U), mode=mode)
            hmc, _ = equivalence.crf_to_hmc_generalized(model)
            self.models.append(WideModel(mode, V, U, ys, sample, model, hmc))

    def ops(self):
        out = []
        for m in self.models:
            out.append(lambda m=m: self._batch(m, "crf"))
            out.append(lambda m=m: self._batch(m, "hmc"))
        return out

    def _batch(self, m: WideModel, side: str):
        from chainequiv import crf, hmc

        # Looked up at call time, so a traced run calls the wrappers.
        if side == "crf":
            (totals, log_marg), seconds = self.clock.time(crf.crf_posterior_marginals_batch, m.crf, m.ys)
        else:
            (totals, log_marg), seconds = self.clock.time(hmc.hmc_posterior_marginals_batch, m.hmc, m.ys)
        probs = self._check(m, side, totals, log_marg)
        if side == "crf":
            m.crf_probs = probs
        else:
            live = ~np.isnan(probs).any(axis=(1, 2))
            if not np.array_equal(live, ~np.isnan(m.crf_probs).any(axis=(1, 2))):
                raise CheckFailed(f"marginals {m.mode}: CRF and HMC disagree on zero-weight columns")
            gap = float(np.abs(probs[live] - m.crf_probs[live]).max(initial=0.0))
            if not gap <= EQUIVALENCE_TOL:
                raise CheckFailed(f"marginals {m.mode}: CRF and HMC marginals differ by {gap:.3e}")
        return OpResult(seconds, len(m.ys), 0)

    def _reference(self, m: WideModel, side: str, c: int):
        key = (side, c)
        if key not in m.references:
            if side == "crf":
                chain = reference.crf_chain(m.V, m.U, m.ys[c])
            else:
                tables = (m.hmc.init.log_values,
                          np.stack([t.log_values for t in m.hmc.transitions]),
                          np.stack([t.log_values for t in m.hmc.emissions]))
                chain = reference.hmc_chain(*tables, m.ys[c])
            m.references[key] = reference.forward_backward(*chain)
        return m.references[key]

    def _check(self, m: WideModel, side: str, totals, log_marg) -> np.ndarray:
        what = f"marginals {m.mode} {side}"
        if totals.shape != (self.COLUMNS,) or log_marg.shape != (self.COLUMNS, self.LENGTH, self.LABELS):
            raise CheckFailed(f"{what}: wrong output shapes {totals.shape}, {log_marg.shape}")
        probs = np.exp(log_marg)
        dead = np.isnan(probs).any(axis=(1, 2)) | ~np.isfinite(totals)
        for c in np.flatnonzero(dead):
            if self._reference(m, side, c)[1] is not None or totals[c] != -math.inf:
                raise CheckFailed(f"{what}: column {c} has NaN or a non-finite total, "
                                  "but the reference finds positive weight")
        check_rows_sum_to_one(what, probs[~dead])
        for c in m.sample:
            ref_total, ref_marg = self._reference(m, side, c)
            if ref_marg is None:
                continue
            if not reference.close_log(float(totals[c]), ref_total, LOG_TOTAL_REL_TOL):
                raise CheckFailed(f"{what}: column {c} log normalizer {totals[c]!r} vs {ref_total!r}")
            gap = float(np.abs(probs[c] - ref_marg).max())
            if not gap <= MARGINAL_TOL:
                raise CheckFailed(f"{what}: column {c} marginals off the reference by {gap:.3e}")
        return probs


class ConvertVerify(Workload):
    """CLI ``convert`` then ``verify --against`` for a few hundred small models."""

    name, item = "convert-verify", "models"
    # The acceptance grid, less the points whose exhaustive check exceeds
    # verify's default budget of 10**6 enumerated labelings.
    GRID = [(n, k, l) for n in range(1, 7) for k in (2, 3, 4) for l in (2, 3) if (k * l) ** n <= 10**6]
    MODELS = 210
    SAMPLED_PAIRS = 40

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        rng = np.random.default_rng([seed, 3])
        self.models = []
        for i in range(self.MODELS):
            n, k, l = self.GRID[i % len(self.GRID)]
            mode = "strict" if i % 2 == 0 else "generalized"
            V, U = uniform_crf(rng, n, k, l, 5.0, 0.1 if mode == "generalized" else 0.0)
            path = self.dir / f"crf{i}.json"
            write_crf(path, V, U, mode)
            self.models.append((path, V, U))
        self.pairs = {}
        for _ in range(self.SAMPLED_PAIRS):
            i = int(rng.integers(self.MODELS))
            n, _, l = self.GRID[i % len(self.GRID)]
            self.pairs.setdefault(i, []).append(rng.integers(0, l, n))
        self.degenerate = {}
        self.crf_posteriors = {}

    def ops(self):
        return [lambda i=i: self._convert_verify(i) for i in range(self.MODELS)]

    def _convert_verify(self, i):
        crf, V, U = self.models[i]
        hmc, report = self.dir / "hmc.json", self.dir / "report.json"
        out_c, out_v = self.dir / "convert.out", self.dir / "verify.out"
        code_c, seconds, _ = run_cli(self.clock, ["convert", str(crf), "-o", str(hmc)], out_c)
        code_v = None
        if code_c == 0:
            code_v, t, _ = run_cli(self.clock, ["verify", str(crf), "--against", str(hmc), "--report", str(report)], out_v)
            seconds += t
        if i not in self.degenerate:
            self.degenerate[i] = reference.crf_total_log_weight(V, U) == -math.inf
        if self.degenerate[i]:
            if code_c != 3:
                raise CheckFailed(f"model {i}: degenerate, but convert exited {code_c} (expected 3)")
            return OpResult(seconds, 1, sizes(out_c))
        if code_c != 0 or code_v != 0:
            raise CheckFailed(f"model {i}: convert exited {code_c}, verify exited {code_v}")
        key = (i, digest(hmc, report))
        if key not in self.verified:
            self._verify(i, hmc, report)
            self.verified.add(key)
        return OpResult(seconds, 1, sizes(out_c, out_v, hmc, report))

    def _verify(self, i, hmc_path, report_path):
        report = json.loads(report_path.read_text())
        if report.get("passed") is not True or not report.get("max_discrepancy", 1.0) <= EQUIVALENCE_TOL:
            raise CheckFailed(f"model {i}: verify report {report}")
        hmc = read_model(hmc_path)
        check_hmc_file(f"model {i}", hmc)
        tables = hmc_log_tables(hmc)
        _, V, U = self.models[i]
        for j, y in enumerate(self.pairs.get(i, [])):
            if (i, j) not in self.crf_posteriors:
                self.crf_posteriors[i, j] = reference.brute_force(*reference.crf_chain(V, U, y))[1]
            a = self.crf_posteriors[i, j]
            b = reference.brute_force(*reference.hmc_chain(*tables, y))[1]
            if (a is None) != (b is None):
                raise CheckFailed(f"model {i}: CRF and HMC disagree on whether y={list(y)} has weight")
            if a is not None:
                gap = float(np.abs(a - b).max())
                if not gap <= EQUIVALENCE_TOL:
                    raise CheckFailed(f"model {i}: brute-force posteriors differ by {gap:.3e} at y={list(y)}")


class ConvertLong(Workload):
    """CLI ``convert --trace`` of long chains, strict and generalized."""

    name, item = "convert-long", "positions"
    LENGTH, LABELS, SYMBOLS = 2000, 16, 8
    SAMPLED_YS = 2

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        rng = np.random.default_rng([seed, 4])
        self.models = []
        for mode in ("strict", "generalized"):
            V, U = uniform_crf(rng, self.LENGTH, self.LABELS, self.SYMBOLS, 5.0,
                               0.1 if mode == "generalized" else 0.0)
            path = self.dir / f"crf-{mode}.json"
            write_crf(path, V, U, mode)
            ys = rng.integers(0, self.SYMBOLS, (self.SAMPLED_YS, self.LENGTH))
            self.models.append((mode, path, V, U, ys))
        self.crf_references = {}

    def ops(self):
        return [lambda m=m: self._convert(m) for m in self.models]

    def _convert(self, m):
        mode, crf, V, U, ys = m
        hmc, trace, out = self.dir / "hmc.json", self.dir / "trace.json", self.dir / "convert.out"
        code, seconds, err = run_cli(self.clock, ["convert", str(crf), "-o", str(hmc), "--trace", str(trace)],
                                     out)
        if code != 0:
            raise CheckFailed(f"convert {mode}: exit code {code}, stderr {err[:200]!r}")
        key = (mode, digest(hmc, trace))
        if key not in self.verified:
            self._verify(m, hmc, trace)
            self.verified.add(key)
        return OpResult(seconds, self.LENGTH, sizes(out, hmc, trace))

    def _verify(self, m, hmc_path, trace_path):
        mode, _, V, U, ys = m
        psi = read_trace_psi(trace_path)
        ref_psi = np.logaddexp.reduce(U, axis=2)
        if psi.shape != ref_psi.shape or not np.array_equal(np.isneginf(psi), np.isneginf(ref_psi)):
            raise CheckFailed(f"convert {mode}: trace psi has the wrong shape or zero pattern")
        finite = np.isfinite(ref_psi)
        gap = float(np.abs(psi[finite] - ref_psi[finite]).max())
        if not gap <= PSI_TOL:
            raise CheckFailed(f"convert {mode}: trace psi off the reference by {gap:.3e}")
        hmc = read_model(hmc_path)
        check_hmc_file(f"convert {mode}", hmc)
        tables = hmc_log_tables(hmc)
        del hmc
        for j, y in enumerate(ys):
            if (mode, j) not in self.crf_references:
                self.crf_references[mode, j] = reference.forward_backward(*reference.crf_chain(V, U, y))
            check_same_posterior_marginals(f"convert {mode} y#{j}", self.crf_references[mode, j],
                                           reference.forward_backward(*reference.hmc_chain(*tables, y)))


WORKLOADS = {w.name: w for w in (DecodeStream, MarginalsWide, ConvertVerify, ConvertLong)}
