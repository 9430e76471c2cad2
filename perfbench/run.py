#!/usr/bin/env python3
"""chainequiv benchmark: one workload per process, outputs checked against an independent reference.

    python3 perfbench/run.py --workload decode-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout; the program is imported from ``src/``.
Each run sets up three times in fresh processes and reports the median as
``setup_s``, then repeats whole rounds of the workload's operations until
``--seconds`` have passed.  With ``--trace 0`` it reports the end-to-end
metrics, its timings scaled to a reference host speed (see hostspeed.py); with ``--trace 1`` it alternates untraced and traced rounds, after an
untraced warm-up round, and reports per-layer metrics from the traced ones
plus the tracing overhead: traced program time per round over untraced.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when no
operation failed.
"""

import os

# Pin BLAS to one thread before numpy loads, here and in every child process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_SAMPLES = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "op_ms": "ms",
}


def require_program():
    """Put ``src/`` on the path, or exit 2 when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "chainequiv" / "__init__.py").is_file():
        print(f"error: no chainequiv package under {src}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def time_setup(args, probe_dir: Path) -> float:
    """Seconds from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe", str(probe_dir)]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    seconds = time.perf_counter() - start
    shutil.rmtree(probe_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed with exit code {done.returncode}:\n{done.stderr}")
    return seconds


def geometric_mean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def measure(workload, args) -> tuple[dict, dict]:
    """Run whole rounds for ``args.seconds``; return the result object and run notes."""
    from tracing import Tracer, program_patches
    from workloads import CheckFailed

    ops = workload.ops()
    tracer = Tracer() if args.trace else None
    patches = program_patches(tracer) if args.trace else None
    clock = workload.clock
    # Untraced (program seconds, calibration marks of the operation, of its round)
    # of each operation, per round.
    op_samples = [[] for _ in ops]
    items = 0
    attempted = failed = 0
    correct = True
    round_program_s = {False: [], True: []}
    traced_bytes = 0
    rounds = 0
    # Untraced runs calibrate host speed while the program runs (hostspeed.py).
    with nullcontext() if args.trace else clock.sampling():
        start = time.perf_counter()
        while True:
            # A traced run starts with an untraced warm-up round, then alternates
            # traced and untraced rounds so the overhead compares warm rounds.
            traced = bool(args.trace) and rounds % 2 == 1
            program_s = 0.0
            round_begin = clock.mark()
            round_ops = []
            with tracer.installed(patches) if traced else nullcontext():
                if traced:
                    tracer.round = rounds
                for j, op in enumerate(ops):
                    attempted += 1
                    begin = clock.mark()
                    try:
                        r = op()
                    except CheckFailed as e:
                        failed += 1
                        correct = False
                        print(f"check failed: {e}", file=sys.stderr)
                        continue
                    except Exception:
                        failed += 1
                        traceback.print_exc()
                        continue
                    program_s += r.seconds
                    if traced:
                        traced_bytes += r.bytes_out
                    else:
                        round_ops.append((j, r.seconds, begin, clock.mark()))
                        items += r.items
            round_end = clock.mark()
            for j, seconds, begin, end in round_ops:
                op_samples[j].append((seconds, ((begin, end), (round_begin, round_end))))
            if rounds or not args.trace:
                round_program_s[traced].append(program_s)
            rounds += 1
            if time.perf_counter() - start >= args.seconds and (not args.trace or rounds >= 3):
                break

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
    notes = {"rounds": rounds}
    if args.trace:
        traced_rounds = len(round_program_s[True])
        overhead = statistics.median(round_program_s[True]) / statistics.median(round_program_s[False])
        result["metrics"] = tracer.layer_metrics(traced_rounds, traced_bytes, overhead)
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    elif items:
        raw = [[seconds for seconds, _ in samples] for samples in op_samples]
        scaled = [[clock.scaled(*sample) for sample in samples] for samples in op_samples]

        def throughput(times):
            return items / sum(map(sum, times))

        def op_ms(times):
            return geometric_mean(statistics.median(t) for t in times if t) * 1000

        notes.update(slowdown=clock.slowdown(), raw_throughput_per_s=throughput(raw), raw_op_ms=op_ms(raw))
        values = {
            "setup_s": args.setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "throughput_per_s": throughput(scaled),
            "op_ms": op_ms(scaled),
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return result, notes


def run_one(args) -> int:
    require_program()
    import reference
    from hostspeed import Clock
    from workloads import WORKLOADS

    workload_cls = WORKLOADS[args.workload]
    if args.setup_probe:
        import chainequiv  # noqa: F401  (importing the program is part of set-up)
        workload_cls(args.seed, Path(args.setup_probe), Clock())
        return 0

    reference.self_check()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup = [time_setup(args, workdir / f"probe{i}") for i in range(SETUP_SAMPLES)]
        args.setup_s = statistics.median(setup)
        workload = workload_cls(args.seed, workdir / "run", Clock())
        result, notes = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {notes['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()} "
          f"(throughput counts {workload_cls.item})")
    if "slowdown" in notes:
        print(f"  host slowdown {notes['slowdown']:.4f}; unscaled throughput "
              f"{notes['raw_throughput_per_s']:.6g} 1/s, op {notes['raw_op_ms']:.6g} ms")
    for name, m in result["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another; a combined summary at the end."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or done.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            code = code or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per run (default 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from traced rounds")
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
