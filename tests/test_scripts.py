"""Smoke test: the scripts under scripts/ run on small settings and succeed."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300)


def test_scripts_run_and_sweep_passes():
    sweep = run_script("equivalence_sweep.py", "--models", "20", "--max-length", "3")
    assert sweep.returncode == 0, sweep.stdout + sweep.stderr
    assert "PASS" in sweep.stdout.splitlines()

    stress = run_script("long_chain_stress.py", "--length", "30", "--trials", "2")
    assert stress.returncode == 0, stress.stdout + stress.stderr

    wide = run_script("long_chain_stress.py", "--length", "200", "--hidden", "16",
                      "--scale", "1000", "--trials", "1")
    assert wide.returncode == 0, wide.stdout + wide.stderr
    assert "PASS" in wide.stdout.splitlines()


def test_cli_differential_corpus_is_reproducible(tmp_path):
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        result = run_script("cli_differential.py", str(out))
        assert result.returncode == 0, result.stdout + result.stderr
    files = sorted(p.name for p in runs[0].iterdir())
    assert files == sorted(p.name for p in runs[1].iterdir())
    assert len(files) > 500
    for name in files:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    assert (runs[0] / "strict-n4-verify-against.code").read_text() == "0\n"
    assert "PASS" in (runs[0] / "generalized-n4-verify-samples.out").read_text()
    assert "cannot extend a length-1 model" in (runs[0] / "strict-n1-decode-hmc--tile.err").read_text()
    same = run_script("cli_differential.py", "--compare", *map(str, runs))
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout == f"{len(files)} files: {len(files)} match, 0 of them by value only; 0 do not match\n"


def test_cli_differential_compare_accepts_only_the_same_values(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "same.out").write_text("0.5\n")
    (a / "sub" / "m.json").write_text('{"x": [2e-05, "-inf", -0.0, 1e+16], "n": 2}\n')
    (b / "sub" / "m.json").write_text('{\n  "x": [0.00002, "-inf", -0.0, 1e16],\n  "n": 2\n}\n')
    result = run_script("cli_differential.py", "--compare", str(a), str(b))
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout == "2 files: 2 match, 1 of them by value only; 0 do not match\n"

    (b / "sub" / "m.json").write_text('{"x": [0.000020000000000000005, "-inf", -0.0, 1e16], "n": 2}\n')  # one ulp
    (b / "same.out").write_text("0.50\n")  # a number, but not a .json file
    (b / "extra.code").write_text("0\n")
    for name, old, new in (("sign.json", "[0.0]", "[-0.0]"), ("type.json", "[2.0]", "[2]"),
                           ("token.json", '["-inf"]', "[-1e308]"), ("order.json", '{"a": 1, "b": 2}',
                                                                    '{"b": 2, "a": 1}')):
        (a / name).write_text(old)
        (b / name).write_text(new)
    result = run_script("cli_differential.py", "--compare", str(a), str(b))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        f"extra.code: only in {b}", "order.json: differs", "same.out: differs", "sign.json: differs",
        "sub/m.json: differs", "token.json: differs", "type.json: differs",
        "7 files: 0 match, 0 of them by value only; 7 do not match"]
