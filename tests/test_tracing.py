"""The benchmark tracer (perfbench/tracing.py) still finds every patch point it names.

The tracer wraps package functions by the names their calling modules look
them up under, so a renamed or moved function breaks ``perfbench/run.py
--trace 1`` without failing any other test.
"""

import importlib.util
from pathlib import Path

from chainequiv import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_resolve_install_and_restore(tmp_path, capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    patches = tracing.program_patches(tracer)
    originals = [(owner, attr, current(owner, attr)) for owner, attr, _ in patches]
    crf, hmc, seqs = (str(tmp_path / name) for name in ("crf.json", "hmc.json", "seqs.txt"))
    Path(seqs).write_text("o0 o1 o0\no1 o1 o0\n")

    with tracer.installed(patches):
        for owner, attr, replacement in patches:
            assert current(owner, attr) is replacement
        assert cli.main(["random", "--n", "3", "--hidden", "2", "--obs", "2", "-o", crf]) == 0
        assert cli.main(["convert", crf, "-o", hmc]) == 0
        assert cli.main(["decode", crf, seqs, "--marginals"]) == 0
        assert cli.main(["decode", hmc, seqs, "--marginals"]) == 0
        assert cli.main(["verify", crf, "--against", hmc]) == 0

    for owner, attr, original in originals:
        assert current(owner, attr) is original
    names = {span[0] for span in tracer.spans}
    assert names >= {"cli.main", "cli.parse", "cli.format", "cli.read_sequences",
                     "crf.model_build", "hmc.model_build", "crf.marginals", "hmc.marginals",
                     "tables.chain",
                     "equivalence.convert", "equivalence.psi", "equivalence.phi",
                     "equivalence.beta", "oracle.enumerate", "oracle.marginals"}
    assert tracer.counts["tables.log_sum_exp_calls"] > 0
    assert tracer.counts["oracle.labelings_scored"] > 0
