"""The calls the benchmark makes (perfbench/workloads.py) still run and give right answers.

``MarginalsWide`` builds its CRFs as ``CrfModel(hidden, obs, tuple(Table2(v)
for v in V), ...)``, converts them with ``crf_to_hmc_generalized`` and reads
the HMC's ``init.log_values`` and the ``log_values`` of each of its
``transitions`` and ``emissions``.  ``ConvertLong`` and ``ConvertVerify``
run ``convert`` (with ``--trace``) and ``verify --against`` through the CLI
and read the files written with perfbench's own reader.  ``DecodeStream``
runs ``decode --marginals`` through the CLI on a mixed-length file with
``--tile`` and on a fixed-length file with the CRF and its converted HMC.
Each operation
checks its output against perfbench's reference, which imports nothing from
chainequiv, and raises on a mismatch.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("workloads", "reference", "hostspeed", "modelfiles")


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, importable by the top-level names they use for each other."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield
    for name in MODULES:
        sys.modules.pop(name, None)


def test_marginals_wide_ops_run_and_pass_their_checks(perfbench, tmp_path):
    import workloads
    from hostspeed import Clock

    workload = workloads.MarginalsWide(1, tmp_path, Clock())
    ops = workload.ops()
    assert len(ops) == 2 * len(workload.MODELS)
    for op in ops:
        assert op().items == workload.COLUMNS


def test_convert_ops_run_and_pass_their_checks(perfbench, tmp_path):
    import workloads
    from hostspeed import Clock

    class ShortConvertLong(workloads.ConvertLong):
        LENGTH = 40

    class FewConvertVerify(workloads.ConvertVerify):
        MODELS = 12

    for cls, items in ((ShortConvertLong, 40), (FewConvertVerify, 1)):
        workload = cls(1, tmp_path / cls.name, Clock())
        ops = workload.ops()
        assert ops
        for op in ops:
            assert op().items == items
        assert workload.verified


def test_decode_stream_ops_run_and_pass_their_checks(perfbench, tmp_path):
    import workloads
    from hostspeed import Clock

    class ShortDecodeStream(workloads.DecodeStream):
        MIXED_LINES, FIXED_LINES = 60, 30

    workload = ShortDecodeStream(1, tmp_path, Clock())
    ops = workload.ops()
    assert len(ops) == 3
    assert [op().items for op in ops] == [60, 30, 30]
    assert len(workload.verified) == 3
