"""The benchmark's ops and oracles, run once as part of the test suite.

Runs the ``geodesic`` op (verify-geodesic on G(9,3,4), checked against the
pinned output digest) and the first two ``hecke-reduce`` ops of seed 1
through the benchmark's own ``worker.run_op`` and ``worker.check``, so that
a change to gdeen that the benchmark would reject fails here too.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import worker  # noqa: E402
import workloads  # noqa: E402

import gdeen  # noqa: E402
import gdeen.cli  # noqa: E402

OPS = [
    ("geodesic", op) for op in workloads.make_ops("geodesic", 1, 0, 1)
] + [("hecke-reduce", op) for op in workloads.make_ops("hecke-reduce", 1, 0, 1)[:2]]


@pytest.mark.parametrize(
    ("workload", "op"), OPS, ids=[f"{w}-{op.get('pool_index', 0)}" for w, op in OPS]
)
def test_bench_op_passes_its_oracle(workload, op):
    out, code = worker.run_op(gdeen, op)
    assert code == 0
    errors, _, _ = worker.check(gdeen, workload, op, out, workloads.load_golden())
    assert errors == []
