"""The benchmark's ops and oracles, run once as part of the test suite.

Runs the ``geodesic`` op (verify-geodesic on G(9,3,4), checked against the
pinned output digest), the ``hecke-verify`` ops of pass 1 (H(3,3,4) and
H(3,1,3) with associativity sample seed 1) and the first two
``hecke-reduce`` ops of seed 1 through the benchmark's own
``worker.run_op`` and ``worker.check``, so that a change to gdeen that the
benchmark would reject fails here too.  Every layer module that the
benchmark's tracer wraps must also import.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layertrace  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import gdeen  # noqa: E402
import gdeen.cli  # noqa: E402

OPS = (
    [("geodesic", op) for op in workloads.make_ops("geodesic", 1, 0, 1)]
    + [("hecke-verify", op) for op in workloads.make_ops("hecke-verify", 1, 1, 2)]
    + [("hecke-reduce", op) for op in workloads.make_ops("hecke-reduce", 1, 0, 1)[:2]]
)


def _op_id(workload, op):
    if workload == "hecke-verify":
        return f"{workload}-{workloads.algebra_name(op['family'], op['p'], op['n'])}-{op['seed']}"
    return f"{workload}-{op.get('pool_index', 0)}"


@pytest.mark.parametrize(("workload", "op"), OPS, ids=[_op_id(w, op) for w, op in OPS])
def test_bench_op_passes_its_oracle(workload, op):
    out, code = worker.run_op(gdeen, op)
    assert code == 0
    errors, _, _ = worker.check(gdeen, workload, op, out, workloads.load_golden())
    assert errors == []


@pytest.mark.parametrize("layer", layertrace.LAYERS)
def test_every_traced_layer_imports(layer):
    # the trace installs on gdeen.<layer> for every layer it lists
    importlib.import_module(f"gdeen.{layer}")
