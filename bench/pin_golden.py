"""Write golden.json: the output digests that every benchmark op is checked
against.

    python3 bench/pin_golden.py

The digests pin the outputs of the commit this is run on, byte for byte:
the verify-geodesic stdout, each verify_hecke report (which does not
depend on the sample seed), and the stdout of hecke-reduce on every word
of the pool the workload draws from.  Re-pin only when an output change
is intended, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys

from worker import HERE, run_op

sys.path.insert(0, str(HERE.parent / "src"))

import gdeen  # noqa: E402
import gdeen.cli  # noqa: E402
import workloads as W  # noqa: E402


def main() -> int:
    golden: dict = {}
    (op,) = W.make_ops("geodesic", 0, 0, 1)
    out, code = run_op(gdeen, op)
    assert code == 0, code
    golden["geodesic"] = W.sha(out)
    golden["hecke-verify"] = {}
    for op in W.make_ops("hecke-verify", 0, 0, 1):
        report, _ = run_op(gdeen, op)
        name = W.algebra_name(op["family"], op["p"], op["n"])
        golden["hecke-verify"][name] = W.sha(json.dumps(report, sort_keys=True))
    golden["hecke-reduce"] = {}
    for family, (flags, _) in W.REDUCE_FAMILIES.items():
        digests = []
        for word in W.reduce_pool(family):
            out, code = run_op(gdeen, {"kind": "cli", "argv": ["hecke-reduce", *flags, "--word", word]})
            assert code == 0, (word, code)
            digests.append(W.short_sha(out))
        golden["hecke-reduce"][family] = digests
    W.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
