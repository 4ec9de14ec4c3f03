"""One pass of a benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, so gdeen's process-global memo
caches start empty every time, as they do for each CLI call.  The pass
imports gdeen, builds its inputs, runs its ops (traced with --trace 1),
then checks every output outside the timed region and prints one JSON
record as the last line of standard output.

    python3 bench/worker.py --workload hecke-reduce --seed 1 --pass-index 0 \\
        --passes 3 --spawned-at <time.monotonic() of the parent> [--trace 1] [--setup-only]

Exit code 3 means gdeen could not be imported or the inputs not built.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_FAILED = 3


def run_op(gdeen, op: dict):
    """Run one op through gdeen's public entry points; returns the output
    (CLI stdout text, or the verify report) and the exit code."""
    if op["kind"] == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = gdeen.cli.main(list(op["argv"]))
        return buf.getvalue(), code
    make = gdeen.een if op["family"] == "een" else gdeen.d1n
    report = gdeen.verify_hecke(make(op["p"], op["n"]), samples=op["samples"], seed=op["seed"])
    return report, 0


def check(gdeen, workload: str, op: dict, out, golden: dict):
    """Failure messages for one op, plus (terms, coefficient monomials)
    of a hecke-reduce output."""
    if workload == "geodesic":
        return workloads.check_geodesic(op, out, golden), 0, 0
    if workload == "hecke-verify":
        return workloads.check_verify(op, out, golden), 0, 0
    group = {"een": gdeen.Params(1, 3, 4), "d1n": gdeen.Params(3, 1, 4)}

    def eval_text(family, word):
        return gdeen.eval_word(gdeen.parse_word(group[family], word))

    return workloads.check_reduce(op, out, golden, eval_text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    try:
        sys.path.insert(0, str(HERE.parent / "src"))
        import gdeen
        import gdeen.cli

        ops = workloads.make_ops(args.workload, args.seed, args.pass_index, args.passes)
    except Exception:
        traceback.print_exc()
        return SETUP_FAILED
    # time.monotonic() is CLOCK_MONOTONIC on Linux, shared by all processes
    setup_s = time.monotonic() - args.spawned_at
    record: dict = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(record))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    outputs, op_s, spans = [], [], []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            outputs.append(run_op(gdeen, op))
        except (Exception, SystemExit) as exc:
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        t1 = time.perf_counter()
        op_s.append(t1 - t0)
        spans.append([i, op.get("family", op["kind"]), t0 - start, t1 - start])
    wall_s = time.perf_counter() - start
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    golden = workloads.load_golden()
    failures: list[str] = []
    digests: list[str] = []
    failed = terms_max = coeff_max = 0
    for op, (out, code) in zip(ops, outputs):
        terms = coeff = 0
        if code != 0:
            errors = [f"{op.get('argv', op)} ended with {code}"]
        else:
            text = out if isinstance(out, str) else json.dumps(out, sort_keys=True)
            digests.append(workloads.sha(text))
            try:
                errors, terms, coeff = check(gdeen, args.workload, op, out, golden)
            except Exception as exc:
                errors = [f"oracle raised {type(exc).__name__}: {exc}"]
        if errors:
            failed += 1
            failures.extend(errors)
        terms_max, coeff_max = max(terms_max, terms), max(coeff_max, coeff)

    record.update(
        {
            "wall_s": wall_s,
            "op_s": op_s,
            "maxrss_mb": maxrss_mb,
            "attempted": len(ops),
            "failed": failed,
            "failures": failures[:5],
            "input_digest": workloads.input_digest(ops),
            "output_digest": workloads.sha("".join(digests)),
        }
    )
    if tracer is not None:
        record["trace"] = dict(
            tracer.raw(), out_terms_max=terms_max, out_coeff_terms_max=coeff_max, spans=spans
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
