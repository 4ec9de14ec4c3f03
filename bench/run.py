"""The gdeen benchmark.

    python3 bench/run.py --workload {geodesic,hecke-verify,hecke-reduce} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run is a fixed number of passes, set
by --seconds and the workload (PASSES), so that its inputs depend only on
--seed and --seconds.  Every pass runs in a fresh interpreter (worker.py),
one at a time; a run also starts SETUP_PROBES interpreters that only
import gdeen and build the inputs, to steady the set-up time.

With --trace 0 the last line of standard output carries the end-to-end
metrics.  With --trace 1 half the passes (rounded up) run twice, untraced
and then traced, the last line carries the per-layer metrics, and the
spans and the full per-function table go to bench/results/.  See
README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layertrace import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_FAILED = 3

WORKLOADS = ("geodesic", "hecke-verify", "hecke-reduce")
# Passes in a run of REFERENCE_SECONDS; a run of --seconds S makes
# round(PASSES * S / REFERENCE_SECONDS) of them, at least one.  When the
# benchmark was added, an untraced pass took about 10, 9 and 19 s on a
# 2-core x86-64 VM with CPython 3.11.  hecke-reduce gets the most passes
# because its words change with the seed, and the cost of 100 random words
# varies by about 10% from one seed to the next.
REFERENCE_SECONDS = 32
PASSES = {"geodesic": 2, "hecke-verify": 2, "hecke-reduce": 3}
SETUP_PROBES = 10
# A run gives up on passes it has not started by then, so it ends well
# inside the 180 s it is allowed.
DEADLINE_S = 165.0


def pass_count(workload: str, seconds: int) -> int:
    return max(1, round(PASSES[workload] * seconds / REFERENCE_SECONDS))


def spawn(args, n_passes: int, pass_index: int, deadline: float, trace: int = 0, setup_only: bool = False):
    """Run one worker to completion; returns its record, or None if it
    failed after set-up.  Exits the benchmark if gdeen cannot be set up."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--pass-index", str(pass_index),
        "--passes", str(n_passes),
        "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    # fixed hash seed: traced counts repeat exactly; bytecode caching on:
    # set-up is timed as an installed gdeen imports, whatever the caller's
    # environment says
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [*cmd, "--spawned-at", repr(time.monotonic())],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"pass {pass_index} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode == SETUP_FAILED:
        sys.stderr.write(proc.stderr)
        sys.exit("gdeen could not be set up; no result")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        print(f"pass {pass_index} exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def p90(samples: list[float]) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def end_to_end(passes: list[dict], setups: list[float], workload: str) -> dict:
    walls = [p["wall_s"] for p in passes]
    # hecke-reduce times each word; the other workloads time one
    # certificate per pass, so their op is the pass
    ops = [s for p in passes for s in p["op_s"]] if workload == "hecke-reduce" else walls
    ms = [s * 1000 for s in ops]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": sum(walls), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": p90(ms), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(p["maxrss_mb"] for p in passes), "unit": "MB"},
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    """Sum the traced passes' counters; returns (metrics, full table)."""
    stats: dict[str, list[int]] = {}
    mul = {"term_pairs": 0, "monomial": 0, "max_terms": 0}
    repeats = bfs_elements = terms_max = coeff_max = 0
    for p in traced:
        t = p["trace"]
        for name, (calls, self_ns) in t["stats"].items():
            acc = stats.setdefault(name, [0, 0])
            acc[0] += calls
            acc[1] += self_ns
        mul["term_pairs"] += t["mul"]["term_pairs"]
        mul["monomial"] += t["mul"]["monomial"]
        mul["max_terms"] = max(mul["max_terms"], t["mul"]["max_terms"])
        repeats += t["leftmul_repeats"]
        bfs_elements += t["bfs_elements"]
        terms_max = max(terms_max, t["out_terms_max"])
        coeff_max = max(coeff_max, t["out_coeff_terms_max"])
    arities = [n for n in stats if n.startswith("polyring.mul.arity")]
    stats["polyring.mul"] = [sum(stats[n][i] for n in arities) for i in (0, 1)]

    def calls(name):
        return stats.get(name, [0, 0])[0]

    def self_s(name):
        return stats.get(name, [0, 0])[1] * 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    traced_wall = sum(p["wall_s"] for p in traced)
    m: dict[str, tuple[float, str]] = {
        "trace_overhead": (traced_wall / sum(p["wall_s"] for p in untraced), "ratio"),
        "traced_wall_s": (traced_wall, "s"),
    }
    for layer in LAYERS:
        total = sum(v[1] for n, v in stats.items() if n.startswith(layer + ".") and ".arity" not in n)
        m[f"{layer}.self_s"] = (total * 1e-9, "s")
    for name in COUNTED:
        m[f"{name}.calls"] = (calls(name), "count")
    for name in SELF_TIMED:
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["cayley.bfs_us_per_element"] = (
        ratio(self_s("cayley.enumerate_group") * 1e6, bfs_elements), "us"
    )
    m["hecke.leftmul_generator.repeat_ratio"] = (
        ratio(repeats, calls("hecke.leftmul_generator")), "ratio"
    )
    m["hecke.out_terms_max"] = (terms_max, "count")
    m["hecke.out_coeff_terms_max"] = (coeff_max, "count")
    m["polyring.mul.term_pairs"] = (mul["term_pairs"], "count")
    m["polyring.mul.monomial_share"] = (ratio(mul["monomial"], calls("polyring.mul")), "ratio")
    m["polyring.mul.max_terms"] = (mul["max_terms"], "count")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
    table = {n: {"calls": c, "self_s": s * 1e-9} for n, (c, s) in sorted(stats.items())}
    return metrics, table


COUNTED = [
    "cli.main",
    "cayley.enumerate_group",
    "normal_form.normal_form",
    "normal_form.length",
    "words.eval_word",
    "words.generator",
    "words.make_word",
    "group.mul",
    "hecke.reduce_word",
    "hecke.leftmul_generator",
    "hecke.hecke_mul",
    "hecke.validate_basis_index",
    "hecke.as_word",
    "polyring.mul",
    "polyring.add",
]
SELF_TIMED = [
    "cli.main",
    "verify.verify_geodesic",
    "verify.verify_hecke",
    "cayley.enumerate_group",
    "normal_form.normal_form",
    "words.eval_word",
    "words.make_word",
    "words.parse_word",
    "group.mul",
    "hecke.reduce_word",
    "hecke.leftmul_generator",
    "hecke.hecke_mul",
    "hecke.validate_basis_index",
    "hecke.specialize_to_group",
    "hecke.to_json",
    "polyring.mul",
    "polyring.mul.arity1",
    "polyring.mul.arity3",
    "polyring.add",
    "polyring.str",
    "polyring.specialize",
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "gdeen" / "__init__.py").is_file():
        sys.exit(f"no gdeen sources under {ROOT / 'src'}; no result")
    deadline = time.monotonic() + DEADLINE_S

    n_passes = pass_count(args.workload, args.seconds)
    setups, untraced, traced = [], [], []
    attempted = failed = 0
    failures: list[str] = []
    for _ in range(SETUP_PROBES):
        rec = spawn(args, n_passes, 0, deadline, setup_only=True)
        if rec is not None:
            setups.append(rec["setup_s"])
    # a traced run makes each of its passes twice, untraced then traced,
    # so it covers half the passes to take about as long
    for k in range(math.ceil(n_passes / 2) if args.trace else n_passes):
        for trace in (0, 1) if args.trace else (0,):
            rec = spawn(args, n_passes, k, deadline, trace=trace)
            if rec is None:
                lost = len(workloads.make_ops(args.workload, args.seed, k, n_passes))
                attempted += lost
                failed += lost
                failures.append(f"pass {k} (trace {trace}) did not complete")
                continue
            attempted += rec["attempted"]
            failed += rec["failed"]
            failures.extend(rec["failures"])
            setups.append(rec["setup_s"])
            (traced if trace else untraced).append(rec)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": n_passes,
        "op_samples": sum(len(p["op_s"]) for p in untraced)
        if args.workload == "hecke-reduce"
        else len(untraced),
        "setup_samples": len(setups),
        "pass_wall_s": [round(p["wall_s"], 3) for p in untraced],
        "failed_ratio": failed / attempted,
        "failures": failures[:5],
        "input_digests": [p["input_digest"] for p in untraced],
        "output_digests": [p["output_digest"] for p in untraced],
    }
    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics, table = per_layer(traced, untraced)
        results = HERE / "results"
        results.mkdir(exist_ok=True)
        trace_file = results / f"trace-{args.workload}-seed{args.seed}.json"
        spans = [
            {"pass": k, "op": i, "label": label, "start_s": t0, "end_s": t1}
            for k, p in enumerate(traced)
            for i, label, t0, t1 in p["trace"]["spans"]
        ]
        trace_file.write_text(
            json.dumps({"info": info, "metrics": metrics, "functions": table, "spans": spans}, indent=1)
        )
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(untraced, setups, args.workload)
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
