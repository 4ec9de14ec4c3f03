"""Workload inputs, ops and oracles for the gdeen benchmark.

Inputs are made from the benchmark seed, the pass index and the number of
passes in the run (geodesic and hecke-verify ignore the seed).  gdeen
only ever sees the generated inputs, through its public entry points
(``gdeen.cli.main`` and ``gdeen.verify_hecke``).  The oracles below use
closed-form facts computed here (group orders, census formulas, basis
cardinalities, checked-column counts) and digests pinned in
``golden.json``; none of them runs the code that the op timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Words per family in the pinned hecke-reduce pool, and their length.  A
# run draws at most POOL_SIZE words per family, so at most 8 passes.
POOL_SIZE = 400
WORD_LEN = 35
# Words per family in one hecke-reduce pass (so 2 * 50 = 100 ops).
WORDS_PER_FAMILY = 50

# family -> (CLI flags, alphabet); H(3,3,4) over Z[a], H(3,1,4) over Z[a,b1,b2]
REDUCE_FAMILIES = {
    "een": (["--family", "een", "--e", "3", "--n", "4"], ["t0", "t1", "t2", "s3", "s4"]),
    "d1n": (["--family", "d1n", "--d", "3", "--n", "4"], ["z", "s2", "s3", "s4"]),
}

GEODESIC_ARGV = ["verify-geodesic", "--d", "3", "--e", "3", "--n", "4"]

# (family, p, n, generators, braid-type relations).  The relation counts
# come from the presentations: for G(1,3,4), 3 pairs t_i t_{i-1} = t_j t_{j-1},
# 3 braids t_i s3 t_i = s3 t_i s3, 3 commutations s4 t_i = t_i s4 and one
# braid s3 s4 s3 = s4 s3 s4; for G(3,1,3), z s2 z s2 = s2 z s2 z,
# z s3 = s3 z and s2 s3 s2 = s3 s2 s3.
VERIFY_CASES = [("een", 3, 4, 5, 10), ("d1n", 3, 3, 3, 3)]
VERIFY_SAMPLES = 20


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def short_sha(text: str) -> str:
    return sha(text)[:16]


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


# ---------------------------------------------------------------------------
# independent facts


def group_order(d: int, e: int, n: int) -> int:
    """|G(de,e,n)| = (de)^n n! / e."""
    return (d * e) ** n * math.factorial(n) // e


def census(d: int, e: int, n: int) -> tuple[int, int]:
    """Maximal length n(n-1)+d-1, attained (de-1)^(n-1) times (d, e > 1)."""
    return n * (n - 1) + d - 1, (d * e - 1) ** (n - 1)


def basis_size(family: str, p: int, n: int) -> int:
    """|Lambda| = e^(n-1) n! for H(e,e,n) and d^n n! for H(d,1,n)."""
    if family == "een":
        return p ** (n - 1) * math.factorial(n)
    return p**n * math.factorial(n)


def algebra_name(family: str, p: int, n: int) -> str:
    return f"H({p},{p},{n})" if family == "een" else f"H({p},1,{n})"


# ---------------------------------------------------------------------------
# inputs


def reduce_pool(family: str) -> list[str]:
    """The pinned pool of uniformly random words for one family."""
    rng = random.Random(f"gdeen-bench-pool:{family}")
    letters = REDUCE_FAMILIES[family][1]
    return [" ".join(rng.choice(letters) for _ in range(WORD_LEN)) for _ in range(POOL_SIZE)]


def make_ops(workload: str, seed: int, pass_index: int, n_passes: int) -> list[dict]:
    """The ops of pass ``pass_index`` of a run of ``n_passes`` passes.
    Each op is a JSON-serializable dict."""
    if workload == "geodesic":
        return [{"kind": "cli", "argv": GEODESIC_ARGV}]
    if workload == "hecke-verify":
        # The sample seed is the pass index, not drawn from ``seed``: the
        # cost of 20 associativity samples moves by about 20% from one
        # sample seed to the next, which would swamp any change in a run of
        # a few passes.  Every run therefore certifies the same samples.
        s = pass_index
        return [
            {"kind": "verify", "family": fam, "p": p, "n": n, "samples": VERIFY_SAMPLES, "seed": s}
            for fam, p, n, _, _ in VERIFY_CASES
        ]
    if workload == "hecke-reduce":
        # the run's passes take distinct words: one sample per family per
        # run, cut into consecutive slices
        rng = random.Random(f"gdeen-bench:{workload}:{seed}")
        ops = []
        for family in REDUCE_FAMILIES:
            pool = reduce_pool(family)
            flags = REDUCE_FAMILIES[family][0]
            drawn = rng.sample(range(POOL_SIZE), WORDS_PER_FAMILY * n_passes)
            for i in drawn[WORDS_PER_FAMILY * pass_index :][:WORDS_PER_FAMILY]:
                ops.append(
                    {
                        "kind": "cli",
                        "argv": ["hecke-reduce", *flags, "--word", pool[i]],
                        "family": family,
                        "pool_index": i,
                    }
                )
        random.Random(f"gdeen-bench:{workload}:{seed}:{pass_index}").shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def input_digest(ops: list[dict]) -> str:
    return sha(json.dumps(ops, sort_keys=True))


# ---------------------------------------------------------------------------
# oracles: each returns a list of failure messages (empty when correct)


def check_geodesic(op: dict, out: str, golden: dict) -> list[str]:
    d, e, n = 3, 3, 4
    report = json.loads(out)
    max_len, count = census(d, e, n)
    order = group_order(d, e, n)
    expected = {
        "ok": True,
        "group": f"G({d * e},{e},{n})",
        "order": order,
        "max_length": max_len,
        "max_length_count": count,
        "census_expected": {"max_length": max_len, "count": count},
    }
    errors = [
        f"{key}: {report.get(key)!r} != {val!r}"
        for key, val in expected.items()
        if report.get(key) != val
    ]
    hist = report.get("length_histogram", {})
    if sum(hist.values()) != order:
        errors.append(f"length histogram sums to {sum(hist.values())}, not {order}")
    if max(map(int, hist), default=-1) != max_len or hist.get(str(max_len)) != count:
        errors.append("length histogram disagrees with the census")
    if sha(out) != golden["geodesic"]:
        errors.append("output digest differs from the pinned one")
    return errors


def check_verify(op: dict, report: dict, golden: dict) -> list[str]:
    fam, p, n = op["family"], op["p"], op["n"]
    case = next(c for c in VERIFY_CASES if c[:3] == (fam, p, n))
    gens, rels = case[3], case[4]
    size = basis_size(fam, p, n)
    name = algebra_name(fam, p, n)
    expected = {
        "ok": True,
        "algebra": name,
        "basis_size": size,
        "relations_checked": rels,
        "relation_columns_checked": rels * size,
        "action_entries_checked": gens * size,
        "associativity_samples": op["samples"],
    }
    errors = [f"{name} report {report!r} != expected {expected!r}"] if report != expected else []
    if sha(json.dumps(report, sort_keys=True)) != golden["hecke-verify"][name]:
        errors.append(f"{name} report digest differs from the pinned one")
    return errors


_INT = re.compile(r"[0-9]+")


def coeff_monomials(text: str) -> list[str]:
    """Split a coefficient rendering such as ``-a^2*b_1 + 3*a - 1`` into
    signed monomials (``-a^2*b_1``, ``3*a``, ``-1``)."""
    if text == "0":
        return []
    return text.replace(" - ", " + -").split(" + ")


def constant_term(monomials: list[str]) -> int:
    """The value of a coefficient at a = b_i = 0."""
    total = 0
    for mono in monomials:
        body = mono.lstrip("-")
        if _INT.fullmatch(body):
            total += -int(body) if mono.startswith("-") else int(body)
    return total


def check_reduce(op: dict, out: str, golden: dict, eval_text) -> tuple[list[str], int, int]:
    """Oracle for one hecke-reduce output.

    ``eval_text(family, word)`` evaluates a word to its group matrix.  At
    a = b_i = 0 the algebra is the group algebra, so the output must have
    exactly one term with constant coefficient 1, on a basis word that
    evaluates to the same matrix as the input word.  Also returns the
    output's term count and its largest coefficient's monomial count.
    """
    errors = []
    obj = json.loads(out)
    terms = obj["terms"]
    monos = [coeff_monomials(t["coeff"]) for t in terms]
    surviving = [(t["basis"], constant_term(m)) for t, m in zip(terms, monos)]
    surviving = [(b, c) for b, c in surviving if c]
    word = op["argv"][-1]
    family = op["family"]
    if len(surviving) != 1 or surviving[0][1] != 1:
        errors.append(f"{word!r}: specialization is {surviving[:3]!r}, not one term with 1")
    elif eval_text(family, surviving[0][0]) != eval_text(family, word):
        errors.append(f"{word!r}: basis word {surviving[0][0]!r} is another group element")
    if short_sha(out) != golden["hecke-reduce"][family][op["pool_index"]]:
        errors.append(f"{word!r}: output digest differs from the pinned one")
    return errors, len(terms), max((len(m) for m in monos), default=0)
