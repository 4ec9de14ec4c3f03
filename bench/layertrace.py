"""Per-layer tracing from outside the program.

The layers are gdeen's modules.  ``Tracer.install`` replaces every public
function of each layer module at every ``gdeen.*`` namespace that holds
it (``mul`` is held by ``group``, ``words``, ``cayley`` and ``verify``),
and wraps the operators and methods of ``Poly`` and ``HeckeElement`` on
their classes.  Each wrapper adds one call and its self time (its duration
minus the time of the wrapped calls it made) to a counter; no per-call
record is kept, so high-frequency calls stay cheap.  Spans are recorded
only per op by the caller.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = ("cli", "verify", "cayley", "normal_form", "words", "group", "hecke", "polyring")

# Methods of the value classes Poly and HeckeElement that are wrapped on
# the class, with the label they get inside their layer.
_METHODS = [
    ("__add__", "add"),
    ("__sub__", "sub"),
    ("__neg__", "neg"),
    ("__eq__", "eq"),
    ("scaled", "scaled"),
    ("specialize", "specialize"),
    ("items", "items"),
    ("__str__", "str"),
    ("to_json", "to_json"),
]


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self):
        # stats[name] = [calls, self_ns]
        self.stats: dict[str, list[int]] = {}
        self._child = [0]
        self._undo: list[tuple[object, str, object]] = []
        self.mul = {"term_pairs": 0, "monomial": 0, "max_terms": 0}
        self.leftmul_keys: set = set()
        self.leftmul_repeats = 0
        self.bfs_elements = 0

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        st = self.stats.setdefault(name, [0, 0])
        child = self._child
        pc = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            saved = child[0]
            child[0] = 0
            t0 = pc()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = pc() - t0
                st[0] += 1
                st[1] += dt - child[0]
                child[0] = saved + dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _wrap_poly_mul(self, fn):
        """``Poly.__mul__``, with self time split by arity and the operand
        statistics a faster kernel would change."""
        by_arity: dict[int, list[int]] = {}
        child = self._child
        pc = time.perf_counter_ns
        agg = self.mul

        def wrapper(a, b):
            saved = child[0]
            child[0] = 0
            t0 = pc()
            try:
                result = fn(a, b)
            finally:
                dt = pc() - t0
                st = by_arity.get(a.arity)
                if st is None:
                    st = by_arity[a.arity] = self.stats.setdefault(
                        f"polyring.mul.arity{a.arity}", [0, 0]
                    )
                st[0] += 1
                st[1] += dt - child[0]
                child[0] = saved + dt
            n1, n2 = len(a.terms), len(b.terms)
            agg["term_pairs"] += n1 * n2
            if n1 == 1 or n2 == 1:
                agg["monomial"] += 1
            big = max(n1, n2, len(result.terms))
            if big > agg["max_terms"]:
                agg["max_terms"] = big
            return result

        return wrapper

    def _observe_leftmul(self, args, result):
        key = tuple(args)
        if key in self.leftmul_keys:
            self.leftmul_repeats += 1
        else:
            self.leftmul_keys.add(key)

    def _observe_bfs(self, args, result):
        self.bfs_elements += len(result)

    # -- install / uninstall -------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = {name: importlib.import_module(f"gdeen.{name}") for name in LAYERS}
        holders = [sys.modules["gdeen"], *mods.values()]
        observers = {
            "hecke.leftmul_generator": self._observe_leftmul,
            "cayley.enumerate_group": self._observe_bfs,
        }
        for layer, mod in mods.items():
            for fname, fn in list(_public_functions(mod)):
                name = f"{layer}.{fname}"
                wrapped = self._wrap(name, fn, observers.get(name))
                for holder in holders:
                    if vars(holder).get(fname) is fn:
                        self._set(holder, fname, wrapped)
        for cls, layer in [(mods["polyring"].Poly, "polyring"), (mods["hecke"].HeckeElement, "hecke")]:
            for attr, label in _METHODS:
                if attr in vars(cls):
                    self._set(cls, attr, self._wrap(f"{layer}.{label}", vars(cls)[attr]))
        poly = mods["polyring"].Poly
        self._set(poly, "__mul__", self._wrap_poly_mul(vars(poly)["__mul__"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report --------------------------------------------------------------

    def raw(self) -> dict:
        """Plain counters, summable across passes."""
        return {
            "stats": self.stats,
            "mul": self.mul,
            "leftmul_repeats": self.leftmul_repeats,
            "bfs_elements": self.bfs_elements,
        }
