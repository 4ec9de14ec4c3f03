"""Command-line surface.

Exit codes: 0 success, 1 verification failure (a mathematical
counterexample), 2 usage or input error.  Output is JSON by default;
--pretty switches to indented JSON for humans.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from .cayley import enumerate_group
from .errors import GdeenError
from .group import DEFAULT_CAP, Params, element_from_json, element_to_json
from .hecke import HeckeParams, reduce_word
from .normal_form import length, max_length_census, normal_form
from .verify import verify_geodesic, verify_hecke
from .words import eval_word, parse_word, word_text


def _params(args) -> Params:
    return Params(args.d, args.e, args.n)


def _hecke_params(args) -> HeckeParams:
    if args.family == "een":
        if args.e is None:
            raise GdeenError("--family een needs --e")
        return HeckeParams("een", args.e, args.n)
    if args.d is None:
        raise GdeenError("--family d1n needs --d")
    return HeckeParams("d1n", args.d, args.n)


def _input_element(args, params: Params):
    if args.word is not None:
        return eval_word(parse_word(params, args.word))
    with open(args.matrix) as fh:
        g = element_from_json(fh.read())
    if g.params != params:
        raise GdeenError(f"matrix file is for {g.params}, flags say {params}")
    return g


def _emit(obj, pretty: bool) -> None:
    print(json.dumps(obj, indent=2 if pretty else None))


def _nf_json(nf) -> dict:
    return {
        "word": word_text(nf.word),
        "parts": {f"RE{lvl}": word_text(w) for lvl, w in zip(nf.levels, nf.parts)},
        "length": len(nf.word),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gdeen")
    ap.add_argument("--pretty", action="store_true", help="indented JSON output")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_group_flags(p):
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--e", type=int, required=True)
        p.add_argument("--n", type=int, required=True)

    def add_hecke_flags(p):
        p.add_argument("--family", choices=["een", "d1n"], required=True)
        p.add_argument("--d", type=int)
        p.add_argument("--e", type=int)
        p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("normal-form", help="geodesic normal form of an element")
    add_group_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix", help="path to a matrix JSON file")
    src.add_argument("--word", help="a word in the text format")

    p = sub.add_parser("eval-word", help="evaluate a word to a matrix")
    add_group_flags(p)
    p.add_argument("--word", required=True)

    p = sub.add_parser("length", help="geodesic length of an element")
    add_group_flags(p)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--matrix")
    src.add_argument("--word")

    p = sub.add_parser("enumerate", help="enumerate the group, report order and histogram")
    add_group_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("census", help="maximal-length census")
    add_group_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("verify-geodesic", help="certify that every normal form is geodesic")
    add_group_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("hecke-reduce", help="reduce a word over the basis Lambda")
    add_hecke_flags(p)
    p.add_argument("--word", required=True)

    p = sub.add_parser("hecke-verify", help="run the Hecke verification suite")
    add_hecke_flags(p)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--samples", type=int, default=100)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except GdeenError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "normal-form":
        params = _params(args)
        nf = normal_form(_input_element(args, params))
        _emit(_nf_json(nf), args.pretty)
        return 0
    if cmd == "eval-word":
        params = _params(args)
        g = eval_word(parse_word(params, args.word))
        _emit(json.loads(element_to_json(g)), args.pretty)
        return 0
    if cmd == "length":
        params = _params(args)
        _emit({"length": length(_input_element(args, params))}, args.pretty)
        return 0
    if cmd == "enumerate":
        params = _params(args)
        table = enumerate_group(params, args.cap)
        hist = Counter(table.dist)
        _emit(
            {
                "order": len(table),
                "length_histogram": {str(k): hist[k] for k in sorted(hist)},
            },
            args.pretty,
        )
        return 0
    if cmd == "census":
        params = _params(args)
        max_len, count, witnesses = max_length_census(params, args.cap)
        _emit(
            {
                "max_length": max_len,
                "count": count,
                "witnesses": [_nf_json(nf) for nf in witnesses],
            },
            args.pretty,
        )
        return 0
    if cmd == "verify-geodesic":
        report = verify_geodesic(_params(args), args.cap)
        _emit(report, args.pretty)
        return 0 if report["ok"] else 1
    if cmd == "hecke-reduce":
        hp = _hecke_params(args)
        h = reduce_word(hp, args.word)
        _emit(json.loads(h.to_json()), args.pretty)
        return 0
    if cmd == "hecke-verify":
        hp = _hecke_params(args)
        report = verify_hecke(hp, cap=args.cap, samples=args.samples)
        _emit(report, args.pretty)
        return 0 if report["ok"] else 1
    raise AssertionError(f"unhandled command {cmd}")


if __name__ == "__main__":
    sys.exit(main())
