"""Golden outputs: refactors must leave every byte of output unchanged.

Each case is a fixed CLI call or library product.  Its output (stdout and
exit code for the CLI, ``to_json()`` for library values) is hashed and
compared with the SHA-256 recorded from the seed implementation, so any
change in normal-form words, RE-parts, Hecke terms, coefficient
renderings, report layout or exit codes fails here.

To re-pin after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and paste what it prints
over GOLDEN.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from gdeen import (
    HeckeElement,
    Params,
    Poly,
    all_elements,
    basis_enumerate,
    d1n,
    een,
    hecke_mul,
    leftmul_generator,
    normal_form,
    pow_s2zs2,
    reduce_word,
    s2_zk_s2,
    verify_hecke,
)
from gdeen.cli import main
from gdeen.hecke import _letter_level
from gdeen.words import S, alphabet, word_text


def _reduce(family, p, n, word):
    flag = "--e" if family == "een" else "--d"
    return ["hecke-reduce", "--family", family, flag, str(p), "--n", str(n), "--word", word]


CLI_CASES = {
    "reduce-h333-a": _reduce("een", 3, 3, "t1 t0 t0"),
    "reduce-h333-b": _reduce("een", 3, 3, "s3 t2 t1 s3 t0 t2 s3 t1"),
    "reduce-h333-c": _reduce("een", 3, 3, "t2 s3 t1 t0 s3 t2 t2 s3 t0 t1"),
    "reduce-h443-a": _reduce("een", 4, 3, "t3 t1 s3 t2 t0 s3 t1"),
    "reduce-h443-b": _reduce("een", 4, 3, "s3 t1 t0 s3 t3 t2 s3 t0 t1 t3"),
    "reduce-h213-a": _reduce("d1n", 2, 3, "z s2 z s3 s2 z s2"),
    "reduce-h213-b": _reduce("d1n", 2, 3, "s3 s2 z s3 z s2 s3 z s2 z"),
    "reduce-h313-a": _reduce("d1n", 3, 3, "z z s2 z s3 s2 z z s2"),
    "reduce-h313-b": _reduce("d1n", 3, 3, "s2 z s3 z z s2 s3 z s2 s3 z"),
    "reduce-bad-token": _reduce("een", 3, 3, "t1 q0"),
    "reduce-h333-pretty": ["--pretty", *_reduce("een", 3, 3, "s3 t2 t1 s3 t0 t2 s3 t1")],
    # ranks 7 and 6: |Lambda| is 3 674 160 and 46 080
    "reduce-h337-rank7": _reduce("een", 3, 7, "s7 t1 s7"),
    "reduce-h216-rank6": _reduce("d1n", 2, 6, "s6 z s2 s6 s5"),
    "reduce-h313-pretty": ["--pretty", *_reduce("d1n", 3, 3, "s2 z s3 z z s2 s3 z s2 s3 z")],
    "verify-h333": ["hecke-verify", "--family", "een", "--e", "3", "--n", "3", "--samples", "3"],
    "verify-h213": ["hecke-verify", "--family", "d1n", "--d", "2", "--n", "3", "--samples", "3"],
    "verify-geodesic-g623": ["verify-geodesic", "--d", "3", "--e", "2", "--n", "3"],
    "normal-form-g623": ["normal-form", "--d", "3", "--e", "2", "--n", "3", "--word", "z t3 s3 t1 z t0 s3 t5"],
    "normal-form-g313": ["normal-form", "--d", "3", "--e", "1", "--n", "3", "--word", "z s2 z z s2 s3 s2 z z"],
    "census-g623": ["census", "--d", "3", "--e", "2", "--n", "3"],
    # 512 witnesses, in rank order
    "census-g934": ["census", "--d", "3", "--e", "3", "--n", "4"],
    "enumerate-g934": ["enumerate", "--d", "3", "--e", "3", "--n", "4"],
    "enumerate-g633": ["enumerate", "--d", "2", "--e", "3", "--n", "3"],
    "enumerate-g423-pretty": ["--pretty", "enumerate", "--d", "2", "--e", "2", "--n", "3"],
    "enumerate-cap-g934": ["enumerate", "--d", "3", "--e", "3", "--n", "4", "--cap", "100"],
}


def _lib_mul(hp, w1, w2):
    return hecke_mul(reduce_word(hp, w1), reduce_word(hp, w2)).to_json()


def _leftmul_columns(hp, *letters):
    # every basis column under each letter, each a lift folded by the
    # letters of the top shape: at rank 2 for s_2 of H(d,1,n), through the
    # rank-3 expansions (_loc_zp, _expand_P) for s_3, and at rank 4 for s_4
    return "\n".join(
        leftmul_generator(hp, S(i), lam).to_json() for i in letters for lam in basis_enumerate(hp)
    )


def _lower_columns(hp):
    # every basis column under each letter of level below n: at rank n it
    # acts on (lambda', lambda_n) as on (lambda', 1), with lambda_n re-appended
    lower = [x for x in alphabet(hp.group_params()) if _letter_level(x) < hp.n]
    return "\n".join(leftmul_generator(hp, x, lam).to_json() for x in lower for lam in basis_enumerate(hp))


def _long_words(hp, length, count=10, seed=0):
    # seeded words whose coefficients reach about 125 bits in H(3,3,4), so
    # that the engine widens past its starting width; one digest per word,
    # so that the long outputs are never held together
    rng = random.Random(seed)
    letters = [str(x) for x in alphabet(hp.group_params())]
    words = [" ".join(rng.choice(letters) for _ in range(length)) for _ in range(count)]
    return "\n".join(_sha(reduce_word(hp, w).to_json()) for w in words)


def _built_element():
    # built by the constructor, keys out of basis order: +-1 coefficients,
    # a negative leading coefficient, constants and b-monomials
    hp = d1n(3, 3)
    basis = basis_enumerate(hp)
    coeffs = [
        Poly(3, {(2, 1, 0): -1, (1, 0, 0): 3, (0, 0, 0): -1}),
        Poly(3, {(0, 0, 2): 1, (0, 1, 1): -2, (1, 0, 0): 1, (0, 0, 0): 5}),
        Poly.const(3, -7),
        Poly.const(3, 1),
        Poly(3, {(0, 1, 0): 1}),
        Poly(3, {(3, 0, 0): -12, (0, 0, 1): -1}),
    ]
    return HeckeElement(hp, {basis[j]: c for j, c in zip([40, 3, 161, 0, 77, 12], coeffs)})


# every algebra whose certificate takes well under a second: ranks 2 to 5,
# H(e,e,n) with e odd and even, and H(d,1,n)
VERIFIED = [
    *(een(e, 2) for e in (1, 3, 5, 7)),
    *(een(e, 3) for e in (1, 2, 3, 4, 5)),
    een(1, 4),
    een(2, 4),
    een(1, 5),
    *(d1n(d, 2) for d in (2, 3, 4, 5)),
    *(d1n(d, 3) for d in (2, 3, 4)),
    d1n(2, 4),
]


def _normal_forms(params):
    # every element's normal form: its word and each level's part
    lines = []
    for g in all_elements(params):
        nf = normal_form(g)
        parts = " | ".join(f"RE{lvl}: {word_text(w)}" for lvl, w in zip(nf.levels, nf.parts))
        lines.append(f"{g.perm} {g.exps} {word_text(nf.word)} || {parts}")
    return "\n".join(lines)


def _verify_reports():
    return "\n".join(json.dumps(verify_hecke(hp, samples=2), sort_keys=True) for hp in VERIFIED)


LIB_CASES = {
    "mul-h333": lambda: _lib_mul(een(3, 3), "t1 t0 s3 t2", "s3 t2 t1 s3 t0"),
    "mul-h443": lambda: _lib_mul(een(4, 3), "t3 t1 s3", "t2 s3 t0 t1"),
    "mul-h313": lambda: _lib_mul(d1n(3, 3), "z s2 z s3 z", "s2 z z s3 s2 z"),
    "pow-s2zs2-h313": lambda: "\n".join(pow_s2zs2(d1n(3, 3), k).to_json() for k in (1, 2)),
    "pow-s2zs2-h412": lambda: "\n".join(pow_s2zs2(d1n(4, 2), k).to_json() for k in (1, 2, 3)),
    "s2-zk-s2-h313": lambda: "\n".join(s2_zk_s2(d1n(3, 3), k).to_json() for k in (1, 2)),
    "s2-zk-s2-h412": lambda: "\n".join(s2_zk_s2(d1n(4, 2), k).to_json() for k in (1, 2, 3)),
    "leftmul-s2-h512": lambda: _leftmul_columns(d1n(5, 2), 2),
    "leftmul-s2-s3-h413": lambda: _leftmul_columns(d1n(4, 3), 2, 3),
    "leftmul-s3-h553": lambda: _leftmul_columns(een(5, 3), 3),
    "leftmul-s4-h334": lambda: _leftmul_columns(een(3, 4), 4),
    "leftmul-s4-h314": lambda: _leftmul_columns(d1n(3, 4), 4),
    "leftmul-lower-h334": lambda: _lower_columns(een(3, 4)),
    "leftmul-lower-h314": lambda: _lower_columns(d1n(3, 4)),
    "reduce-long-h334": lambda: _long_words(een(3, 4), 200),
    "reduce-long-h314": lambda: _long_words(d1n(3, 4), 60),
    "reduce-35-h334": lambda: _long_words(een(3, 4), 35, count=20, seed=1),
    "reduce-35-h314": lambda: _long_words(d1n(3, 4), 35, count=20, seed=1),
    "str-engine-h313": lambda: str(reduce_word(d1n(3, 3), "z z s2 z s3 s2 z z s2 s3 s2 z")),
    "str-built-h313": lambda: str(_built_element()),
    "verify-reports": _verify_reports,
    # G(6,3,3), G(3,1,3), G(4,2,3) and G(1,1,4)
    "normal-forms": lambda: "\n".join(
        _normal_forms(p) for p in (Params(2, 3, 3), Params(3, 1, 3), Params(2, 2, 3), Params(1, 1, 4))
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, _sha(out.getvalue())


def run_lib(name):
    return _sha(LIB_CASES[name]())


GOLDEN = {
    'census-g623': (0, '01cd4d4079cde3e251d6820e50e55b4f4379425a6e1a11155a61be42d8d85d3a'),
    'census-g934': (0, 'e78dbeaa2797423ea720b1f4b554ca261e36f8b0b6aa9b46bad8594aa5848f72'),
    'enumerate-cap-g934': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'enumerate-g423-pretty': (0, 'c9ac112f243381318ee42702603d45aca37846cd6a2db0543a85dcb34f54ef9e'),
    'enumerate-g633': (0, '2af11fb81c9ab0d7b527bd5b72f49ccd2cc7f5c42117164bd538dc7c3abe6c75'),
    'enumerate-g934': (0, '93e131c2e6e3185ac857108b00ce0da165caabea07e51e75539ab781c4a99038'),
    'normal-form-g313': (0, '8e863e6d66c9900eccfa0431d1e7dde3f661ce095addaefbddb10f6a5c624073'),
    'normal-form-g623': (0, '973499257a316b836b236874790a77276e6179ef7396cb958b292f33bf600a92'),
    'reduce-bad-token': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'reduce-h213-a': (0, '037f78fb4b329b9c8879daa1b2198b5073bf035c7347c58a7069201e7d0e82b8'),
    'reduce-h213-b': (0, '8d1462adbb9f3c8267d76a0366cb58b29040274b7ef3fa31de34e90ed30ce03a'),
    'reduce-h216-rank6': (0, '8ff69c0753edd35db1370cd92496203969d9eaf8a5befbe5068709578b2e7b1f'),
    'reduce-h313-a': (0, '20952787639aa1d528a461fa6a7b211c007a34deb628111f300ca3480f569c8f'),
    'reduce-h313-b': (0, '896b9d95eae103b93642aa690a5901c3dc2ff03f887a26d1a50123aeaf5bf1fd'),
    'reduce-h313-pretty': (0, 'cd010e95919a8f08b0ec7eee1def8caa9f01aeabedd762cdbf67a908df712b56'),
    'reduce-h333-a': (0, 'c17608fd5e1d3e872c7a97ba1d98bef0b67d3580fbec657731e04b9be736a994'),
    'reduce-h333-b': (0, '35d94dde0b200a612fcc276c689d68418eb0ea6d3d187270b0eb9c40547d4062'),
    'reduce-h333-c': (0, 'de06dbb8898efa808125363ce3064e1415dba197ebfcdc430defea8e1337af04'),
    'reduce-h333-pretty': (0, '4802d20ea448f28a2e9f5ac7880f1727df913ccf2781cf7afe786c7a482eddad'),
    'reduce-h337-rank7': (0, '1c24d13b76511333f63ab454c61d61da7fc9cb1c03d1fd1e2bb813fefbe08ee8'),
    'reduce-h443-a': (0, 'a496234073fc524521577806c56cd1b87bd4dd30a08ed2879dd90355165a7aec'),
    'reduce-h443-b': (0, '342cfc847011868c88017b9c2281dd83df117e55a9642145ae76134b217e1e4d'),
    'verify-geodesic-g623': (0, 'b03841c38e0cffc3974df8c8c9f418edf95a3fa524035ca1809059362121ceef'),
    'verify-h213': (0, '7e1240474b443581d67c43486bd1cbd6c4ba5958ad58e68a614749125ba998c1'),
    'verify-h333': (0, '8525b58cd36819c9c23f05de76db9940f3a8f884723396204f43585db9a0f35b'),
    'leftmul-lower-h314': 'deb6cd2e9cd93ee9ab22c16399d9fbf127a46b0123b08f0ff12983e06aed611f',
    'leftmul-lower-h334': '5200cc8b74a290a4d97fb407040cb4344b7c27c565da81731702ce2b8f0b9b75',
    'leftmul-s2-h512': 'dc1d03a652e86f81794716016f4c8f267be5d47a24cbfc396082e285e3648c18',
    'leftmul-s2-s3-h413': '73ef0d9ad48a899b8b0d70c88a92d7752bfbf4e2642d62a180b5af889ea9034c',
    'leftmul-s3-h553': '403c34c260fda1cecd1e02796c3f5e7151a8f11d5d42302f41dc84018fac1137',
    'leftmul-s4-h314': 'd9543064414e36d57645e152dd04fe28cbceb95a79dfc148b56ea222d68584b9',
    'leftmul-s4-h334': '1ee9c8e2d5c10a4511e1aef1d577f765745f68a0fa037f93485dcbde61ad441a',
    'mul-h313': '68bb8f07887b65e9ef13539807ff37764f2611035f324ebd030de05425528144',
    'mul-h333': '638cafc3cdeae0a9c8978e51c0cf642ab61c823b052359a51007027d4c2ab0ee',
    'mul-h443': 'ac62d4f0ef37871f3f2f98dd06cd7fc86db0b4aa71c68040c65318a8c6e75c6f',
    'normal-forms': '56a526b3224257ff820605e56df0f114457e193cd9c4143b783de697e08f7ba5',
    'pow-s2zs2-h313': '925c076d145777158b5670bfb151d339f1dd8e74a284e7a2b025a7500031581b',
    'pow-s2zs2-h412': '0ea57fbe70c46656fc522573798595da549fb81c54e9536779e5b8568e890991',
    'reduce-35-h314': '33aeeb20ca749ecdfd7c0d5377b093876f16b3e11a3e23588637287d2830d65a',
    'reduce-35-h334': 'f3bedd130da1e27ec9881f1d21b029a8bb9418a44a251dc49a35fe4dc75e223e',
    'reduce-long-h314': '985ebac7e66ec599866555909c1a0316ac04381cdf2f725470fe6397074bfbb0',
    'reduce-long-h334': 'cde04ae2c7ab427d918e3bb33277f68c92b2df6b26dc9ce2cbb48335263835c4',
    's2-zk-s2-h313': '7122ff9ba8f01cd932b119b1ec6d95f24b4986cdb79f962a059adbc38f63115c',
    's2-zk-s2-h412': '78e7774d2001b194c35f1a760817b68ac92b0e30351bc26e2d22e59bcddc0471',
    'str-built-h313': 'fc0bb54c2ee623f3b4ca70b040bfafd1b43d83a06566052484d71b6593785383',
    'str-engine-h313': '2a5ab04b00ae0f70f6ac3a28f44a08b635b14552fdce336b0d91f000af369544',
    'verify-reports': 'eeebedd16b1aa03873871fc4e4925a6da70ade3cc902fea3ce83c075aee1de71',
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name):
    assert run_cli(CLI_CASES[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LIB_CASES))
def test_library_golden(name):
    assert run_lib(name) == GOLDEN[name]


if __name__ == "__main__":
    print("GOLDEN = {")
    for name in sorted(CLI_CASES):
        print(f"    {name!r}: {run_cli(CLI_CASES[name])!r},")
    for name in sorted(LIB_CASES):
        print(f"    {name!r}: {run_lib(name)!r},")
    print("}")
