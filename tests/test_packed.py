"""The top level of the Hecke engine, on packed ints.

``_Engine.apply`` evaluates level n on ints: each coefficient's part at one
monomial in the b_i is its polynomial in a at a = 2^bits
(``_pack`` below), and results are read back as balanced base-2^bits
digits (``polyring._unpack``).  That is exact only while every coefficient
stays below 2^(bits-1).  Each call proves a bound per int as it computes
it, and doubles bits when it must; these tests check the pair, the bound's
sharpness, that the bounds hold, that a narrow starting width changes no
result, and that without the bounds it would.
"""

import copy
import pickle
import random
import sys
import threading

import pytest

import gdeen.hecke as hecke_mod
from gdeen import HeckeElement, Poly, apply_word, basis_enumerate, d1n, een, hecke_mul, reduce_word, verify_hecke
from gdeen.polyring import _a_split, _decode, _digits, _packed_terms, _render, _rewiden, _unit_monomial, _unpack
from gdeen.polyring import var_names
from gdeen.words import alphabet, make_word, parse_word

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@pytest.fixture(autouse=True)
def fresh_engines():
    hecke_mod._engine.cache_clear()
    yield
    hecke_mod._engine.cache_clear()


def _pack(p: Poly, bits: int) -> dict[int, int]:
    """p as a map from the code of each monomial in the b_i (``_a_split``)
    to the int of its polynomial in ``a`` at a = 2^bits: the reference
    encoding.  a -> 2^bits is a ring map, so sums and products of packed
    ints are the packed sums and products, at any size."""
    out: dict[int, int] = {}
    for m, c in p.terms.items():
        b, k = _a_split(p.arity, m)
        out[b] = out.get(b, 0) + (c << bits * k)
    return out


@st.composite
def packable(draw):
    """(bits, P) with every |coefficient| of P below 2^(bits-1)."""
    arity = draw(st.integers(1, 3))
    bits = draw(st.sampled_from([2, 3, 4, 8, 13, 64, 100, 128]))
    top = 2 ** (bits - 1) - 1
    coeff = st.sampled_from([top, -top, 1, -1]) | st.integers(-top, top)
    mono = st.tuples(*(st.integers(0, 150) for _ in range(arity)))
    return bits, Poly(arity, draw(st.dictionaries(mono, coeff, max_size=8)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(packable())
def test_unpack_inverts_pack_within_the_bound(case):
    bits, p = case
    assert _unpack(p.arity, _pack(p, bits), bits) == p


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(packable(), st.data())
def test_packing_is_a_ring_map(case, data):
    # the product of two packed polynomials is the packed product: the
    # b-monomial codes add, and the ints in a multiply, at any size
    bits, p = case
    mono = st.tuples(*(st.integers(0, 40) for _ in range(p.arity)))
    q = Poly(p.arity, data.draw(st.dictionaries(mono, st.integers(-9, 9), max_size=4)))
    product: dict[int, int] = {}
    for b1, v1 in _pack(p, bits).items():
        for b2, v2 in _pack(q, bits).items():
            product[b1 + b2] = product.get(b1 + b2, 0) + v1 * v2
    want = _pack(p * q, bits)
    assert {b: v for b, v in product.items() if v} == want


WIDTHS = [4, 13, 64, 128]


@pytest.mark.parametrize("new", WIDTHS)
@pytest.mark.parametrize("bits", WIDTHS)
@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data())
def test_rewidening_packs_at_the_new_width(bits, new, data):
    # within the bound of the old width, narrower widths included
    arity = data.draw(st.integers(1, 3))
    top = 2 ** (bits - 1) - 1
    coeff = st.sampled_from([top, -top, 1, -1]) | st.integers(-top, top)
    mono = st.tuples(*(st.integers(0, 150) for _ in range(arity)))
    p = Poly(arity, data.draw(st.dictionaries(mono, coeff, max_size=8)))
    assert {b: _rewiden(v, bits, new) for b, v in _pack(p, bits).items()} == _pack(p, new)


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from([een(3, 3), d1n(2, 3)]), st.data())
def test_sums_and_scalings_are_those_of_the_coefficients(hp, data):
    # coefficients around 2^63 and past it: the two states of a sum may
    # differ in width, and a sum or a scaling may have to widen
    big = 2**70
    coeff = st.sampled_from([1, -1, 2**62, -(2**63), big]) | st.integers(-big, big)
    mono = st.tuples(*(st.integers(0, 5) for _ in range(hp.arity)))
    poly = st.dictionaries(mono, coeff, min_size=1, max_size=3).map(lambda t: Poly(hp.arity, t))
    combos = st.dictionaries(st.sampled_from(basis_enumerate(hp)), poly, max_size=4)
    g, h = (HeckeElement(hp, data.draw(combos)) for _ in range(2))
    c = data.draw(poly)
    total = dict(g.combo)
    for lam, v in h.combo.items():
        total[lam] = total[lam] + v if lam in total else v
    total = HeckeElement(hp, total)
    assert (g + h).combo == total.combo and str(g + h) == str(total)
    product = HeckeElement(hp, {lam: v * c for lam, v in g.combo.items()})
    assert g.scaled(c).combo == product.combo and str(g.scaled(c)) == str(product)


@pytest.mark.parametrize("bits", [2, 5, 64])
def test_the_bound_is_sharp(bits):
    # -2^(B-1) is a digit, 2^(B-1) is not: it reads back as -2^(B-1) + a
    half = 2 ** (bits - 1)
    for p in (Poly(1, {(0,): half - 1}), Poly(1, {(0,): -half})):
        assert _unpack(1, _pack(p, bits), bits) == p
    over = Poly(1, {(0,): half})
    assert _unpack(1, _pack(over, bits), bits) == Poly(1, {(0,): -half, (1,): 1})


@pytest.mark.parametrize("bits", [64, 128])
def test_digits_read_off_words_are_the_balanced_digits(bits):
    # every place holds -2^(B-1), 2^(B-1) - 1, 0, +-1 or a random digit
    half = 2 ** (bits - 1)
    edges = [-half, half - 1, 0, 1, -1]
    rng = random.Random(bits)
    for _ in range(2000):
        draw = lambda: rng.choice(edges) if rng.random() < 0.5 else rng.randrange(-half, half)
        digits = [draw() for _ in range(rng.randrange(1, 7))]
        got = _digits(sum(d << bits * k for k, d in enumerate(digits)), bits)
        assert got == (digits + [0] * len(got))[: len(got)] and not any(digits[len(got) :])


def parent_str(p):
    """``Poly.__str__`` as it was before the rendering was shared with the
    Hecke elements, kept verbatim (with its monomial helper) as the oracle
    of the shared formatter."""

    def factors(arity, code):
        pairs = zip(var_names(arity), _decode(arity, code))
        return "*".join(name if e == 1 else f"{name}^{e}" for name, e in pairs if e)

    if not p.terms:
        return "0"
    pieces = []
    for code in sorted(p.terms, reverse=True):
        c = p.terms[code]
        body, a = factors(p.arity, code), abs(c)
        body = (body if a == 1 else f"{a}*{body}") if body else str(a)
        pieces.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


@st.composite
def rendered_polys(draw):
    """Polys of arity 1 to 3: degrees to 150, coefficients to +-2^100,
    with constants, +-1 and the zero polynomial among them."""
    arity = draw(st.integers(1, 3))
    big = 2**100
    coeff = st.sampled_from([1, -1, big, -big, 0]) | st.integers(-big, big)
    mono = st.just((0,) * arity) | st.tuples(*(st.integers(0, 150) for _ in range(arity)))
    return Poly(arity, draw(st.dictionaries(mono, coeff, max_size=10)))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(rendered_polys(), st.sampled_from([102, 128, 192]))
def test_the_shared_formatter_renders_as_before(p, bits):
    want = parent_str(p)
    assert str(p) == want
    assert _render(p.arity, sorted(p.terms.items(), reverse=True)) == want
    # the way an engine result is rendered: from the digits of its ints
    assert _render(p.arity, _packed_terms(p.arity, _pack(p, bits), bits)) == want


CASES = [(een(3, 3), 7), (d1n(2, 3), 8), (d1n(3, 3), 9)]


def products(hp, seed):
    """reduce_word, apply_word and hecke_mul on seeded words of ``hp``."""
    rng = random.Random(seed)
    gp = hp.group_params()
    w1, w2, w3 = (make_word(gp, [rng.choice(alphabet(gp)) for _ in range(n)]) for n in (24, 16, 16))
    h = reduce_word(hp, w1)
    return [h, apply_word(w2, h), hecke_mul(h, reduce_word(hp, w3))]


@pytest.fixture
def calls(monkeypatch):
    """Per call of the engine, the widest width, and the largest L1 norm of
    an int of any of its states, read from the digits.  The ``_lin`` of a
    constructor, outside every call, is not counted."""
    seen, inside = [], []
    lin = hecke_mod._TopLevel._lin

    def widest_lin(self, parts):
        st = lin(self, parts)
        if inside:
            norms = (sum(map(abs, _digits(v, st.bits))) for v in st.vec.values())
            seen[-1] = [max(seen[-1][0], st.bits), max(seen[-1][1], *norms, 0)]
        return st

    def start(self, *args):
        seen.append([0, 0])
        inside.append(True)
        try:
            return apply(self, *args)
        finally:
            inside.pop()

    apply = hecke_mod._Engine.apply
    monkeypatch.setattr(hecke_mod._TopLevel, "_lin", widest_lin)
    monkeypatch.setattr(hecke_mod._Engine, "apply", start)
    return seen


@pytest.mark.parametrize("hp, seed", CASES, ids=str)
def test_a_narrow_start_changes_no_result(hp, seed, calls, monkeypatch):
    want = [h.to_json() for h in products(hp, seed)]
    hecke_mod._engine.cache_clear()
    monkeypatch.setattr(hecke_mod, "_BITS", 4)
    calls.clear()
    assert [h.to_json() for h in products(hp, seed)] == want
    # every call widened past 4 bits, but one whose ints all fit 4 bits,
    # such as the third call on H(3,1,3), whose largest norm is 6
    assert calls and all(widest > 4 or peak < 8 for widest, peak in calls)
    assert any(widest > 4 for widest, _ in calls)


@pytest.mark.parametrize("hp, seed", CASES, ids=str)
def test_the_bound_is_what_makes_a_narrow_start_exact(hp, seed, monkeypatch):
    # with the bound of every unit state, where each state's bounds start,
    # and every |c| of a monomial of a column or a coefficient taken as 0,
    # every bound is 0 or a sum of bounds, so nothing ever widens, and some
    # coefficient no longer fits 4 bits
    want = [h.to_json() for h in products(hp, seed)]
    hecke_mod._engine.cache_clear()
    monkeypatch.setattr(hecke_mod, "_BITS", 4)
    unit, form = hecke_mod._Engine._unit, hecke_mod._Engine._column_form

    def unbounded_unit(self, pos):
        st = unit(self, pos)
        return hecke_mod._State(st.vec, dict.fromkeys(st.bound, 0), st.bits)

    def unbounded_form(self, polys):
        plus, minus, other = form(self, polys)
        return plus, minus, tuple((key, k, c, 0) for key, k, c, _ in other)

    monkeypatch.setattr(hecke_mod._Engine, "_unit", unbounded_unit)
    monkeypatch.setattr(hecke_mod._Engine, "_column_form", unbounded_form)
    assert [h.to_json() for h in products(hp, seed)] != want


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from([een(3, 3), d1n(2, 3)]), st.data())
def test_every_bound_holds_after_every_step(hp, data):
    # each int's bound is at least the L1 norm of the polynomial it packs,
    # read from its digits, and every bound fits the width
    letters = [str(x) for x in alphabet(hp.group_params())]
    word = " ".join(data.draw(st.lists(st.sampled_from(letters), max_size=12)))
    hecke_mod._engine.cache_clear()
    steps = []
    lin = hecke_mod._TopLevel._lin

    def checked_lin(self, parts):
        state = lin(self, parts)
        steps.append(state)
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke_mod, "_BITS", 4)
        mp.setattr(hecke_mod._TopLevel, "_lin", checked_lin)
        reduce_word(hp, word)
    for state in steps:
        assert state.bound.keys() == state.vec.keys()
        for q, v in state.vec.items():
            assert state.bound[q] >= sum(map(abs, _digits(v, state.bits)))
        assert not max(state.bound.values(), default=0) >> (state.bits - 1)


def test_the_top_level_keeps_its_columns_packed_only():
    hp = een(3, 4)
    reduce_word(hp, "s4 s3 t1 t0 s3 s4 t2 s3")
    eng = hecke_mod._engine(hp)
    assert eng._lm and all(m < hp.n for m, _, _ in eng._lm)
    assert eng._packed and set(eng._packed) <= set(alphabet(hp.group_params()))
    # s4 keeps every column; a lower letter, one per position of its rank:
    # its fold is the product of the sizes of the levels above its own,
    # 12 level-4 shapes and 9 level-3 ones.  Slot j holds the column at
    # j * fold, in lists of _CHUNK slots, each made when the first of its
    # columns is read
    folds = {"t0": 9 * 12, "t1": 9 * 12, "t2": 9 * 12, "s3": 12, "s4": 1}
    for x, (fold, table) in eng._packed.items():
        assert fold == folds[str(x)]
        assert all(len(chunk) == hecke_mod._CHUNK and any(chunk) for chunk in table.values())
        slots = [i * hecke_mod._CHUNK + r for i, chunk in table.items() for r, col in enumerate(chunk) if col]
        assert slots and max(slots) < eng.size // fold


@pytest.mark.parametrize("hp", [een(3, 4), d1n(3, 4)], ids=str)
def test_stored_entries_and_unit_monomials_are_shared(hp):
    # a stored column keys its entries relative to its own position, so
    # they repeat from column to column, and each entry value and each
    # column value is one object, kept in the engine's _entries; each
    # +-monomial coefficient in the memos below level n is _unit_monomial's
    # Poly
    assert verify_hecke(hp, samples=0)["ok"]
    eng = hecke_mod._engine(hp)
    cols = [col for _, table in eng._packed.values() for chunk in table.values() for col in chunk if col]
    entries = [entry for col in cols for part in col for entry in part]
    for values, repeats in ((entries, 3), (cols, 2)):
        objects = {id(value) for value in values}
        assert len(objects) == len(set(values)) and repeats * len(objects) < len(values)
        assert all(eng._entries[value] is value for value in values)
    coeffs = [t[0] for memo in (eng._lm, eng._rw, eng._pairs) for terms in memo.values() for t in terms]
    units = [c for c in coeffs if len(c.terms) == 1 and abs(*c.terms.values()) == 1]
    assert units and all(c is _unit_monomial(hp.arity, *next(iter(c.terms.items()))) for c in units)
    # a coefficient's form is made on every call, and is not kept
    kept = len(eng._entries)
    h = reduce_word(hp, "s4 s3 s4")
    for k in range(100):
        h.scaled(Poly.const(hp.arity, 10**30 + k))
    assert len(eng._entries) == kept


def test_a_widening_call_stores_each_column_once(monkeypatch):
    # a column has no width: a call that starts at 4 bits and widens five
    # times stores one column list per letter, the one a 64-bit run stores
    hp = een(3, 3)
    word = seeded_word(hp, 100, 3)
    reduce_word(hp, word)
    wide = hecke_mod._engine(hp)._packed
    hecke_mod._engine.cache_clear()
    monkeypatch.setattr(hecke_mod, "_BITS", 4)
    assert reduce_word(hp, word)._state.bits == 128
    narrow = hecke_mod._engine(hp)._packed
    assert set(narrow) <= set(alphabet(hp.group_params()))
    assert narrow == wide


def test_concurrent_callers_agree_with_serial_ones():
    # cold engines, four threads on two cores, a short switch interval, and
    # long words.  The stored columns must come out as in a serial run, each
    # computed and stored once under the engine's lock.
    rng = random.Random(5)
    jobs = []
    for hp, length in [(een(3, 3), 70), (d1n(3, 3), 40)]:
        letters = [str(x) for x in alphabet(hp.group_params())]
        jobs += [(hp, " ".join(rng.choice(letters) for _ in range(length))) for _ in range(6)]
    serial = [reduce_word(hp, w).to_json() for hp, w in jobs]
    stored = {hp: hecke_mod._engine(hp)._packed for hp, _ in jobs}
    hecke_mod._engine.cache_clear()

    results = [None] * len(jobs)
    barrier = threading.Barrier(4)

    def work(k):
        barrier.wait()
        for j in range(k, len(jobs), 4):
            hp, w = jobs[j]
            results[j] = reduce_word(hp, w).to_json()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == serial
    stores = {hp: hecke_mod._engine(hp)._packed for hp in stored}
    assert stores == stored


def seeded_word(hp, length, seed):
    rng = random.Random(seed)
    letters = [str(x) for x in alphabet(hp.group_params())]
    return " ".join(rng.choice(letters) for _ in range(length))


@pytest.fixture
def decodes(monkeypatch):
    """The calls of ``_Engine._unpack_vec``, which decodes a packed state."""
    seen = []
    real = hecke_mod._Engine._unpack_vec

    def counting(self, vec, bits):
        seen.append(bits)
        return real(self, vec, bits)

    monkeypatch.setattr(hecke_mod._Engine, "_unpack_vec", counting)
    return seen


@pytest.mark.parametrize("hp", [een(3, 4), d1n(3, 3)], ids=str)
def test_a_result_renders_packed_and_decodes_combo_once(hp, decodes):
    word = seeded_word(hp, 30, 2)
    h = reduce_word(hp, word)
    decodes.clear()
    text, js = str(h), h.to_json()
    assert decodes == []  # rendered from the digits
    combo = h.combo
    assert h.combo is combo and len(decodes) == 1
    # the decode changes nothing that it renders: still the digits, the same text
    assert str(h) == text and h.to_json() == js and len(decodes) == 1


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 3)], ids=str)
def test_a_packed_result_equals_the_eager_element(hp):
    word = seeded_word(hp, 24, 4)
    eager = HeckeElement(hp, dict(reduce_word(hp, word).combo))
    assert reduce_word(hp, word) == eager
    assert eager == reduce_word(hp, word)
    assert reduce_word(hp, word) == reduce_word(hp, word)
    assert reduce_word(hp, word) != eager.scaled(Poly.const(hp.arity, 2))
    assert str(reduce_word(hp, word)) == str(eager)
    assert reduce_word(hp, word).to_json() == eager.to_json()
    h = reduce_word(hp, word)
    for copied in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert copied == eager and str(copied) == str(eager)


@pytest.mark.parametrize("hp", [een(3, 4), d1n(3, 3)], ids=str)
def test_equality_compares_states_and_decodes_nothing(hp, decodes):
    g, h = (reduce_word(hp, seeded_word(hp, 20, seed)) for seed in (12, 13))
    again = reduce_word(hp, seeded_word(hp, 20, 12))
    decodes.clear()
    assert g == again and not g != again
    assert g != h and not g == h
    assert decodes == []


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 3)], ids=str)
def test_equality_holds_across_widths(hp, monkeypatch):
    words = [seeded_word(hp, 40, seed) for seed in (14, 15)]
    wide = [reduce_word(hp, w) for w in words]
    hecke_mod._engine.cache_clear()
    monkeypatch.setattr(hecke_mod, "_BITS", 4)
    narrow = [reduce_word(hp, w) for w in words]
    assert narrow[0]._state.bits < wide[0]._state.bits
    for x in narrow + wide:
        for y in narrow + wide:
            assert (x == y) == (x.combo == y.combo)
    assert narrow[0] == wide[0] and wide[0] == narrow[0] and narrow[0] != wide[1]


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 3)], ids=str)
def test_an_element_minus_itself_equals_zero(hp):
    h = reduce_word(hp, seeded_word(hp, 20, 16))
    zero = h + h.scaled(Poly.const(hp.arity, -1))
    assert 0 in zero._state.vec.values()  # the sum keeps its cancelled ints
    assert zero == HeckeElement(hp, {}) and HeckeElement(hp, {}) == zero
    assert zero != h


def test_threads_reading_one_combo_agree(decodes):
    hp = d1n(3, 4)
    word = seeded_word(hp, 35, 6)
    want = reduce_word(hp, word).combo
    h = reduce_word(hp, word)
    decodes.clear()
    seen = [None] * 4
    barrier = threading.Barrier(4)

    def read(k):
        barrier.wait()
        seen[k] = h.combo

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for combo in seen:
        assert combo == want and list(combo) == list(want)
    assert h.combo == want and len(decodes) == 1


@pytest.mark.parametrize("hp", [een(3, 3), d1n(3, 3)], ids=str)
def test_the_engine_takes_an_element_as_it_is(hp, decodes):
    # apply_word reads no coefficient of h; hecke_mul reads those of g
    # only, for its words
    g, h = (reduce_word(hp, seeded_word(hp, 20, seed)) for seed in (7, 8))
    w = parse_word(hp.group_params(), seeded_word(hp, 12, 9))
    decodes.clear()
    apply_word(w, h)
    assert decodes == []
    hecke_mul(g, h)
    assert len(decodes) == 1


def test_threads_applying_words_to_one_element_leave_its_state_alone(monkeypatch):
    # every call starts at the shared element's narrow width and widens; a
    # product's later words read the element again at the wider width.  A
    # widened state is a new one, so the element's ints and width stay.
    monkeypatch.setattr(hecke_mod, "_BITS", 4)
    hp = een(3, 3)
    h = reduce_word(hp, seeded_word(hp, 10, 11))
    words = [parse_word(hp.group_params(), seeded_word(hp, 30, 20 + k)) for k in range(8)]
    jobs = [
        (apply_word, w) if k % 2 else (hecke_mul, reduce_word(hp, w)) for k, w in enumerate(words)
    ]
    state, vec, bits = h._state, h._state.vec, h._state.bits
    values = dict(vec)
    serial = [op(x, h) for op, x in jobs]
    assert all(r._state.bits > bits for r in serial)
    hecke_mod._engine.cache_clear()

    results = [None] * len(jobs)
    barrier = threading.Barrier(4)

    def work(k):
        barrier.wait()
        for j in range(k, len(jobs), 4):
            op, x = jobs[j]
            results[j] = op(x, h).to_json()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [r.to_json() for r in serial]
    assert h._state is state and state.vec is vec and state.bits is bits
    assert vec == values
