"""Property tests: random words in groups past the default enumeration cap,
and hostile text for the parsers and the CLI."""

import contextlib
import io
import json
import operator

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gdeen import (  # noqa: E402
    GdeenError,
    Params,
    alphabet,
    element_from_json,
    element_to_json,
    eval_word,
    length,
    length_polynomial,
    make_word,
    normal_form,
    parse_word,
    verify_geodesic,
)
from gdeen.cli import main  # noqa: E402

# G(9,3,5), G(2,2,8) and G(4,1,6): one group per presentation
BEYOND_CAP = [Params(3, 3, 5), Params(1, 2, 8), Params(4, 1, 6)]
# and G(2,2,10), G(4,2,7), G(5,5,9) and G(3,1,8), at ranks where no
# certificate runs (orders 4.1e7 to 1.4e11): there the normal form and its
# length are checked only against the word they came from
PAST_THE_CAP = BEYOND_CAP + [Params(1, 2, 10), Params(2, 2, 7), Params(1, 5, 9), Params(3, 1, 8)]


@st.composite
def words_beyond_cap(draw):
    params = draw(st.sampled_from(PAST_THE_CAP))
    syms = draw(st.lists(st.sampled_from(alphabet(params)), max_size=80))
    return make_word(params, syms)


@hypothesis.settings(max_examples=1200, deadline=None, derandomize=True, database=None)
@hypothesis.given(words_beyond_cap())
def test_normal_form_of_random_words_beyond_the_cap(w):
    g = eval_word(w)
    nf = normal_form(g)
    assert eval_word(nf.word) == g
    assert len(nf.word) <= len(w)
    assert length(g) == len(nf.word)
    assert nf.word.syms == tuple(sym for part in nf.parts for sym in part.syms)


# Hostile text shaped like the input formats, so that it reaches past the
# JSON and token parsers into the field checks: tokens with Unicode digits
# or signs, JSON arrays with non-strings, matrix objects with bools, floats,
# strings and short or ragged rows.
_token = st.builds(
    operator.add,
    st.sampled_from(["z", "t", "s", "x", ""]),
    st.sampled_from(["", "0", "2", "12", "-1", "²", "٣"]),
)
_word_text = (
    st.text(max_size=40)
    | st.lists(_token, max_size=8).map(" ".join)
    | st.lists(_token | st.integers(), max_size=4).map(json.dumps)
)
_field = st.integers(-1, 4) | st.booleans() | st.none() | st.floats() | st.text(max_size=2)
_rows = st.lists(st.lists(_field, max_size=3) | _field, min_size=2, max_size=3)
_matrix = st.fixed_dictionaries(
    {"d": st.integers(1, 3), "e": st.integers(1, 3), "n": st.integers(2, 3), "rows": _rows}
)
_hostile_dims = st.fixed_dictionaries({"d": _field, "e": _field, "n": _field, "rows": _rows | _field})
_matrix_text = st.text(max_size=40) | (_matrix | _hostile_dims | st.lists(_field)).map(json.dumps)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(BEYOND_CAP), _word_text)
def test_parse_word_raises_only_gdeen_errors(params, text):
    try:
        w = parse_word(params, text)
    except GdeenError:
        return
    assert w.params == params


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(_matrix_text)
def test_element_from_json_raises_only_gdeen_errors(text):
    try:
        g = element_from_json(text)
    except GdeenError:
        return
    assert element_from_json(element_to_json(g)) == g


# Commands that read --word, at small parameters: G(9,3,3), H(3,3,3), H(3,1,2)
_WORD_COMMANDS = [
    [cmd, "--d", "3", "--e", "3", "--n", "3"] for cmd in ("normal-form", "length", "eval-word")
] + [
    ["hecke-reduce", "--family", "een", "--e", "3", "--n", "3"],
    ["hecke-reduce", "--family", "d1n", "--d", "3", "--n", "2"],
]


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.sampled_from(_WORD_COMMANDS), _word_text)
def test_cli_exits_0_or_2_on_hostile_words(argv, text):
    # exit 1 is a counterexample, which no word can produce here; the text
    # is joined to its flag, so that text starting with "-" stays a value
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, f"--word={text}"])
    assert code in (0, 2)


@st.composite
def small_groups(draw):
    params = Params(draw(st.integers(1, 7)), draw(st.integers(1, 6)), draw(st.integers(2, 5)))
    hypothesis.assume(params.order() <= 20000)
    return params


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
@hypothesis.given(small_groups())
def test_length_polynomial_is_the_certified_histogram(params):
    poly = length_polynomial(params)
    assert sum(poly) == params.order()
    report = verify_geodesic(params)
    assert report["ok"] and "length_histogram_expected" not in report
    assert report["length_histogram"] == {str(k): count for k, count in enumerate(poly) if count}
