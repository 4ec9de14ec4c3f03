"""Property tests on random words, in groups past the default enumeration cap."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from gdeen import Params, alphabet, eval_word, make_word, normal_form  # noqa: E402

# G(9,3,5), G(2,2,8) and G(4,1,6): one group per presentation
BEYOND_CAP = [Params(3, 3, 5), Params(1, 2, 8), Params(4, 1, 6)]


@st.composite
def words_beyond_cap(draw):
    params = draw(st.sampled_from(BEYOND_CAP))
    syms = draw(st.lists(st.sampled_from(alphabet(params)), max_size=60))
    return make_word(params, syms)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(words_beyond_cap())
def test_normal_form_of_random_words_beyond_the_cap(w):
    g = eval_word(w)
    nf = normal_form(g)
    assert eval_word(nf.word) == g
    assert len(nf.word) <= len(w)
    assert nf.word.syms == tuple(sym for part in nf.parts for sym in part.syms)
