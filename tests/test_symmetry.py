"""Counts are invariant under the square's symmetries and under renaming.

Both oracle plans and the coloring order sort by coordinates, and the
tiling's clip order reads ids, so a pattern moved through one of the
square's 8 symmetries, optionally scaled and shifted by rationals, with
fresh shuffled ids and shuffled rows (``helpers.moved_pattern``), must
keep both counts, the ``verify`` verdict and its file round trip."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfold import count_colorings, count_locally_valid, tile, verify_bijection
from flatfold.generators import crane
from flatfold.patternio import emit, load_text

from .helpers import moved_pattern, small_pattern


def _invariants(cp) -> tuple:
    """Both counts, the ``verify`` verdict, and whether the pattern's file
    reads back to a pattern that writes the same file."""
    g = tile(cp)
    text = emit(cp)
    return (count_locally_valid(cp, limit=len(cp.creases)), count_colorings(g),
            verify_bijection(cp, g).ok, emit(load_text(text)[0]) == text)


_CRANE = (93_312, 93_312, True, True)


@pytest.mark.parametrize("k", range(8))
def test_crane_under_each_symmetry_of_the_square(k):
    # odd maps also scale by 3/2 and shift by (-7/3, 5)
    scale, shift = (Fraction(3, 2), (Fraction(-7, 3), 5)) if k % 2 else (1, (0, 0))
    assert _invariants(moved_pattern(crane(), k, scale, shift, seed=k)) == _CRANE


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["modified-miura", "snake", "twists"]),
       st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6), st.integers(0, 7),
       st.one_of(st.just(1), st.fractions(min_value=Fraction(1, 10), max_value=10,
                                          max_denominator=12).filter(lambda q: q > 0)),
       st.tuples(rationals, rationals))
def test_counts_are_invariant_under_the_squares_symmetries(kind, m, n, seed, k, scale, shift):
    cp = small_pattern(kind, m, n, seed)
    assert _invariants(moved_pattern(cp, k, scale, shift, seed)) == _invariants(cp)
