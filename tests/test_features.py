"""Feature evaluation and naming."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firm import FirmError, Projection, SignedConjunction, Xor
from firm.features import row_blocks

from helpers import all_pm1_rows


class TestEvaluate:
    def test_projection(self):
        assert Projection(1).evaluate_rows([[3.0, -2.0]])[0] == -2.0

    def test_signed_conjunction(self):
        f = SignedConjunction(literals=((0, 1), (1, -1)))
        np.testing.assert_array_equal(
            f.evaluate_rows([[1.0, -1.0, 7.0], [1.0, 1.0, 7.0]]), [1.0, 0.0])

    def test_xor(self):
        np.testing.assert_array_equal(Xor(0, 1).evaluate_rows([[1.0, 1.0], [1.0, -1.0]]),
                                      [0.0, 1.0])

    def test_conjunction_needs_distinct_indices(self):
        with pytest.raises(FirmError):
            SignedConjunction(literals=((0, 1), (0, -1)))


class TestIsBinary:
    """A conjunction of m literals is a {0,1} feature that fires with rate 2^-m."""

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=4, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_conjunction_probability_is_two_to_minus_m(self, m, d):
        X = all_pm1_rows(d)
        rng = np.random.default_rng(m * 10 + d)
        idx = rng.choice(d, size=m, replace=False)
        signs = rng.choice([-1, 1], size=m)
        f = SignedConjunction(literals=tuple((int(j), int(s))
                                             for j, s in zip(idx, signs)))
        assert f.evaluate_rows(X).mean() == 2.0 ** (-m)


class TestDescribe:
    def test_describe_is_one_based(self):
        assert Projection(0).describe() == "x1"
        assert SignedConjunction(literals=((0, 1), (2, -1))).describe() == "and(+1,-3)"
        assert Xor(0, 1).describe() == "xor(1,2)"


class TestRowBlocks:
    @pytest.mark.parametrize("n,d", [(1, 1), (5, 3), (3000, 50), (2 ** 16 + 3, 1)])
    def test_blocks_are_the_centered_rows(self, n, d):
        rng = np.random.default_rng(n + d)
        X, mu, y = rng.normal(size=(n, d)), rng.normal(size=d), rng.normal(size=n)
        plain, labelled = list(row_blocks(X, mu)), list(row_blocks(X, mu, y))
        assert [len(B) for B in plain[:-1]] == [2 ** 16 // d] * (len(plain) - 1)
        assert [len(B) for B in labelled[:-1]] == [2 ** 16 // (d + 1)] * (len(labelled) - 1)
        assert np.concatenate(plain).tobytes() == (X - mu).tobytes()
        assert np.concatenate(labelled).tobytes() == np.column_stack([X - mu, y]).tobytes()
        assert all(B.flags.c_contiguous and B.flags.writeable for B in plain + labelled)
