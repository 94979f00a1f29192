"""Feature evaluation and compact-string parsing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firm import (FirmError, PositionalOligomer, Projection, SignedConjunction,
                  Threshold, Xor, parse_feature)

from helpers import all_pm1_rows


class TestEvaluate:
    def test_projection(self):
        assert Projection(1).evaluate([3.0, -2.0]) == -2.0

    def test_signed_conjunction(self):
        f = SignedConjunction(literals=((0, 1), (1, -1)))
        assert f.evaluate([1.0, -1.0, 7.0]) == 1.0
        assert f.evaluate([1.0, 1.0, 7.0]) == 0.0

    def test_xor(self):
        assert Xor(0, 1).evaluate([1.0, 1.0]) == 0.0
        assert Xor(0, 1).evaluate([1.0, -1.0]) == 1.0

    def test_threshold(self):
        f = Threshold(0, 0.5)
        assert f.evaluate([0.5]) == 0.0
        assert f.evaluate([0.50001]) == 1.0

    def test_positional_oligomer(self):
        f = PositionalOligomer(z="GAT", j=2)
        assert f.evaluate("AAGATC") == 1.0
        assert f.evaluate("AAGTTC") == 0.0

    def test_oligomer_on_string_rows(self):
        f = PositionalOligomer(z="GAT", j=0)
        np.testing.assert_array_equal(f.evaluate_rows(["GATT", "AGAT"]), [1.0, 0.0])

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


class TestParse:
    @pytest.mark.parametrize("text,expected", [
        ("x3", Projection(2)),
        ("and(+1,-2)", SignedConjunction(literals=((0, 1), (1, -1)))),
        ("xor(1,2)", Xor(0, 1)),
        ("thr(2,0.5)", Threshold(1, 0.5)),
        ("kmer(GAT@4)", PositionalOligomer(z="GAT", j=3)),
    ])
    def test_parse_roundtrip(self, text, expected):
        f = parse_feature(text)
        assert f == expected
        assert parse_feature(f.describe()) == f

    def test_describe_is_one_based(self):
        assert Projection(0).describe() == "x1"
        assert PositionalOligomer(z="GAT", j=0).describe() == "kmer(GAT@1)"

    @pytest.mark.parametrize("bad", ["x0x", "and()", "xor(1)", "thr(1)", "kmer(G@)", "y2"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(FirmError):
            parse_feature(bad)
