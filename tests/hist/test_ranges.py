"""Tests for range queries and prefix sums."""

import numpy as np
import pytest

from repro.hist.ranges import RangeQuery, evaluate_ranges, prefix_sums


class TestRangeQuery:
    def test_length(self):
        assert RangeQuery(2, 5).length == 4

    def test_unit_query(self):
        assert RangeQuery(3, 3).length == 1

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            RangeQuery(5, 2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RangeQuery(-1, 2)

    def test_validate_for(self):
        RangeQuery(0, 4).validate_for(5)
        with pytest.raises(ValueError):
            RangeQuery(0, 5).validate_for(5)

    def test_ordering(self):
        assert RangeQuery(0, 1) < RangeQuery(1, 2)

    def test_str(self):
        assert str(RangeQuery(1, 3)) == "[1..3]"


class TestRangeQueryValidation:
    """Inputs off the plain-int fast path meet the generic checks."""

    @pytest.mark.parametrize("lo, hi", [(True, 2), (0, False)])
    def test_bool_rejected(self, lo, hi):
        with pytest.raises(TypeError, match="got bool"):
            RangeQuery(lo, hi)

    def test_numpy_integers_accepted_and_kept(self):
        query = RangeQuery(np.int64(2), np.int32(5))
        assert type(query.lo) is np.int64 and query.length == 4

    @pytest.mark.parametrize("lo, hi, field", [(-1, 2, "lo"), (0, -3, "hi")])
    def test_negative_message(self, lo, hi, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            RangeQuery(lo, hi)

    def test_inverted_message(self):
        with pytest.raises(ValueError, match=r"lo \(5\) must be <= hi \(2\)"):
            RangeQuery(5, 2)

    @pytest.mark.parametrize("lo", [1.0, "1", None])
    def test_non_integer_rejected(self, lo):
        with pytest.raises(TypeError, match="lo must be an integer"):
            RangeQuery(lo, 3)


class TestPrefixSums:
    def test_values(self):
        np.testing.assert_allclose(prefix_sums([1.0, 2.0, 3.0]), [0, 1, 3, 6])

    def test_length(self):
        assert len(prefix_sums([1.0] * 5)) == 6


class TestEvaluateRanges:
    def test_matches_direct_sum(self):
        counts = np.arange(10, dtype=float)
        queries = [RangeQuery(0, 9), RangeQuery(3, 5), RangeQuery(7, 7)]
        answers = evaluate_ranges(counts, queries)
        np.testing.assert_allclose(
            answers,
            [counts.sum(), counts[3:6].sum(), counts[7]],
        )

    def test_empty_query_list(self):
        assert len(evaluate_ranges([1.0, 2.0], [])) == 0

    def test_rejects_out_of_range_query(self):
        with pytest.raises(ValueError):
            evaluate_ranges([1.0, 2.0], [RangeQuery(0, 2)])

    def test_random_agreement_with_bruteforce(self):
        rng = np.random.default_rng(0)
        counts = rng.uniform(-5, 5, size=50)
        queries = []
        for _ in range(100):
            lo = int(rng.integers(0, 50))
            hi = int(rng.integers(lo, 50))
            queries.append(RangeQuery(lo, hi))
        fast = evaluate_ranges(counts, queries)
        slow = [counts[q.lo : q.hi + 1].sum() for q in queries]
        np.testing.assert_allclose(fast, slow)
