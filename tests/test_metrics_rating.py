import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pearson_naive, ranks_naive, srcc_naive
from uniar.errors import NumericError, ValidationError
from uniar.metrics import average_ranks, plcc, srcc


@st.composite
def _tied_values(draw):
    """Up to 3,000 values picked from a pool of at most eleven, so ties are
    heavy: each of 0.0, -0.0, the infinities and NaN is in the pool half
    the time, beside up to six other floats."""
    special = [0.0, -0.0, math.inf, -math.inf, math.nan]
    keep = draw(st.lists(st.booleans(), min_size=5, max_size=5))
    pool = [v for v, k in zip(special, keep) if k] + draw(
        st.lists(st.floats(), min_size=0 if any(keep) else 1, max_size=6))
    n = draw(st.one_of(st.integers(0, 30), st.integers(0, 3000)))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=n)
    return [pool[k] for k in picks]


class TestRanks:
    def test_ties_share_average_rank(self):
        assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]

    @settings(max_examples=80, deadline=None)
    @given(x=_tied_values())
    def test_matches_naive(self, x):
        got, want = average_ranks(x).tolist(), ranks_naive(x)
        # the oracle ranks a NaN 0.5, as nothing is below or equal to it; the
        # sort puts each NaN after every number, so NaNs take the top ranks in
        # input order and leave every other value's rank as the oracle's
        nan = {i for i, v in enumerate(x) if math.isnan(v)}
        assert ([r for i, r in enumerate(got) if i not in nan]
                == [r for i, r in enumerate(want) if i not in nan])
        assert [got[i] for i in sorted(nan)] == [
            float(r) for r in range(len(x) - len(nan) + 1, len(x) + 1)]


class TestCorrelations:
    def test_srcc_matches_naive_at_benchmark_size(self, rng):
        # eval-rating's 24,000 pairs, on a 0.01 grid so most values are tied
        obs = np.round(rng.uniform(0.0, 1.0, 24_000), 2)
        pred = np.round(np.clip(obs + rng.normal(0.0, 0.2, 24_000), 0.0, 1.0), 2)
        assert srcc(pred, obs) == pytest.approx(srcc_naive(pred.tolist(), obs.tolist()),
                                                abs=1e-12)

    def test_match_naive_oracles(self, rng):
        for _ in range(20):
            p = rng.uniform(0, 1, 15)
            o = rng.uniform(0, 1, 15)
            assert plcc(p, o) == pytest.approx(pearson_naive(p.tolist(), o.tolist()), abs=1e-12)
            assert srcc(p, o) == pytest.approx(srcc_naive(p.tolist(), o.tolist()), abs=1e-12)

    def test_match_scipy_with_ties(self, rng):
        for _ in range(10):
            p = rng.integers(0, 4, size=20).astype(float)
            o = rng.integers(0, 4, size=20).astype(float)
            if np.all(p == p[0]) or np.all(o == o[0]):
                continue
            assert srcc(p, o) == pytest.approx(scipy.stats.spearmanr(p, o).statistic, abs=1e-9)
            assert plcc(p, o) == pytest.approx(scipy.stats.pearsonr(p, o).statistic, abs=1e-9)

    def test_perfect_and_anti_correlation(self):
        x = [0.1, 0.4, 0.5, 0.9]
        assert srcc(x, x) == pytest.approx(1.0)
        assert plcc(x, x) == pytest.approx(1.0)
        y = [0.9, 0.5, 0.4, 0.1]
        assert srcc(x, y) == pytest.approx(-1.0)

    def test_monotone_nonlinear_relation(self):
        x = np.linspace(0.1, 1.0, 12)
        y = x ** 5
        assert srcc(x, y) == pytest.approx(1.0)
        assert plcc(x, y) < 0.999

    def test_constant_scores_rejected(self):
        with pytest.raises(NumericError):
            plcc([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(NumericError):
            srcc([0.1, 0.2, 0.3], [2.0, 2.0, 2.0])

    def test_shape_errors(self):
        with pytest.raises(ValidationError):
            plcc([1.0, 2.0], [1.0])
        with pytest.raises(ValidationError):
            srcc([1.0], [1.0])
        with pytest.raises(ValidationError):
            plcc([np.nan, 1.0], [0.0, 1.0])
