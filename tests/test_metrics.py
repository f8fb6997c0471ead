import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dualgrad.errors import InvalidParameter
from dualgrad.metrics import (
    effect_d,
    hit_position,
    ndcg_at_k,
    recall_at_k,
    score_output,
)


def test_hit_position_first_occurrence():
    assert hit_position([5, 3, 7, 3], 3) == 2
    assert hit_position([5, 3, 7], 9) is None
    assert hit_position([], 1) is None


def test_effect_d_reference_values():
    assert effect_d(1) == 1.0
    assert effect_d(3) == 0.5
    assert effect_d(None) == 0.0


def test_effect_d_monotone_decreasing():
    values = [effect_d(p) for p in range(1, 1001)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_effect_d_rejects_bad_position():
    with pytest.raises(InvalidParameter):
        effect_d(0)
    with pytest.raises(InvalidParameter):
        effect_d(-2)


def test_score_output_bundles_position():
    s = score_output([4, 0, 2], 2)
    assert s.hit_position == 3 and s.value == 0.5
    miss = score_output([4, 0, 2], 9)
    assert miss.hit_position is None and miss.value == 0.0


@given(st.integers(min_value=1, max_value=10_000))
def test_effect_d_closed_form(pos):
    assert effect_d(pos) == pytest.approx(1.0 / math.log2(pos + 1))


def test_ndcg_single_relevant():
    assert ndcg_at_k([7, 3, 5], 3, k=3) == pytest.approx(1.0 / math.log2(3))
    assert ndcg_at_k([7, 3, 5], 3, k=1) == 0.0
    assert ndcg_at_k([7, 3, 5], 9, k=3) == 0.0
    assert ndcg_at_k([3], 3, k=10) == 1.0
    # nDCG@k is effect_d of the rank exactly when the rank is within the cutoff
    ranked = [11, 4, 17, 2, 9, 30, 5]
    for k in (1, 3, len(ranked), 10):
        for rank, target in enumerate(ranked, start=1):
            got = ndcg_at_k(ranked, target, k)
            assert (got == effect_d(rank)) == (rank <= k)
            assert rank <= k or got == 0.0


def test_recall_cutoff():
    assert recall_at_k([7, 3, 5], 3, k=2) == 1.0
    assert recall_at_k([7, 3, 5], 5, k=2) == 0.0
    assert recall_at_k([7], 9, k=5) == 0.0


def test_ranking_metrics_validate_k():
    with pytest.raises(InvalidParameter):
        ndcg_at_k([1], 1, k=0)
    with pytest.raises(InvalidParameter):
        recall_at_k([1], 1, k=0)


def test_effect_d_agrees_with_ndcg_inside_cutoff():
    # the demonstration-effect score is nDCG@k for the single relevant item
    # whenever the hit falls within the cutoff
    ranked = [9, 4, 6, 1, 0]
    for target in ranked:
        pos = hit_position(ranked, target)
        assert effect_d(pos) == ndcg_at_k(ranked, target, k=len(ranked))
