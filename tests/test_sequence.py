import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualgrad.errors import InvalidDimension
from dualgrad.sequence import SegmentedSequence, Tag, _unit_rows


def _seq(n_t=3, n_d=2, k=2, n_per=0, normalize=True):
    rng = np.random.default_rng(0)
    return SegmentedSequence.build(
        rng.normal(0, 1, (n_t, 5)),
        rng.normal(0, 1, (n_d, 5)),
        rng.normal(0, 1, (k, 5)),
        per=rng.normal(0, 1, (n_per, 5)) if n_per else None,
        normalize=normalize,
    )


def test_segment_order_and_tags():
    seq = _seq(3, 2, 2, n_per=2)
    assert seq.tags == (
        Tag.T_INSTR, Tag.T_INSTR, Tag.T_INSTR,
        Tag.D_CURR, Tag.D_CURR,
        Tag.D_PER, Tag.D_PER,
        Tag.T_LEAD, Tag.T_LEAD,
    )
    assert len(seq) == 9 and seq.dim == 5


def test_counts_and_index_sets():
    seq = _seq(3, 2, 2, n_per=2)
    assert list(seq.idx_task) == [0, 1, 2, 7, 8]


def test_normalization():
    seq = _seq(normalize=True)
    assert np.allclose(np.linalg.norm(seq.tokens, axis=1), 1.0)
    raw = _seq(normalize=False)
    assert not np.allclose(np.linalg.norm(raw.tokens, axis=1), 1.0)


def test_append_applies_norm_policy():
    seq = _seq(normalize=True)
    longer = seq.append(np.full(5, 3.0))
    assert len(longer) == len(seq) + 1
    assert longer.tags[-1] is Tag.T_LEAD
    assert np.linalg.norm(longer.tokens[-1]) == pytest.approx(1.0)
    raw = _seq(normalize=False).append(np.full(5, 3.0))
    assert np.linalg.norm(raw.tokens[-1]) == pytest.approx(3.0 * np.sqrt(5))


def test_append_preserves_original():
    seq = _seq()
    n = len(seq)
    seq.append(np.ones(5))
    assert len(seq) == n


def test_truncate_and_with_tokens():
    seq = _seq(3, 2, 2)
    cut = seq.truncate(4)
    assert len(cut) == 4 and cut.tags == seq.tags[:4]
    swapped = seq.with_tokens(np.zeros((len(seq), 3)))
    assert swapped.dim == 3 and swapped.tags == seq.tags


def test_tokens_are_immutable():
    seq = _seq()
    with pytest.raises(ValueError):
        seq.tokens[0, 0] = 9.0


def test_dimension_mismatch_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidDimension):
        SegmentedSequence.build(
            rng.normal(0, 1, (2, 5)), rng.normal(0, 1, (2, 4)), rng.normal(0, 1, (1, 5))
        )
    with pytest.raises(InvalidDimension):
        _seq().append(np.ones(6))


@pytest.mark.parametrize("segment, tag", [
    ("instr", "T_instr"), ("demo", "D_curr"), ("per", "D_per"), ("leads", "T_lead"),
])
def test_a_segment_of_three_dimensions_is_named_with_its_shape(segment, tag):
    parts = {"instr": np.ones((2, 3)), "demo": np.ones((2, 3)), "leads": np.ones((1, 3))}
    parts[segment] = np.ones((2, 3, 3))
    with pytest.raises(InvalidDimension, match=re.escape(f"{tag} segment (2, 3, 3) is not")):
        SegmentedSequence.build(**parts)


@pytest.mark.parametrize(
    "empty", [np.zeros(0), [], np.zeros((0, 3))], ids=["zeros", "list", "rows"]
)
def test_a_sequence_of_empty_segments_is_rejected(empty):
    with pytest.raises(InvalidDimension, match="needs at least one token"):
        SegmentedSequence.build(empty, empty, empty, per=empty)


@pytest.mark.parametrize("empty", [np.zeros(0), []], ids=["zeros", "list"])
@pytest.mark.parametrize("segment", ["instr", "demo", "per", "leads"])
def test_an_empty_segment_adds_no_token(segment, empty):
    rng = np.random.default_rng(0)
    sizes = {"instr": 2, "demo": 2, "per": 1, "leads": 1}
    parts = {name: rng.normal(0, 1, (n, 3)) for name, n in sizes.items()}
    want = SegmentedSequence.build(**{**parts, segment: np.zeros((0, 3))})
    got = SegmentedSequence.build(**{**parts, segment: empty})
    assert got.tags == want.tags and got.tokens.tobytes() == want.tokens.tobytes()
    assert len(got) == 6 - len(parts[segment])


def test_an_empty_instruction_leaves_the_demonstration_and_lead():
    seq = SegmentedSequence.build(np.zeros(0), np.ones((2, 3)), np.ones((1, 3)))
    assert seq.tags == (Tag.D_CURR, Tag.D_CURR, Tag.T_LEAD) and seq.tokens.shape == (3, 3)


@settings(max_examples=200, deadline=None)
@given(
    x=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    zero_rows=st.lists(st.booleans(), max_size=12),
)
@example(x=np.zeros((3, 4)), zero_rows=[])
def test_unit_rows_is_bitwise_the_linalg_norm_form(x, zero_rows):
    x = x.copy()
    x[np.array(zero_rows + [False] * len(x))[: len(x)]] = 0.0
    with np.errstate(over="ignore"):  # huge rows overflow to an infinite norm in both forms
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        assert _unit_rows(x).tobytes() == (x / norms).tobytes()


def _append_oracle(seq, embedding):
    """The former ``append``: the row through ``_unit_rows``, then ``replace`` and ``np.vstack``."""
    emb = np.asarray(embedding, dtype=float).reshape(1, -1)
    if seq.normalized:
        emb = _unit_rows(emb)
    return replace(seq, tokens=np.vstack([seq.tokens, emb]), tags=seq.tags + (Tag.T_LEAD,))


@settings(max_examples=200, deadline=None)
@given(
    row=hnp.arrays(np.float64, 5, elements=st.floats(allow_nan=False, allow_infinity=False)),
    scale=st.sampled_from([0.0, 1e-310, 1e-160, 1.0, 1e160, 1e300]),
    normalize=st.booleans(),
)
@example(row=np.zeros(5), scale=1.0, normalize=True)
@example(row=np.full(5, 3.0), scale=1e-160, normalize=True)  # squares underflow
@example(row=np.full(5, 3.0), scale=1e160, normalize=True)  # squares overflow
def test_append_is_bitwise_the_restacking_form(row, scale, normalize):
    seq = _seq(normalize=normalize)
    with np.errstate(over="ignore", under="ignore"):
        emb = row * scale
        assume(np.isfinite(emb).all())
        got, want = seq.append(emb), _append_oracle(seq, emb)
    assert got.tokens.tobytes() == want.tokens.tobytes()
    assert got.tokens.shape == want.tokens.shape
    assert got.tags == want.tags and got.normalized is want.normalized
    assert not got.tokens.flags.writeable
