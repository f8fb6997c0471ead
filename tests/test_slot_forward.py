"""The slot forward of stage 2 against the row forward it replaces, bit for bit.

``exact_attention_slots(tables, slots)`` must give the bytes of
``exact_attention_batch(params, rows[slots])`` for every block: prompts of
2 to 64 rows, blocks of 1, 2 and 7 prompts, odd and even d_o, d_i up to 32,
frames with zero rows and vocabularies of up to 10,000 ids.  Both forwards
project context rows with ``_project`` and queries one row at a time, so the
equality rests on one BLAS property, tested here too: a row's projected bits
do not depend on the rows projected with it or on its place among them.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dualgrad.transformer as transformer_module
from dualgrad.errors import InvalidIndex
from dualgrad.experiments import make_toy_env, random_attention
from dualgrad.optimizer import Demonstration, score_demos
from dualgrad.rng import stream
from dualgrad.sequence import _unit_rows
from dualgrad.transformer import (
    SlotTables, _project, _qkv, exact_attention_batch, exact_attention_slots,
)


def _frame(rng, d_i, vocab):
    """Rows stacked as an environment's are, [instr; emb; leads], unit length or zero."""
    rows = rng.normal(0, 1, (4 + 2 + vocab, d_i))
    rows[1] = rows[6::5] = 0.0  # an instruction row and every fifth embedding row
    return _unit_rows(rows)


@pytest.mark.parametrize("d_i, d_o, vocab, end", [
    (6, 4, 24, 64),  # make_toy_env's defaults
    (8, 6, 24, 64),  # the CLI's and the benchmark's
    (8, 5, 24, 64),
    (1, 1, 24, 64),
    (3, 2, 24, 64),
    (11, 1, 24, 64),
    (32, 7, 24, 64),
    (32, 32, 24, 64),
    # wide tables: one gemm over all rows would differ at its last rows (3, 12) under the
    # default kernel of an AVX-512 host, and nearly everywhere (16, 6) under Haswell
    (8, 6, 10_000, 20),
    (3, 12, 10_000, 12),
    (16, 6, 10_000, 12),
    (31, 3, 10_000, 12),
])
def test_slot_forward_is_bitwise_the_row_forward(d_i, d_o, vocab, end):
    rng = stream(d_i * 1000 + d_o, f"slot-forward/{vocab}")
    rows = _frame(rng, d_i, vocab)
    params = random_attention(rng, d_i, d_o)
    tables = SlotTables(params, rows).grow(end)
    # the first and last 64 rows, where a table's gemms start and end, and others
    pool = np.r_[:64, len(rows) - 64 : len(rows), rng.integers(0, len(rows), 128)] % len(rows)
    for n in range(2, end + 1):
        for b in (1, 2, 7):
            slots = rng.choice(pool, (b, n))
            got = exact_attention_slots(tables, slots)
            assert got.tobytes() == exact_attention_batch(params, rows[slots]).tobytes(), (n, b)
    assert tables.positions == end


def test_tables_grow_to_exactly_the_longest_prompt_asked_for():
    env = make_toy_env(0)
    first = len(env.instr) + len(env.leads)
    assert env.tables is env.tables  # one per environment
    score_demos(env, [Demonstration((1, 2, 3))], 5)
    assert env.tables.positions == first + 3 + 5 - 1
    score_demos(env, [Demonstration((1,), (2,)), Demonstration((4,))], 5)
    assert env.tables.positions == first + 3 + 5 - 1  # long enough already
    score_demos(env, [Demonstration((1, 2, 3), (4, 5))], 6)
    assert env.tables.positions == first + 5 + 6 - 1  # not doubled
    tables, s, d_o = env.tables, len(env.tables.rows), env.params.d_o
    assert tables.keys.shape == tables.queries.shape == tables.values.shape \
        == ((first + 10) * d_o * s,)
    # values are held per position like keys, each position the same projected columns
    want = _project(env.params.w_v, tables.rows).T.tobytes()
    assert all(block.tobytes() == want for block in tables.values.reshape(-1, d_o, s))


@pytest.mark.parametrize("d_i, d_o", [(11, 1), (32, 32)])
def test_every_prompt_of_two_rows_or_more_takes_the_slot_forward(d_i, d_o):
    # shapes where one gemm over a prompt's context rounds a column by the gemm's width
    rng = stream(d_i * 100 + d_o, "slot-every-width")
    rows = _frame(rng, d_i, 24)
    params = random_attention(rng, d_i, d_o)
    tables = SlotTables(params, rows)
    for n in range(2, 25):
        slots = rng.integers(0, len(rows), (3, n))
        with mock.patch.object(transformer_module, "exact_attention_batch",
                               wraps=exact_attention_batch) as spy:
            got = exact_attention_slots(tables, slots)
        assert not spy.called, n
        assert got.tobytes() == exact_attention_batch(params, rows[slots]).tobytes(), n


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**16), d_o=st.integers(1, 8), d_i=st.integers(1, 11),
       n=st.integers(1, 150), k=st.integers(0, 10**6))
@example(seed=0, d_o=1, d_i=11, n=1, k=0)
@example(seed=1, d_o=8, d_i=11, n=150, k=149)  # every row, shuffled across three gemms
def test_project_gives_each_row_its_bits_alone_in_any_subset_and_order(seed, d_o, d_i, n, k):
    # the BLAS property both forwards rest on: a row's place among the gemm's columns,
    # and the rows beside it, leave its bits alone
    rng = stream(seed, "project-rows")
    w, rows = rng.normal(0, 1, (d_o, d_i)), rng.normal(0, 1, (n, d_i))
    every = _project(w, rows)
    assert every.shape == (n, d_o)
    pick = rng.permutation(n)[: 1 + k % n]
    assert _project(w, rows[pick]).tobytes() == every[pick].tobytes()
    for i in pick[:8]:
        assert _project(w, rows[i : i + 1]).tobytes() == every[i : i + 1].tobytes()


def test_a_one_row_prompt_raises_as_the_row_forward_does():
    rng = stream(1, "slot-short")
    rows = _frame(rng, 6, 24)
    tables = SlotTables(random_attention(rng, 6, 4), rows).grow(4)
    with pytest.raises(InvalidIndex):
        exact_attention_slots(tables, np.zeros((2, 1), dtype=np.intp))


def _softmax_oracle(keys, values, q):
    """``_softmax``'s arithmetic in plain form: fresh arrays and ndarray methods."""
    scores = np.matmul(keys.transpose(0, 2, 1), q)[:, :, 0] / math.sqrt(keys.shape[1])
    scores -= scores.max(axis=1, keepdims=True)
    w = np.exp(scores)
    w /= w.sum(axis=1, keepdims=True)
    return np.matmul(values, w[:, :, None])[:, :, 0]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**16), b=st.integers(1, 7), n=st.integers(2, 64),
       d_o=st.integers(1, 32), d_i=st.integers(1, 12), scale=st.sampled_from([1e-3, 1.0, 40.0]),
       nan=st.booleans())
@example(seed=0, b=3, n=64, d_o=32, d_i=8, scale=40.0, nan=True)
def test_softmax_is_bitwise_its_plain_form(seed, b, n, d_o, d_i, scale, nan):
    # the slot and stage-2 tests compare forwards that share ``_softmax``: this one does not
    rng = stream(seed, "softmax-oracle")
    params = random_attention(rng, d_i, d_o)
    tokens = rng.normal(0, scale, (b, n, d_i))
    if nan:  # one prompt's row: its output is NaN, and no other prompt's may move
        tokens[rng.integers(b), rng.integers(n), rng.integers(d_i)] = np.nan
    got = exact_attention_batch(params, tokens)
    assert got.tobytes() == _softmax_oracle(*_qkv(params, tokens)).tobytes()
    assert np.isnan(got).any(axis=1).sum() == nan
