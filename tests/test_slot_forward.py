"""The slot forward of stage 2 against the row forward it replaces, bit for bit.

``exact_attention_slots(tables, slots)`` must give the bytes of
``exact_attention_batch(params, rows[slots])`` for every block: prompts of
2 to 64 rows, blocks of 1, 2 and 7 prompts, odd and even d_o, d_i up to 32,
frames with zero rows and vocabularies of up to 10,000 ids.  Where a BLAS
kernel makes a gemm column's bits depend on the gemm's width, the tables are
not width-free and the forward takes the rows, so these tests hold under
every kernel.
"""

from unittest import mock

import numpy as np
import pytest

import dualgrad.transformer as transformer_module
from dualgrad.errors import InvalidIndex
from dualgrad.experiments import make_toy_env, random_attention
from dualgrad.optimizer import Demonstration, score_demos
from dualgrad.rng import stream
from dualgrad.sequence import _unit_rows
from dualgrad.transformer import SlotTables, exact_attention_batch, exact_attention_slots


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
    if env.tables.width_free:  # else nothing is built, as under Prescott for this shape
        s, d_o = len(env.tables.rows), env.params.d_o
        assert env.tables.keys.shape == env.tables.queries.shape == ((first + 10) * d_o * s,)
        assert env.tables.values.shape == (d_o * s,)


def test_tables_that_are_not_width_free_and_short_prompts_take_the_row_forward():
    rng = stream(0, "slot-fallback")
    rows = _frame(rng, 6, 24)
    params = random_attention(rng, 6, 4)
    for width_free, n, rows_called in ((True, 5, False), (True, 2, True), (False, 5, True)):
        slots = rng.integers(0, len(rows), (3, n))
        with mock.patch.object(transformer_module, "_width_free", lambda *_: width_free), \
                mock.patch.object(transformer_module, "exact_attention_batch",
                                  wraps=exact_attention_batch) as spy:
            tables = SlotTables(params, rows).grow(8)
            got = exact_attention_slots(tables, slots)
        assert spy.called is rows_called
        if not width_free or rows_called:
            assert got.tobytes() == exact_attention_batch(params, rows[slots]).tobytes()


def test_a_one_row_prompt_raises_as_the_row_forward_does():
    rng = stream(1, "slot-short")
    rows = _frame(rng, 6, 24)
    tables = SlotTables(random_attention(rng, 6, 4), rows).grow(4)
    with pytest.raises(InvalidIndex):
        exact_attention_slots(tables, np.zeros((2, 1), dtype=np.intp))
