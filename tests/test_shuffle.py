import numpy as np
import pytest

from mwrelay import gf
from mwrelay.codec import compile_scheme
from mwrelay.gf import Field
from mwrelay.rng import stream
from mwrelay.schedule import MessageRef, SymbolLengths, build_table, message_ids, reindex_users
from mwrelay.shuffle import (
    ShuffleError,
    SimplifiedColumn,
    decode_matrix,
    run_shuffle,
    simplify,
)


def lengths_l3() -> SymbolLengths:
    return SymbolLengths(3, {(1,): 2, (2,): 2, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 1})


def random_table(rng, num_users=None, max_k=6):
    if num_users is None:
        num_users = int(rng.integers(2, 6))
    k = {m: int(rng.integers(0, max_k + 1)) for m in message_ids(num_users)}
    _, reindexed = reindex_users(SymbolLengths(num_users, k))
    return build_table(reindexed)


def resolved_count(cols: list[SimplifiedColumn]) -> int:
    """Columns whose two row entries are equal (the swap progress measure)."""
    n = 0
    for c in cols:
        if len(c.rows) == 2:
            r0, r1 = c.rows
            if c.cells[r0] is not None and c.cells[r0] == c.cells[r1]:
                n += 1
    return n


def all_refs(cols):
    out = []
    for c in cols:
        for r in c.rows:
            if c.cells[r] is not None:
                out.append(c.cells[r])
    return sorted(out)


def test_simplify_shapes_and_normalization():
    t = build_table(lengths_l3())
    cols = simplify(t)
    assert len(cols) == t.total_cols
    # single-starred block column: one row, so no bottom
    assert cols[0].block == (2,) and cols[0].rows == (2,)
    assert cols[0].entries() == [MessageRef((1,), 0)]
    # pair block column carries two entries here
    pair_col = [c for c in cols if c.block == (2, 3)][0]
    assert pair_col.cells[2] == MessageRef((1, 3), 0)
    assert pair_col.cells[3] == MessageRef((1, 2), 0)


def test_simplify_identical_pair_normalizes():
    t = build_table(SymbolLengths(3, {(1,): 1, (2, 3): 1}))
    cols = simplify(t)
    pair_col = [c for c in cols if c.block == (2, 3)][0]
    # both rows hold W1[0]; the view keeps a single copy
    assert pair_col.cells[2] == pair_col.cells[3] == MessageRef((1,), 0)
    assert pair_col.rows == (2, 3)
    assert pair_col.entries() == [MessageRef((1,), 0)]


def test_simplify_fully_empty_column():
    t = build_table(SymbolLengths(3, {(2,): 2}))
    cols = simplify(t)
    assert all(c.entries() == [] for c in cols)


def make_col(index, block, rows, cells):
    return SimplifiedColumn(index, block, rows, dict(cells))


def test_swap_example():
    # columns [alpha/beta] and [gamma/alpha] for user 2: one swap resolves
    alpha = MessageRef((1,), 0)
    beta = MessageRef((1, 3), 0)
    gamma = MessageRef((1,), 1)
    x = make_col(0, (2, 3), (2, 3), {2: alpha, 3: beta})
    y = make_col(1, (2, 4), (2, 4), {2: gamma, 4: alpha})
    out, log = run_shuffle([x, y])
    assert len(log) == 1
    rec = log[0]
    assert (rec.user, rec.col_a, rec.col_b) == (2, 0, 1)
    assert out[0].cells[2] == gamma and out[0].cells[3] == beta
    assert out[1].cells[2] == alpha and out[1].cells[4] == alpha
    assert out[1].entries() == [alpha]


def test_already_resolved_no_swaps():
    t = build_table(lengths_l3())
    cols = simplify(t)
    out, log = run_shuffle(cols)
    again, log2 = run_shuffle(out)
    assert log2 == []
    assert all_refs(again) == all_refs(out)
    assert [c.cells for c in again] == [c.cells for c in out]


def test_empty_bottoms_never_swap():
    alpha = MessageRef((1,), 0)
    gamma = MessageRef((1,), 1)
    x = make_col(0, (2,), (2,), {2: alpha})
    y = make_col(1, (2, 3), (2, 3), {2: gamma, 3: alpha})
    _, log = run_shuffle([x, y])
    assert log == []


def test_shuffle_random_instances_terminate_and_solve():
    rng = stream(99, "shuffle")
    field = Field(2)
    for _ in range(300):
        t = random_table(rng)
        cols0 = simplify(t)
        cols, log = run_shuffle(cols0)
        total = t.total_cols
        if log:
            assert max(r.cycle for r in log) <= total
        # conservation of the symbol multiset
        assert all_refs(cols) == all_refs(cols0)
        for a in range(2, t.num_users + 1):
            system = decode_matrix(cols, a, t)
            n_unknown = len(system.unknown_order)
            assert system.matrix.shape == (n_unknown, n_unknown)
            assert gf.rank(field, system.matrix) == n_unknown


def test_run_shuffle_leaves_its_input_unchanged():
    # The returned columns are new, with cells of their own; swaps never reach the input's.
    rng = stream(99, "shuffle")
    swapped = 0
    for _ in range(300):
        t = random_table(rng)
        cols = simplify(t)
        out, log = run_shuffle(cols)
        assert [c.cells for c in cols] == [c.cells for c in simplify(t)]
        assert all(o is not c and o.cells is not c.cells for o, c in zip(out, cols))
        swapped += bool(log)
    assert swapped > 0


def test_swap_log_monotone_measure():
    rng = stream(99, "monotone")
    for _ in range(60):
        t = random_table(rng, max_k=5)
        cols = simplify(t)
        before = resolved_count(cols)
        out, log = run_shuffle(cols)
        # replay the log step by step: the resolved count strictly climbs
        import copy

        replay = copy.deepcopy(cols)
        by_index = {c.index: c for c in replay}
        count = resolved_count(replay)
        for rec in log:
            x, y = by_index[rec.col_a], by_index[rec.col_b]
            x.cells[rec.user], y.cells[rec.user] = y.cells[rec.user], x.cells[rec.user]
            new_count = resolved_count(replay)
            assert new_count > count
            count = new_count
        assert [c.cells for c in replay] == [c.cells for c in out]
        assert count >= before


def test_forbidden_pattern_gone_for_every_user():
    from mwrelay.shuffle import _find_swap

    rng = stream(99, "post")
    for _ in range(100):
        t = random_table(rng)
        cols, _ = run_shuffle(simplify(t))
        for a in range(2, t.num_users + 1):
            mine = [c for c in cols if c.cells.get(a) is not None]
            assert _find_swap(mine, a) is None


def test_chain_structure_audit():
    # any symbol that tops a column with a non-trivial bottom never appears
    # as a bottom elsewhere, so substitution resolves in one step
    rng = stream(99, "chain")
    for _ in range(100):
        t = random_table(rng, max_k=4)
        cols, _ = run_shuffle(simplify(t))
        for a in range(2, t.num_users + 1):
            tops_nontrivial = set()
            bottoms = set()
            for c in cols:
                top, bottom = c.view(a)
                if c.cells.get(a) is None:
                    continue
                if bottom is not None and bottom != top:
                    tops_nontrivial.add(top)
                    bottoms.add(bottom)
            assert tops_nontrivial.isdisjoint(bottoms)


def test_decode_matrix_examples():
    field = Field(2)
    t = build_table(lengths_l3())
    cols, _ = run_shuffle(simplify(t))
    system = decode_matrix(cols, 2, t)
    # unknowns are W1 (2 symbols) then W1_3 (1 symbol)
    assert system.unknown_order == [
        MessageRef((1,), 0),
        MessageRef((1,), 1),
        MessageRef((1, 3), 0),
    ]
    # block (2) columns hold single unknowns: unit rows
    assert np.array_equal(system.matrix[0], [1, 0, 0])
    assert np.array_equal(system.matrix[1], [0, 1, 0])
    # block (2,3) column pairs W1_3[0] with W1_2[0], which user 2 knows
    assert np.array_equal(system.matrix[2], [0, 0, 1])
    assert system.known_refs[2] == [MessageRef((1, 2), 0)]
    assert gf.rank(field, system.matrix) == 3


def test_decode_matrix_rejects_user_one():
    t = build_table(lengths_l3())
    cols = simplify(t)
    with pytest.raises(ValueError):
        decode_matrix(cols, 1, t)


def test_the_shuffle_is_needed_for_the_relay_word_to_decode():
    # Already in reindexed order; one swap fixes user 2's view.
    k = {(1,): 0, (2,): 0, (3,): 2, (4,): 0, (1, 2): 1, (1, 3): 1, (1, 4): 2,
         (2, 3): 1, (2, 4): 2, (3, 4): 1}
    lengths = SymbolLengths(4, k)
    assert reindex_users(lengths)[0] == [1, 2, 3, 4]
    t = build_table(lengths)
    with pytest.raises(ShuffleError, match="user 2"):
        compile_scheme(Field(2), t, simplify(t))
    cols, log = run_shuffle(simplify(t))
    assert len(log) == 1
    compile_scheme(Field(2), t, cols)
