import json

import pytest

from mwrelay.rng import stream
from mwrelay.schedule import (
    MessageRef,
    ScheduleError,
    SymbolLengths,
    block_ids,
    build_table,
    format_table,
    decode_sums,
    message_ids,
    msg_id,
    per_message,
    reindex_users,
    verify_props,
)


def lengths_l3() -> SymbolLengths:
    return SymbolLengths(3, {(1,): 2, (2,): 2, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 1})


def random_lengths(rng, num_users: int, max_k: int = 6) -> SymbolLengths:
    k = {m: int(rng.integers(0, max_k + 1)) for m in message_ids(num_users)}
    _, reindexed = reindex_users(SymbolLengths(num_users, k))
    return reindexed


def test_block_order():
    assert block_ids(4) == [(2,), (3,), (4,), (2, 3), (2, 4), (3, 4)]
    assert block_ids(2) == [(2,)]


def test_k_sum():
    k = lengths_l3()
    assert k.k_sums() == [5, 5, 5]
    k2 = SymbolLengths(3, {(1,): 4, (2,): 1, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 2})
    assert k2.k_sums() == [5, 7, 6]


@pytest.mark.parametrize(
    "key, expected",
    [(2, (2,)), ((2,), (2,)), ("2", (2,)), ((3, 1), (1, 3)), ("3,1", (1, 3)), (" 1, 3 ", (1, 3))],
)
def test_msg_id_canonical_spellings(key, expected):
    assert msg_id(key) == expected


@pytest.mark.parametrize("key", [(1, 1), (1, 2, 3), "1,x", "", 2.0, ()])
def test_msg_id_rejects_other_keys(key):
    with pytest.raises(ValueError, match="bad message id"):
        msg_id(key)


def test_per_message_completes_and_validates():
    table = per_message(3, [("2,3", 4), ((1,), 1)], int, "length")
    assert list(table) == message_ids(3)
    assert table == {(1,): 1, (2,): 0, (3,): 0, (1, 2): 0, (1, 3): 0, (2, 3): 4}
    for items, match in (
        ([((4,), 1)], "unknown message"),
        ([((1, 2), 1), ((2, 1), 0)], "given twice"),
        ([((1,), -1)], "negative"),
    ):
        with pytest.raises(ValueError, match=match):
            per_message(3, items, int, "length")
    assert decode_sums(3, table) == [4, 1, 1]


def test_symbol_lengths_reject_a_repeated_pair_and_non_integers():
    with pytest.raises(ValueError, match="given twice"):
        SymbolLengths(3, {(1, 2): 1, (2, 1): 0})
    for bad in (2.7, True):
        with pytest.raises(ValueError, match="not an integer"):
            SymbolLengths(3, {(1,): bad})
    assert SymbolLengths(3, {(1,): 2.0}).k[(1,)] == 2


def test_row_symbols_are_user_1s_messages_the_user_lacks():
    k = SymbolLengths(4, {(1,): 2, (1, 2): 1, (1, 3): 1, (1, 4): 2, (2, 3): 5})
    assert k.row_symbols(3) == [
        MessageRef((1,), 0), MessageRef((1,), 1), MessageRef((1, 2), 0),
        MessageRef((1, 4), 0), MessageRef((1, 4), 1),
    ]


def test_reindex_examples():
    sorted_k = SymbolLengths(3, {(1,): 0, (2,): 3, (3,): 2})
    order, re = reindex_users(sorted_k)
    assert order == [1, 2, 3]
    assert re.k == sorted_k.k

    # k-sums (5, 7, 6): user 2 takes index 1
    k = SymbolLengths(3, {(1,): 4, (2,): 1, (3,): 2, (1, 2): 1, (1, 3): 1, (2, 3): 2})
    order, re = reindex_users(k)
    assert order == [2, 1, 3]
    assert re.k_sums()[0] == 7
    assert re.k_sums()[0] == max(re.k_sums())
    # original private rates follow their users
    assert re.k[(1,)] == 1 and re.k[(2,)] == 4 and re.k[(3,)] == 2

    ties = SymbolLengths(3, {(1,): 1, (2,): 1, (3,): 1})
    order, _ = reindex_users(ties)
    assert order == [1, 2, 3]


def test_build_table_minimal_l2():
    t = build_table(SymbolLengths(2, {(1,): 1, (2,): 1}))
    assert len(t.blocks) == 1
    assert t.blocks[0].msg == (2,)
    assert t.blocks[0].cells[2] == [MessageRef((1,), 0)]


def test_build_table_l3_exact_fit():
    t = build_table(lengths_l3())
    widths = [b.width for b in t.blocks]
    assert widths == [2, 2, 1]
    row2 = t.row_content(2)
    assert row2 == [MessageRef((1,), 0), MessageRef((1,), 1), MessageRef((1, 3), 0)]
    row3 = t.row_content(3)
    assert row3 == [MessageRef((1,), 0), MessageRef((1,), 1), MessageRef((1, 2), 0)]
    assert verify_props(t).ok


def test_build_table_padding_only_row():
    t = build_table(SymbolLengths(3, {(1,): 0, (2,): 3}))
    assert t.row_content(2) == [None, None, None]
    assert verify_props(t).ok


def test_build_table_fit_violation_names_user():
    bad = SymbolLengths(2, {(1,): 3, (2,): 1})  # user 1 total not maximal
    with pytest.raises(ScheduleError, match="row 2"):
        build_table(bad)


def test_table_structure_invariants():
    rng = stream(77, "struct")
    for _ in range(100):
        num_users = int(rng.integers(2, 6))
        k = random_lengths(rng, num_users)
        t = build_table(k)
        assert t.total_cols == k.k_sums()[0]
        expected_blocks = (num_users - 1) + (num_users - 1) * (num_users - 2) // 2
        assert len(t.blocks) == expected_blocks
        for a in range(2, num_users + 1):
            width = sum(b.width for b in t.blocks if a in b.star_rows)
            content = [r for r in t.row_content(a) if r is not None]
            expected = k.k[(1,)] + sum(
                k.k[(1, j)] for j in range(2, num_users + 1) if j != a
            )
            assert len(content) == expected
            assert width >= expected
            # padding sits at the end of the row
            tail = t.row_content(a)[len(content):]
            assert all(r is None for r in tail)
        for b in t.blocks:
            assert set(b.cells) == set(b.star_rows)
            assert tuple(sorted(b.msg)) == b.star_rows


def test_build_table_deterministic():
    k = lengths_l3()
    t1, t2 = build_table(k), build_table(k)
    assert t1.to_json() == t2.to_json()


def test_verify_props_random_instances():
    rng = stream(77, "props")
    for _ in range(200):
        num_users = int(rng.integers(2, 6))
        t = build_table(random_lengths(rng, num_users))
        rep = verify_props(t)
        assert rep.ok, rep.failures


def test_verify_props_negative_control():
    t = build_table(lengths_l3())
    # inject a message user 1 does not know into row 3
    t.blocks[1].cells[3][0] = MessageRef((2,), 0)
    rep = verify_props(t)
    assert not rep.ok
    # One line for the one bad symbol (C1 also sees its count change).
    assert [f for f in rep.failures if not f.startswith("C1")] == [
        "P1: block (3,) row 3 col 0 holds W2[0], outside user 1's private and pair messages"
    ]


def test_corollary_counts():
    t = build_table(lengths_l3())
    rep = verify_props(t)
    # user 2: k_1 + k_{1,3} = 2 + 1
    assert rep.unknown_counts[2] == 3
    assert rep.unknown_counts[3] == 3


def test_json_round_trip_and_dump():
    t = build_table(lengths_l3())
    assert json.loads(json.dumps(t.to_json())) == t.to_json()
    dump = format_table(t)
    assert "block (2,3)" in dump and "W1[0]" in dump
