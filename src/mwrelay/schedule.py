"""Uplink message schedule: block layout and cell assignments.

Messages are finite-field vectors; ``k[I]`` is the symbol length of the
message shared by index set ``I`` (a singleton for a private message, a
pair for a common one).  The schedule is a table whose columns are
uplink symbol slots grouped into blocks:

* one block per message that user 1 must decode (everything whose index
  set excludes user 1), in canonical order: singletons 2..L, then pairs
  over {2..L} lexicographically;
* row 1 of block I carries message I itself;
* row a (a >= 2) has a cell exactly in the blocks whose index set
  contains a ("starred" cells), and those cells jointly carry the
  messages user a must still learn and user 1 already knows: user 1's
  private message followed by the pair messages user 1 shares with each
  other user, laid left to right with empty padding at the end.

The construction requires user 1 to have the largest per-user symbol
total; ``reindex_users`` relabels any instance into that form.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import NamedTuple

MsgId = tuple[int, ...]


class ScheduleError(ValueError):
    """Raised when a table cannot be constructed as specified."""


class MessageRef(NamedTuple):
    """One symbol of one message: the message id and a 0-based position."""

    msg: MsgId
    pos: int

    def label(self) -> str:
        return f"W{'_'.join(str(i) for i in self.msg)}[{self.pos}]"


def message_ids(num_users: int) -> list[MsgId]:
    singles = [(i,) for i in range(1, num_users + 1)]
    pairs = [tuple(p) for p in itertools.combinations(range(1, num_users + 1), 2)]
    return singles + pairs


def msg_id(key) -> MsgId:
    """Canonical id ``(i,)`` or ``(i, j)`` with i < j.

    Takes an int, a sequence of ints, or text ``"i"`` / ``"i,j"`` (spaces
    allowed, either order).
    """
    if isinstance(key, str):
        parts, convert = key.split(","), int
    else:
        parts, convert = key if isinstance(key, (tuple, list)) else [key], operator.index
    try:
        ids = tuple(sorted(map(convert, parts)))
    except (TypeError, ValueError):
        ids = ()
    if len(ids) == 1 or (len(ids) == 2 and ids[0] != ids[1]):
        return ids
    raise ValueError(f"bad message id {key!r}")


def per_message(num_users: int, items, convert, what: str) -> dict:
    """``convert``-ed values over ``message_ids(num_users)`` from (key, value) pairs.

    Missing messages get ``convert(0)``.  An unknown message, a message
    given twice (in either order) and a negative value are rejected.
    """
    table = dict.fromkeys(message_ids(num_users))
    for key, value in items:
        msg = msg_id(key)
        if msg not in table:
            raise ValueError(f"{what} given for unknown message {msg}")
        if table[msg] is not None:
            raise ValueError(f"{what} for message {msg} given twice")
        table[msg] = convert(value)
        if table[msg] < 0:
            raise ValueError(f"negative {what} for message {msg}")
    return {msg: convert(0) if v is None else v for msg, v in table.items()}


def decode_sums(num_users: int, values: dict) -> list:
    """Per user, the total of ``values`` over the messages it lacks."""
    return [sum(v for msg, v in values.items() if a not in msg) for a in range(1, num_users + 1)]


def block_ids(num_users: int) -> list[MsgId]:
    """Table block order: messages not involving user 1."""
    return [msg for msg in message_ids(num_users) if 1 not in msg]


def _symbol_count(value) -> int:
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"symbol length {value!r} is not an integer")
    return int(value)


@dataclass
class SymbolLengths:
    """Integer symbol length for every message id."""

    num_users: int
    k: dict[MsgId, int]

    def __post_init__(self):
        if self.num_users < 2:
            raise ValueError("need at least two users")
        self.k = per_message(self.num_users, self.k.items(), _symbol_count, "length")

    def k_sums(self) -> list[int]:
        return decode_sums(self.num_users, self.k)

    def row_symbols(self, a: int) -> list[MessageRef]:
        """The symbols user 1 knows and user ``a`` lacks, in table order."""
        return [
            MessageRef(msg, p)
            for msg in message_ids(self.num_users)
            if 1 in msg and a not in msg
            for p in range(self.k[msg])
        ]


def reindex_users(lengths: SymbolLengths) -> tuple[list[int], SymbolLengths]:
    """Relabel users so the new user 1 has a maximal symbol total.

    Returns ``(order, reindexed)`` where ``order[new - 1]`` is the
    original id of the user now called ``new``.  Ties go to the smallest
    original index, and all other users keep their relative order.
    """
    sums = lengths.k_sums()
    top = max(range(lengths.num_users), key=lambda i: (sums[i], -i)) + 1
    order = [top] + [u for u in range(1, lengths.num_users + 1) if u != top]
    inverse = {old: new for new, old in enumerate(order, start=1)}
    new_k = {tuple(inverse[i] for i in key): val for key, val in lengths.k.items()}
    return order, SymbolLengths(lengths.num_users, new_k)


@dataclass
class Block:
    msg: MsgId
    width: int
    star_rows: tuple[int, ...]
    #: Cell contents per starred row: a list of ``width`` refs or None padding.
    cells: dict[int, list[MessageRef | None]]


@dataclass
class MessageTable:
    num_users: int
    lengths: SymbolLengths
    blocks: list[Block]

    @property
    def total_cols(self) -> int:
        return sum(b.width for b in self.blocks)

    def block_offsets(self) -> dict[MsgId, int]:
        out = {}
        at = 0
        for b in self.blocks:
            out[b.msg] = at
            at += b.width
        return out

    def row_content(self, a: int) -> list[MessageRef | None]:
        """Row ``a``'s cells concatenated in block order (a >= 2)."""
        out = []
        for b in self.blocks:
            if a in b.star_rows:
                out.extend(b.cells[a])
        return out

    def to_json(self) -> dict:
        return {
            "num_users": self.num_users,
            "lengths": {"_".join(map(str, k)): v for k, v in self.lengths.k.items()},
            "blocks": [
                {
                    "msg": list(b.msg),
                    "width": b.width,
                    "star_rows": list(b.star_rows),
                    "cells": {
                        str(row): [None if r is None else [list(r.msg), r.pos] for r in cell]
                        for row, cell in b.cells.items()
                    },
                }
                for b in self.blocks
            ],
        }


def build_table(lengths: SymbolLengths) -> MessageTable:
    """Construct the schedule table for reindexed lengths.

    Expects ``lengths`` with user 1's symbol total maximal (see
    ``reindex_users``); otherwise some row cannot fit and a
    ``ScheduleError`` names the violating user.
    """
    num_users = lengths.num_users
    blocks = []
    for msg in block_ids(num_users):
        blocks.append(Block(msg, lengths.k[msg], msg, {}))

    for a in range(2, num_users + 1):
        content: list[MessageRef | None] = lengths.row_symbols(a)
        width = sum(b.width for b in blocks if a in b.star_rows)
        if len(content) > width:
            raise ScheduleError(
                f"row {a} needs {len(content)} symbol slots but has {width}; "
                f"user 1's symbol total must be maximal"
            )
        content.extend([None] * (width - len(content)))
        at = 0
        for b in blocks:
            if a in b.star_rows:
                b.cells[a] = content[at : at + b.width]
                at += b.width
    return MessageTable(num_users, lengths, blocks)


@dataclass
class PropReport:
    ok: bool
    failures: list[str]
    #: Distinct symbols in rows 2..L unknown to each user a >= 2.
    unknown_counts: dict[int, int]


def verify_props(table: MessageTable) -> PropReport:
    """Machine-check the structural properties the decoder relies on.

    1. every starred-cell symbol names a message user 1 knows;
    2. more strongly, it is user 1's private message or a pair message
       W_{1,j}; items 1 and 2 are one check (P1), one line per bad symbol;
    3. row 1 plus row a together cover every message user a must decode;
    4. the number of distinct starred symbols unknown to user a is
       exactly k_1 plus the lengths of user 1's pairs with others.
    """
    failures = []
    num_users = table.num_users
    allowed = {(1,)} | {(1, j) for j in range(2, num_users + 1)}

    for b in table.blocks:
        for row, cell in b.cells.items():
            for i, ref in enumerate(cell):
                if ref is None:
                    continue
                if ref.msg not in allowed:
                    failures.append(
                        f"P1: block {b.msg} row {row} col {i} holds {ref.label()},"
                        f" outside user 1's private and pair messages"
                    )

    for a in range(1, num_users + 1):
        # Zero-length messages carry nothing, so there is nothing to cover.
        needed = {
            msg
            for msg in message_ids(num_users)
            if a not in msg and table.lengths.k[msg] > 0
        }
        row1 = set(block_ids(num_users))
        row_a = set()
        if a >= 2:
            row_a = {ref.msg for ref in table.row_content(a) if ref is not None}
        covered = row1 | row_a
        missing = needed - covered
        if missing:
            failures.append(f"P3: user {a} cannot obtain {sorted(missing)}")

    unknown_counts = {}
    for a in range(2, num_users + 1):
        distinct = set()
        for b in table.blocks:
            for cell in b.cells.values():
                distinct.update(r for r in cell if r is not None and a not in r.msg)
        expected = table.lengths.k[(1,)] + sum(
            table.lengths.k[(1, j)] for j in range(2, num_users + 1) if j != a
        )
        unknown_counts[a] = len(distinct)
        if len(distinct) != expected:
            failures.append(
                f"C1: user {a} has {len(distinct)} unknown starred symbols, expected {expected}"
            )

    return PropReport(not failures, failures, unknown_counts)


def format_table(table: MessageTable) -> str:
    """Human-readable dump, one section per block."""
    lines = [
        f"users: {table.num_users}   columns: {table.total_cols}   blocks: {len(table.blocks)}"
    ]
    for b in table.blocks:
        name = ",".join(map(str, b.msg))
        lines.append(f"block ({name})  width {b.width}")
        lines.append(f"  row 1: W{'_'.join(map(str, b.msg))}")
        for row in sorted(b.cells):
            cell = " ".join("-" if r is None else r.label() for r in b.cells[row])
            lines.append(f"  row {row}: {cell if cell else '(empty)'}")
    return "\n".join(lines)
