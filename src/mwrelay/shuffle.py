"""Column shuffling that makes every user's starred symbols decodable.

Each table column carries at most two starred symbols (one per starred
row of its block).  A user ``a`` sees a column as [top over bottom] with
the top taken from row ``a``.  The relay forwards, per column, either
the single symbol or the field sum of the two distinct symbols, so user
``a`` can peel its row if no symbol is simultaneously the top of a
column with a foreign bottom and the bottom of another column.  The
shuffling pass below removes exactly that pattern by swapping row-``a``
entries between columns; every swap creates a column whose two entries
coincide, and such columns never change again, which bounds the number
of passes by the column count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import MessageRef, MessageTable, MsgId


class ShuffleError(RuntimeError):
    """Internal error: termination or solvability guarantees violated."""


@dataclass
class SimplifiedColumn:
    """One table column restricted to rows 2..L.

    ``cells`` maps each starred row of the owning block to the symbol it
    holds there (None for an empty slot).  Both row slots of a column
    may hold the same symbol; such a column is normalized in every view:
    only one copy counts, it is inert to swaps, and the relay forwards a
    single copy.  The physical slots are kept so that each row's
    occupied positions never change.
    """

    index: int
    block: MsgId
    rows: tuple[int, ...]
    cells: dict[int, MessageRef | None]

    def entries(self) -> list[MessageRef]:
        """Distinct non-empty symbols, in row order."""
        seen = []
        for r in self.rows:
            ref = self.cells[r]
            if ref is not None and ref not in seen:
                seen.append(ref)
        return seen

    def view(self, a: int) -> tuple[MessageRef | None, MessageRef | None]:
        """(top, bottom) with the top taken from row ``a``."""
        top = self.cells.get(a)
        others = [self.cells[r] for r in self.rows if r != a]
        bottom = others[0] if others else None
        return top, bottom


def simplify(table: MessageTable) -> list[SimplifiedColumn]:
    """One simplified column per table column, in block order."""
    cols = []
    index = 0
    for b in table.blocks:
        for c in range(b.width):
            cells = {row: b.cells[row][c] for row in b.star_rows}
            cols.append(
                SimplifiedColumn(index, b.msg, tuple(sorted(b.star_rows)), cells)
            )
            index += 1
    return cols


@dataclass
class SwapRecord:
    cycle: int
    user: int
    col_a: int
    col_b: int
    sym_a: MessageRef
    sym_b: MessageRef

    def line(self) -> str:
        return (
            f"{self.cycle},{self.user},{self.col_a},{self.col_b},"
            f"{self.sym_a.label()},{self.sym_b.label()}"
        )


def run_shuffle(cols: list[SimplifiedColumn]) -> tuple[list[SimplifiedColumn], list[SwapRecord]]:
    """Repeat per-user swap passes until a full cycle makes no swap.

    Returns fresh columns plus the swap log; the input is not mutated.
    Users are visited in ascending order; within a pass, the earliest
    column whose bottom symbol also tops another column is fixed first.
    """
    # Only the cells change; MessageRef and the rows tuple are immutable.
    cols = [SimplifiedColumn(c.index, c.block, c.rows, dict(c.cells)) for c in cols]
    users = sorted({r for col in cols for r in col.rows})
    total = len(cols)
    log: list[SwapRecord] = []
    cycle = 0
    while True:
        cycle += 1
        if cycle > total + 1:
            raise ShuffleError(
                f"shuffle failed to settle within {total + 1} cycles; this is a bug"
            )
        swapped_in_cycle = False
        for a in users:
            mine = [c for c in cols if c.cells.get(a) is not None]
            while True:
                swap = _find_swap(mine, a)
                if swap is None:
                    break
                x, y = swap
                alpha = x.cells[a]
                gamma = y.cells[a]
                x.cells[a], y.cells[a] = gamma, alpha
                log.append(SwapRecord(cycle, a, x.index, y.index, alpha, gamma))
                swapped_in_cycle = True
        if not swapped_in_cycle:
            break
    return cols, log


def _find_swap(mine: list[SimplifiedColumn], a: int):
    """First pair (x now [alpha/beta], y now [gamma/alpha]) needing a swap.

    Empty bottoms and columns whose two entries already coincide never
    participate.  Scans columns left to right for the bottom occurrence.
    """
    tops = {}
    for c in mine:
        top, bottom = c.view(a)
        if bottom is None or bottom != top:
            tops[top] = c
    for y in mine:
        top_y, bottom_y = y.view(a)
        if bottom_y is None or top_y == bottom_y:
            continue
        x = tops.get(bottom_y)
        if x is None or x is y:
            continue
        top_x, bottom_x = x.view(a)
        if bottom_x is None or bottom_x == top_x:
            continue
        return x, y
    return None


@dataclass
class DecodeSystem:
    """Linear system recovering user ``a``'s starred messages.

    ``matrix`` has one row per used column and one column per unknown
    symbol (coefficients 0/1 over the field); ``known_refs`` lists, per
    equation, the symbols the user holds a priori and must subtract from
    the column's forwarded value.
    """

    user: int
    matrix: np.ndarray
    unknown_order: list[MessageRef]
    known_refs: list[list[MessageRef]]
    col_indices: list[int]


def decode_matrix(cols: list[SimplifiedColumn], a: int, table: MessageTable) -> DecodeSystem:
    """Build user ``a``'s system from the columns of its own blocks.

    Uses the columns whose row-``a`` slot is occupied; after the table
    construction these are exactly the first ``A'`` columns of the
    blocks containing ``a``, where ``A'`` is the number of unknowns.
    """
    if a < 2 or a > table.num_users:
        raise ValueError(f"decode_matrix is for users 2..L, got {a}")
    unknowns = table.lengths.row_symbols(a)
    index_of = {ref: i for i, ref in enumerate(unknowns)}

    used = [c for c in cols if a in c.rows and c.cells.get(a) is not None]
    if len(used) != len(unknowns):
        raise ShuffleError(
            f"user {a}: {len(used)} occupied columns for {len(unknowns)} unknowns"
        )
    matrix = np.zeros((len(used), len(unknowns)), dtype=np.int64)
    known_refs: list[list[MessageRef]] = []
    for r, c in enumerate(used):
        known = []
        for ref in c.entries():
            if a in ref.msg:
                known.append(ref)
            else:
                matrix[r, index_of[ref]] = 1
        known_refs.append(known)
    return DecodeSystem(a, matrix, unknowns, known_refs, [c.index for c in used])
