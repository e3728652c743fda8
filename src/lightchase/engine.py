"""Cylindrical Lights Out board and the one-pass light-chasing strategy.

The board is a rows x cols grid of lights, each in a state 0..k-1 (0 = off),
with the left and right edges glued together: column 0 and column cols-1 are
horizontal neighbors.  Pressing a button adds 1 (mod k) to its own light and
to the lights above, below, left, and right.

Light chasing clears the board row by row: each light still on in row i is
turned off by pressing the button directly below it the right number of
times.  One-pass chasing runs a single top-to-bottom sweep and either ends
with the last row dark (solved) or not.

`one_pass` computes the sweep a whole row of presses at a time (a row
transfer), along one of two routes.  A board at least _PACKED_MIN_COLS wide
with 4k <= 2^63 takes the packed route, which holds each row as one int of
w-bit fields, the narrowest w with 4k <= 2^(w-1) that its overflow guards
allow, and runs a transfer as a few big-int operations.  It packs every
row through one little-endian struct of w-bit fields, and unpacks through
the same struct, or for k <= 256, where each entry is its field's low
byte, by slicing those bytes out.  Every other board takes the list route,
one list of ints per row, and so does any board with a float entry or an
entry outside 0..k-1, which only a directly built `Board` can hold.
The list route finds the first row's presses in one comprehension, and
then each row in one plain loop over the columns, which carries the presses
left of and at each column forward, reads the one right of it, and writes
both the row's state and the next row's presses, -state mod k, so no row
pays for a comprehension of its presses.  Both routes do work linear in the
cells and give the same transcript.  `press` and `chase_row` apply buttons
one by one and are the oracle both routes are tested against.

`parse_grid` and `format_grid` read and write the grid file format through
a table between the values below min(k, cols) and their decimal spellings,
so the table is never larger than one row and their work is linear in the
text whatever k is.  Every line and row holds at least three entries, so
each is looked up in one operator.itemgetter call.  From the first line
holding any other spelling or value on, they use int() or str(), so at
most one line of lookups is wasted.  A line whose text equals the line
above it is converted once: parse_grid appends a copy of the row it read
from the line above, and format_grid, while rows still go through the
table, appends the line it wrote for the row above when the two rows are
equal.  Equal text gives an equal row and raises no error the
first occurrence did not, and equal numbers share a hash, so the table
spells them alike; this is what makes a uniform board's file cheap.
`new_from_grid` and `parse_grid` are the constructors that reduce entries
mod k.

All operations treat boards as values: they return a new board or
transcript and leave their argument untouched.

A board in memory is judged once, by _check_grid, which every operation on
a board calls: one_pass and format_grid directly, press and chase_row
through new_from_grid.  parse_grid is the one reader of a grid file's
header: it judges the file's shape from the header, with _check_grid's k
and cols checks and texts, before it reads any line, and then by each
line's entry count; so a board that format_grid writes reads back through
parse_grid in shape.  Every bound on an argument (rows, cols, times) goes
through fib._at_least, and the checks on k and q come from fib too, as for
every module.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .fib import _at_least, _check_k, _check_k_q, _quote

__all__ = [
    "Board",
    "BoardSpec",
    "ChaseTranscript",
    "GeometryError",
    "chase_row",
    "format_grid",
    "new_from_grid",
    "new_uniform",
    "one_pass",
    "parse_grid",
    "press",
]


class GeometryError(ValueError):
    """Board parameters describe a game this engine does not model."""


class _BoardSpecFields(NamedTuple):
    rows: int
    cols: int
    k: int
    q: int


class BoardSpec(_BoardSpecFields):
    """Parameters of a uniform-start game, a named tuple (rows, cols, k, q).

    Every light begins at state (k - q) mod k, so q = 0 means the board
    starts dark.  Boards with fewer than three columns are rejected: on a
    cylinder that narrow the two horizontal neighbors of a button coincide,
    which is a different game.  Every instance is checked, also one made by
    _replace or _make.
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, k: int, q: int) -> BoardSpec:
        _at_least("rows", rows, 1, GeometryError)
        _at_least("cols", cols, 3, GeometryError)
        _check_k_q(k, q, GeometryError)
        return tuple.__new__(cls, (rows, cols, k, q))

    # namedtuple's own _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))


class _Record:
    """Field-wise repr and same-class equality for a mutable record; unhashable."""

    __slots__ = ()
    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, f) for f in self.__slots__] == [
            getattr(other, f) for f in self.__slots__]


class Board(_Record):
    """A grid of light states over Z_k with wrap-around columns."""

    __slots__ = ("k", "grid")

    def __init__(self, k: int, grid: list[list[int]]) -> None:
        self.k = k
        self.grid = grid

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])

    def is_dark(self) -> bool:
        """True when every light is off."""
        return not any(any(row) for row in self.grid)


class ChaseTranscript(_Record):
    """Record of a one-pass chasing run.

    presses[i] holds the per-column press multiplicities applied to row i+1
    while clearing row i (row 0 is never pressed); row_states[i] is the
    state of row i+1 right after that step.  final_row is the last row once
    the sweep is done, and solved says whether it came out all zero.
    """

    __slots__ = ("presses", "row_states", "final_row", "solved")

    def __init__(self, presses: list[list[int]], row_states: list[list[int]],
                 final_row: list[int], solved: bool) -> None:
        self.presses = presses
        self.row_states = row_states
        self.final_row = final_row
        self.solved = solved


def new_uniform(spec: BoardSpec) -> Board:
    """Build the uniform-start board: every light at state (k - q) mod k."""
    rows, cols, k, q = spec
    start = (k - q) % k
    return Board(k, [[start] * cols for _ in range(rows)])


def _check_grid(k: int, grid: list[list[int]]) -> int:
    """Every operation's board check; returns cols.

    In this order: an int k >= 2 (GeometryError), at least one row and a
    first row of at least one column ("grid must be non-empty"), every row
    as long as the first ("grid has ragged rows"), both ValueError, and
    cols >= 3 (GeometryError).  new_from_grid, one_pass and format_grid
    judge their board by it.  The per-entry int check is new_from_grid's
    alone, so this does no per-cell work.
    """
    _check_k(k, GeometryError)
    if not grid or not grid[0]:
        raise ValueError("grid must be non-empty")
    cols = len(grid[0])
    # A plain loop: on the few-row boards of verify's many small sweeps,
    # any() over a generator costs several times as much.
    for row in grid:
        if len(row) != cols:
            raise ValueError("grid has ragged rows")
    _at_least("cols", cols, 3, GeometryError)
    return cols


def new_from_grid(k: int, grid: list[list[int]]) -> Board:
    """Build a board from explicit start states, entries reduced mod k.

    The grid must be rectangular with at least one row and at least three
    columns; entries may be any integers (bool included) and are taken mod
    k, and any other entry is refused with ValueError.
    """
    _check_grid(k, grid)
    for row in grid:
        for v in row:
            if not isinstance(v, int):
                raise ValueError(f"grid entries must be integers, got {_quote(v)}")
    return Board(k, [[v % k for v in row] for row in grid])


def _press_in_place(board: Board, row: int, col: int, times: int) -> None:
    # Callers guarantee row/col are in range and times is already mod k.
    # The five cells a button touches: itself, above, below, left and right,
    # the last two wrapping round the cylinder; rows off the board are skipped.
    g, k, cols = board.grid, board.k, board.cols
    for r, c in ((row, col), (row - 1, col), (row + 1, col),
                 (row, (col - 1) % cols), (row, (col + 1) % cols)):
        if 0 <= r < len(g):
            g[r][c] = (g[r][c] + times) % k


def press(board: Board, row: int, col: int, times: int = 1) -> Board:
    """Press the button at (row, col) `times` times.

    Adds `times` (mod k) to the pressed light, to the lights directly above
    and below when those rows exist, and to the two horizontal neighbors,
    which always exist and wrap around the cylinder.  The result is built
    by new_from_grid, so every entry comes back reduced mod k and a ragged
    grid is rejected.
    """
    if not 0 <= row < board.rows:
        raise IndexError(f"row {_quote(row)} out of range 0..{board.rows - 1}")
    if not 0 <= col < board.cols:
        raise IndexError(f"col {_quote(col)} out of range 0..{board.cols - 1}")
    _at_least("times", times, 0)
    out = new_from_grid(board.k, board.grid)
    _press_in_place(out, row, col, times % board.k)
    return out


def chase_row(board: Board, i: int) -> tuple[Board, list[int]]:
    """Clear row i by pressing the buttons in the row below.

    Button (i+1, j) is pressed (k - state(i, j)) mod k times.  Returns the
    resulting board (row i all zero) and the per-column press multiplicities.
    Like press, it works on a copy reduced mod k and rejects a ragged grid.
    """
    if not 0 <= i <= board.rows - 2:
        raise IndexError(f"cannot chase row {_quote(i)}: no row below it")
    out = new_from_grid(board.k, board.grid)
    # Presses in row i+1 touch row i only in their own column, so the
    # multiplicities can be read off row i up front.
    k = board.k
    presses = [(k - v) % k for v in board.grid[i]]
    for j, t in enumerate(presses):
        if t:
            _press_in_place(out, i + 1, j, t)
    return out, presses


# Boards at least this wide take the packed route: below it, the packed
# route's set-up and packing cost more than the list route's per-cell work.
# Timed against the list route's one loop per row, which also writes the
# next row's presses, on random boards at k = 7, 97 and 300, 20 to 40
# columns and 5, 30 and 60 rows, best of 5 (CPython 3.11, a shared
# two-vCPU x86-64 VM, three runs), list/packed time at 5 rows has a median
# of 0.85 at 20 to 24 columns, 0.97 at 25 to 31 and 1.03 at 32, and is
# below 1 in 1 of 54 cells from 35 columns up.  At 30 and 60 rows the
# packed route leads from about 20 to 27 columns (median 1.18-1.20 at 25
# to 31, and at least 1.13 in every cell from 32 up).
_PACKED_MIN_COLS = 32


def _one_pass_packed(k: int, grid: list[list[int]], cols: int) -> ChaseTranscript | None:
    """one_pass with each row held as one int of `cols` w-bit fields, or None.

    w is the smallest of 8, 16, 32 and 64 with 4k <= 2^(w-1).  Five entries
    below k sum below 5k < 2^w, so no field carries out.  Before the guards
    c = 4k, 2k, k a field is below 5k, 4k and 2k, less than c + 2^(w-1)
    each time, so adding 2^(w-1) - c >= 0 carries out of no field either,
    and ((x + high - c) & high) >> (w-1) holds 1 in each field of x that
    is >= c, which makes one guarded subtraction per field (SIMD within a
    register; Warren, Hacker's Delight, ch. 2).

    Every row is packed through one precompiled little-endian struct of
    `cols` w-bit unsigned fields, the first entry in the lowest field.  A
    row is unpacked by slicing the low byte of each field out of its bytes
    for k <= 256, the cheaper read, and by the same struct above that.

    Every row is packed before the sweep starts.  An entry outside 0..k-1,
    which only a directly built `Board` can hold, returns None: struct
    refuses a float, a negative or an int too wide for its field, and the
    range test finds any other field >= k.
    """
    size = next(s for s in (1, 2, 4, 8) if 4 * k <= 1 << (8 * s - 1))
    w = 8 * size
    low, top = (1 << w) - 1, w * (cols - 1)
    ones = ((1 << w * cols) - 1) // low  # 1 in every field
    high, full, ks = ones << (w - 1), ones * low, k * ones
    below_k = high - ks
    guards = [(high - c * ones, c) for c in (4 * k, 2 * k, k)]
    # Imported here: struct loads the _struct extension, and loading it
    # would add to the start-up of every CLI call.
    import struct

    # B, H, I and Q are the 1-, 2-, 4- and 8-byte unsigned codes; with "<"
    # the first entry fills the lowest bytes.
    fmt = struct.Struct(f"<{cols}{'BHIQ'[size.bit_length() - 1]}")
    # For k <= 256 the low byte of each field is all of it, and slicing those
    # bytes out reads an entry in about 6 ns, where struct's unpack takes 9
    # (200 columns at k = 31, CPython 3.11, a shared two-vCPU x86-64 VM).
    view = itemgetter(slice(None, None, size)) if k <= 256 else fmt.unpack

    def unpack(x: int) -> list[int]:
        return list(view(x.to_bytes(size * cols, "little")))

    try:
        packed = [int.from_bytes(fmt.pack(*row), "little") for row in grid]
    except struct.error:
        return None
    # A field >= 2^(w-1) is >= k; below that, adding 2^(w-1) - k carries out
    # of no field and sets its top bit exactly when the field is >= k.
    if any((x | (x + below_k)) & high for x in packed):
        return None

    state, above, presses, row_states = packed[0], 0, [], []
    for g in packed[1:]:
        p = ks - state  # fields in 1..k; the next line turns each k into 0
        p -= (((p + below_k) & high) >> (w - 1)) * k
        x = g + above + p + ((p << w) & full | p >> top) + (p >> w | (p & low) << top)
        for h, c in guards:
            x -= (((x + h) & high) >> (w - 1)) * c
        presses.append(unpack(p))
        row_states.append(unpack(x))
        state, above = x, p
    return ChaseTranscript(presses, row_states, unpack(state), solved=not state)


def one_pass(board: Board) -> ChaseTranscript:
    """Run the full one-pass chasing sweep from the top row down.

    Each step is a row transfer: step t presses row t+1 by p = -state(t)
    mod k, which clears row t, and row t+1 gains p[j-1] + p[j] + p[j+1]
    (columns wrap) plus the previous step's presses from above.  Every
    reported row is reduced mod k, also for a `Board` built directly with
    entries outside 0..k-1.  The board is judged by _check_grid before any
    row is chased, with format_grid's classes and texts: a k that is not an
    int >= 2 or fewer than three columns raises GeometryError, and no rows,
    a first row of no columns or ragged rows ValueError.  A single-row board
    gets no presses; it is solved exactly when it is already dark.

    Two routes compute the same transcript.  A board at least
    _PACKED_MIN_COLS wide with 4k <= 2^63 and every entry an int in 0..k-1
    takes the packed route, which holds each row as one int and runs a
    transfer as a few big-int operations.  Narrower boards, larger k and
    any board with a float entry or an entry outside 0..k-1, which only a
    directly built `Board` can hold, take the list route, one list of ints
    per row, which reduces every entry mod k.  It finds the presses of row
    1 from the start row before the sweep; each row's loop over the columns
    then carries the presses left of and at column j forward from column
    j-1, reads the one right of it, p[j+1], or p[0] in the last column,
    sums each cell as row + above + left + centre + right, in that order,
    and writes both the reduced sum v and the next row's press -v mod k.
    Either way the work is linear in the cells, and repeated `chase_row` is
    the oracle for both.
    """
    k = board.k
    cols = _check_grid(k, board.grid)
    if cols >= _PACKED_MIN_COLS and 4 * k <= 1 << 63:
        transcript = _one_pass_packed(k, board.grid, cols)
        if transcript is not None:
            return transcript
    state, above, presses, row_states = [v % k for v in board.grid[0]], [0] * cols, [], []
    p, last = [-v % k for v in state], cols - 1
    for row in board.grid[1:]:
        state, after, left, centre = [], [], p[last], p[0]
        for j in range(last):
            right = p[j + 1]
            v = (row[j] + above[j] + left + centre + right) % k
            state.append(v)
            after.append(-v % k)
            left, centre = centre, right
        v = (row[last] + above[last] + left + centre + p[0]) % k
        state.append(v)
        after.append(-v % k)
        presses.append(p)
        row_states.append(state)
        above, p = p, after
    return ChaseTranscript(presses, row_states, list(state), solved=not any(state))


def parse_grid(text: str) -> Board:
    """Parse the grid file format into a board.

    Line 1 is "rows cols k"; the next `rows` lines each carry `cols`
    space-separated non-negative integers (reduced mod k on load).  Nothing
    but whitespace may follow.  The header is judged whole before any grid
    line is read, in this order: a first line exists, it holds three
    fields, they are integers, the declared rows are >= 1, k >= 2 and
    cols >= 3.  A refusal quotes at most the first 80 characters of the
    line or of the number it refuses; a bad k or cols raises GeometryError
    with new_from_grid's text.  Each line's entry count is judged as it is
    read, so the grid needs no shape check of its own and one `Board` is
    returned.

    Lines are read through a table from the canonical decimal spelling of
    v to v, for v below min(k, cols): never more entries than one row, and
    never more than the text has characters when the header declares more
    columns than the lines hold.  Each line, of at least three entries, is
    looked up in one itemgetter call.  From the first line holding any
    other spelling (007, +3, a value >= min(k, cols)) on, lines are read
    by int() and a sign check, and each row is reduced mod k as it is read.

    A line whose text equals the line above it is not split or looked up
    again: it gets a fresh copy of the row read from that line.  Equal text
    gives an equal row, and any error the line could raise was raised at
    its first occurrence.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty grid file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'rows cols k', got {lines[0][:80]!r}")
    try:
        rows, cols, k = (int(x) for x in header)
    except ValueError:
        raise ValueError(f"header must be three integers, got {lines[0][:80]!r}") from None
    _at_least("declared rows", rows, 1)
    _check_k(k, GeometryError)
    _at_least("cols", cols, 3, GeometryError)
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} grid lines, found {len(lines) - 1}")
    values = range(min(k, cols, len(text)))
    spelled = dict(zip(map(str, values), values))
    grid, previous = [], None
    for lineno in range(1, 1 + rows):
        if lines[lineno] == previous:
            grid.append(grid[-1].copy())
            continue
        previous = lines[lineno]
        fields = previous.split()
        if len(fields) != cols:
            raise ValueError(
                f"line {lineno + 1}: expected {cols} entries, found {len(fields)}"
            )
        if spelled is not None:
            try:
                grid.append(list(itemgetter(*fields)(spelled)))
                continue
            except KeyError:
                spelled = None
        try:
            row = list(map(int, fields))
        except ValueError:
            raise ValueError(f"line {lineno + 1}: entries must be integers") from None
        if min(row) < 0:
            raise ValueError(f"line {lineno + 1}: entries must be non-negative")
        grid.append([v % k for v in row])
    for lineno in range(1 + rows, len(lines)):
        if lines[lineno].strip():
            raise ValueError(f"line {lineno + 1}: trailing content after grid")
    return Board(k, grid)


def format_grid(board: Board) -> str:
    """Serialize a board in the grid file format (inverse of parse_grid).

    The board's shape is judged by _check_grid, as one_pass's is, with
    new_from_grid's checks and texts: an int k >= 2, at least one row, rows
    of one width and at least three columns.  So a board built directly
    that parse_grid could not read back in shape is refused, and not
    written.

    Rows are spelled through a table from v to str(v), for v below
    min(k, cols), so the table is never larger than one row.  Each row, of
    at least three entries, is looked up in one itemgetter call.  From the
    first row holding anything else on (a value >= min(k, cols), or an
    entry outside 0..k-1 in a board built directly), rows are spelled by
    str.  Until then a row equal to the one above it gets the line already
    written for that row: equal numbers share a hash, so the table spells
    them alike (True beside 1 writes 1 both times).  From the first miss
    on, every row goes through str, repeated or not, since str spells True
    beside 1 apart.
    """
    _check_grid(board.k, board.grid)
    values = range(min(board.k, board.cols))
    spelling = dict(zip(values, map(str, values)))
    lines, previous = [f"{board.rows} {board.cols} {board.k}"], None
    for row in board.grid:
        if spelling is not None:
            if row == previous:
                lines.append(lines[-1])
                continue
            previous = row
            try:
                lines.append(" ".join(itemgetter(*row)(spelling)))
                continue
            except KeyError:
                spelling = None
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"
