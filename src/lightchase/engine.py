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
transfer); `press` and `chase_row` apply buttons one by one and are the
oracle it is tested against.

All operations treat boards as values: they return a new board or
transcript and leave their argument untouched.
"""

from __future__ import annotations

from dataclasses import dataclass


class GeometryError(ValueError):
    """Board parameters describe a game this engine does not model."""


@dataclass(frozen=True)
class BoardSpec:
    """Parameters of a uniform-start game.

    Every light begins at state (k - q) mod k, so q = 0 means the board
    starts dark.  Boards with fewer than three columns are rejected: on a
    cylinder that narrow the two horizontal neighbors of a button coincide,
    which is a different game.
    """

    rows: int
    cols: int
    k: int
    q: int

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise GeometryError(f"rows must be >= 1, got {self.rows}")
        if self.cols < 3:
            raise GeometryError(f"cols must be >= 3 on a cylinder, got {self.cols}")
        if self.k < 2:
            raise GeometryError(f"k must be >= 2, got {self.k}")
        if not 0 <= self.q < self.k:
            raise GeometryError(f"q must be in 0..k-1, got q={self.q} with k={self.k}")


@dataclass
class Board:
    """A grid of light states over Z_k with wrap-around columns."""

    k: int
    grid: list[list[int]]

    @property
    def rows(self) -> int:
        return len(self.grid)

    @property
    def cols(self) -> int:
        return len(self.grid[0])

    def copy(self) -> Board:
        return Board(self.k, [list(row) for row in self.grid])

    def is_dark(self) -> bool:
        """True when every light is off."""
        return not any(any(row) for row in self.grid)


@dataclass
class ChaseTranscript:
    """Record of a one-pass chasing run.

    presses[i] holds the per-column press multiplicities applied to row i+1
    while clearing row i (row 0 is never pressed); row_states[i] is the
    state of row i+1 right after that step.  final_row is the last row once
    the sweep is done, and solved says whether it came out all zero.
    """

    presses: list[list[int]]
    row_states: list[list[int]]
    final_row: list[int]
    solved: bool


def new_uniform(spec: BoardSpec) -> Board:
    """Build the uniform-start board: every light at state (k - q) mod k."""
    start = (spec.k - spec.q) % spec.k
    return Board(spec.k, [[start] * spec.cols for _ in range(spec.rows)])


def new_from_grid(k: int, grid: list[list[int]]) -> Board:
    """Build a board from explicit start states, entries reduced mod k.

    The grid must be rectangular with at least one row and at least three
    columns; entries may be any integers and are taken mod k.
    """
    if k < 2:
        raise GeometryError(f"k must be >= 2, got {k}")
    if not grid or not grid[0]:
        raise ValueError("grid must be non-empty")
    cols = len(grid[0])
    if any(len(row) != cols for row in grid):
        raise ValueError("grid has ragged rows")
    if cols < 3:
        raise GeometryError(f"cols must be >= 3 on a cylinder, got {cols}")
    return Board(k, [[v % k for v in row] for row in grid])


def _press_in_place(board: Board, row: int, col: int, times: int) -> None:
    # Callers guarantee row/col are in range and times is already mod k.
    g = board.grid
    k = board.k
    cols = board.cols
    g[row][col] = (g[row][col] + times) % k
    if row > 0:
        g[row - 1][col] = (g[row - 1][col] + times) % k
    if row < board.rows - 1:
        g[row + 1][col] = (g[row + 1][col] + times) % k
    left = (col - 1) % cols
    right = (col + 1) % cols
    g[row][left] = (g[row][left] + times) % k
    g[row][right] = (g[row][right] + times) % k


def press(board: Board, row: int, col: int, times: int = 1) -> Board:
    """Press the button at (row, col) `times` times.

    Adds `times` (mod k) to the pressed light, to the lights directly above
    and below when those rows exist, and to the two horizontal neighbors,
    which always exist and wrap around the cylinder.
    """
    if not 0 <= row < board.rows:
        raise IndexError(f"row {row} out of range 0..{board.rows - 1}")
    if not 0 <= col < board.cols:
        raise IndexError(f"col {col} out of range 0..{board.cols - 1}")
    if times < 0:
        raise ValueError(f"times must be non-negative, got {times}")
    out = board.copy()
    _press_in_place(out, row, col, times % board.k)
    return out


def chase_row(board: Board, i: int) -> tuple[Board, list[int]]:
    """Clear row i by pressing the buttons in the row below.

    Button (i+1, j) is pressed (k - state(i, j)) mod k times.  Returns the
    resulting board (row i all zero) and the per-column press multiplicities.
    """
    if not 0 <= i <= board.rows - 2:
        raise IndexError(f"cannot chase row {i}: no row below it")
    out = board.copy()
    # Presses in row i+1 touch row i only in their own column, so the
    # multiplicities can be read off row i up front.
    k = board.k
    presses = [(k - v) % k for v in board.grid[i]]
    for j, t in enumerate(presses):
        if t:
            _press_in_place(out, i + 1, j, t)
    return out, presses


def one_pass(board: Board) -> ChaseTranscript:
    """Run the full one-pass chasing sweep from the top row down.

    Each step is a row transfer: step t presses row t+1 by p = -state(t)
    mod k, which clears row t, and row t+1 gains p[j-1] + p[j] + p[j+1]
    (columns wrap) plus the previous step's presses from above.  Repeated
    `chase_row` is the oracle for this route.  Every reported row is
    reduced mod k, also for a `Board` built directly with entries outside
    0..k-1.  A single-row board gets no presses; it is solved exactly when
    it is already dark.
    """
    k = board.k
    state = [v % k for v in board.grid[0]]
    above = [0] * len(state)
    presses: list[list[int]] = []
    row_states: list[list[int]] = []
    for row in board.grid[1:]:
        p = [-v % k for v in state]
        state = [(g + a + left + c + right) % k for g, a, left, c, right
                 in zip(row, above, p[-1:] + p[:-1], p, p[1:] + p[:1])]
        presses.append(p)
        row_states.append(state)
        above = p
    return ChaseTranscript(presses, row_states, list(state), solved=not any(state))


def parse_grid(text: str) -> Board:
    """Parse the grid file format into a board.

    Line 1 is "rows cols k"; the next `rows` lines each carry `cols`
    space-separated non-negative integers (reduced mod k on load).  Nothing
    but whitespace may follow.
    """
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty grid file")
    header = lines[0].split()
    if len(header) != 3:
        raise ValueError(f"header must be 'rows cols k', got {lines[0]!r}")
    try:
        rows, cols, k = (int(x) for x in header)
    except ValueError:
        raise ValueError(f"header must be three integers, got {lines[0]!r}") from None
    if rows < 1:
        raise ValueError(f"declared rows must be >= 1, got {rows}")
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} grid lines, found {len(lines) - 1}")
    grid = []
    for lineno in range(1, 1 + rows):
        fields = lines[lineno].split()
        if len(fields) != cols:
            raise ValueError(
                f"line {lineno + 1}: expected {cols} entries, found {len(fields)}"
            )
        try:
            row = list(map(int, fields))
        except ValueError:
            raise ValueError(f"line {lineno + 1}: entries must be integers") from None
        if min(row, default=0) < 0:
            raise ValueError(f"line {lineno + 1}: entries must be non-negative")
        grid.append(row)
    for lineno in range(1 + rows, len(lines)):
        if lines[lineno].strip():
            raise ValueError(f"line {lineno + 1}: trailing content after grid")
    return new_from_grid(k, grid)


def format_grid(board: Board) -> str:
    """Serialize a board in the grid file format (inverse of parse_grid)."""
    lines = [f"{board.rows} {board.cols} {board.k}"]
    lines.extend(" ".join(str(v) for v in row) for row in board.grid)
    return "\n".join(lines) + "\n"
