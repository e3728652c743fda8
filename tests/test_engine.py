"""Board construction, press semantics, chasing, and the grid file format."""

import random
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lightchase import engine
from lightchase.engine import (
    Board,
    BoardSpec,
    GeometryError,
    chase_row,
    format_grid,
    new_from_grid,
    new_uniform,
    one_pass,
    parse_grid,
    press,
)


@pytest.mark.parametrize(
    "rows, cols, k, q, start",
    [
        (5, 5, 4, 1, 3),   # the five-row walkthrough board: brightest state
        (2, 3, 2, 0, 0),   # q = 0 starts dark
        (3, 4, 7, 5, 2),   # (7 - 5) mod 7
    ],
)
def test_new_uniform_start_state(rows, cols, k, q, start):
    board = new_uniform(BoardSpec(rows, cols, k, q))
    assert board.rows == rows and board.cols == cols
    assert all(v == start for row in board.grid for v in row)


@pytest.mark.parametrize(
    "rows, cols, k, q",
    [
        (5, 2, 4, 1),   # fewer than 3 columns: horizontal neighbors collide
        (5, 1, 4, 1),
        (0, 5, 4, 1),
        (5, 5, 1, 0),   # single light state is no game
        (5, 5, 4, 4),   # q out of range
        (5, 5, 4, -1),
    ],
)
def test_board_spec_rejects_bad_parameters(rows, cols, k, q):
    with pytest.raises(GeometryError):
        BoardSpec(rows, cols, k, q)


def test_new_from_grid_reduces_mod_k():
    assert new_from_grid(3, [[0, 0, 0], [0, 0, 0]]).grid == [[0, 0, 0], [0, 0, 0]]
    assert new_from_grid(3, [[4, 4, 4], [4, 4, 4]]).grid == [[1, 1, 1], [1, 1, 1]]
    assert new_from_grid(2, [[1, 0, 1]]).grid == [[1, 0, 1]]


def test_new_from_grid_accepts_bool_entries_as_ints():
    grid = new_from_grid(3, [[True, False, 4], [0, 0, 0]]).grid
    assert grid == [[1, 0, 1], [0, 0, 0]]
    assert {type(v) for row in grid for v in row} == {int}


def test_new_from_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        new_from_grid(3, [[1, 2, 3], [1, 2]])
    with pytest.raises(GeometryError):
        new_from_grid(3, [[1, 2], [1, 2]])
    with pytest.raises(GeometryError):
        new_from_grid(1, [[0, 0, 0]])
    with pytest.raises(ValueError):
        new_from_grid(3, [])


def test_press_k_times_is_identity():
    board = new_from_grid(4, [[0, 1, 2, 3], [3, 2, 1, 0], [1, 1, 1, 1]])
    assert press(board, 1, 2, 4).grid == board.grid


def test_press_interior_cell():
    board = new_from_grid(3, [[0] * 3 for _ in range(3)])
    out = press(board, 1, 1, 1)
    assert out.grid == [[0, 1, 0], [1, 1, 1], [0, 1, 0]]
    # the original is untouched
    assert board.grid == [[0] * 3 for _ in range(3)]


def test_press_wraps_columns():
    board = new_from_grid(2, [[0, 0, 0], [0, 0, 0]])
    out = press(board, 0, 0, 1)
    assert out.grid == [[1, 1, 1], [1, 0, 0]]


def test_press_rejects_out_of_range():
    board = new_from_grid(2, [[0, 0, 0], [0, 0, 0]])
    with pytest.raises(IndexError):
        press(board, 2, 0, 1)
    with pytest.raises(IndexError):
        press(board, 0, 3, 1)
    with pytest.raises(ValueError):
        press(board, 0, 0, -1)


@settings(max_examples=60)
@given(data=st.data())
def test_press_order_does_not_matter(data):
    """Each cell ends at start + sum of incident press counts mod k."""
    k = data.draw(st.integers(2, 9))
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(3, 5))
    grid = data.draw(
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    actions = data.draw(
        st.lists(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), st.integers(0, 2 * k)),
            max_size=12,
        )
    )
    shuffled = data.draw(st.permutations(actions))
    a = new_from_grid(k, grid)
    b = new_from_grid(k, grid)
    for r, c, t in actions:
        a = press(a, r, c, t)
    for r, c, t in shuffled:
        b = press(b, r, c, t)
    assert a.grid == b.grid


def test_chase_row_uniform_first_step():
    board = new_uniform(BoardSpec(3, 5, 4, 1))
    out, presses = chase_row(board, 0)
    assert presses == [1] * 5
    assert out.grid[0] == [0] * 5


def test_chase_row_already_clear_is_noop():
    board = new_from_grid(5, [[0, 0, 0], [2, 3, 4]])
    out, presses = chase_row(board, 0)
    assert presses == [0, 0, 0]
    assert out.grid == board.grid


def test_chase_row_second_step_presses_twice():
    board = new_uniform(BoardSpec(5, 5, 4, 1))
    board, _ = chase_row(board, 0)
    out, presses = chase_row(board, 1)
    assert presses == [2] * 5
    assert out.grid[1] == [0] * 5


def test_chase_row_rejects_last_row():
    board = new_uniform(BoardSpec(2, 3, 2, 1))
    with pytest.raises(IndexError):
        chase_row(board, 1)
    with pytest.raises(IndexError):
        chase_row(board, -1)


def test_one_pass_five_row_walkthrough():
    """Five rows, four states, brightest start: presses 1,2,2,1 and solved."""
    transcript = one_pass(new_uniform(BoardSpec(5, 5, 4, 1)))
    assert transcript.presses == [[1] * 5, [2] * 5, [2] * 5, [1] * 5]
    assert transcript.row_states == [[2] * 5, [2] * 5, [3] * 5, [0] * 5]
    assert transcript.final_row == [0] * 5
    assert transcript.solved


def test_one_pass_six_and_seven_rows():
    # S(6) = 104 = 0 (mod 4): six rows still chases out; S(7) = -273 = 3
    # (mod 4) makes seven rows the first taller unsolvable board.
    assert one_pass(new_uniform(BoardSpec(6, 5, 4, 1))).solved
    seven = one_pass(new_uniform(BoardSpec(7, 5, 4, 1)))
    assert not seven.solved
    assert seven.final_row == [3] * 5


def test_one_pass_dark_board_is_trivially_solved():
    transcript = one_pass(new_uniform(BoardSpec(4, 6, 3, 0)))
    assert transcript.presses == [[0] * 6] * 3
    assert transcript.solved


def test_one_pass_single_row():
    assert one_pass(new_uniform(BoardSpec(1, 3, 2, 0))).presses == []
    assert one_pass(new_uniform(BoardSpec(1, 3, 2, 0))).solved
    assert not one_pass(new_uniform(BoardSpec(1, 3, 2, 1))).solved


def test_one_pass_matches_repeated_chase_row():
    """The row transfer against its oracle, the per-button route."""
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randrange(2, 101)
        rows, cols = rng.randrange(1, 13), rng.randrange(3, 9)
        grid = [[rng.randrange(k) for _ in range(cols)] for _ in range(rows)]
        board = new_from_grid(k, grid)
        transcript = one_pass(board)
        work = board
        presses, row_states = [], []
        for i in range(rows - 1):
            work, vec = chase_row(work, i)
            presses.append(vec)
            row_states.append(work.grid[i + 1])
        assert transcript.presses == presses
        assert transcript.row_states == row_states
        assert transcript.final_row == work.grid[-1]
        assert transcript.solved == (not any(work.grid[-1]))


def test_one_pass_leaves_board_unchanged():
    rng = random.Random(3)
    for rows in (1, 2, 7):
        board = new_from_grid(9, [[rng.randrange(9) for _ in range(5)] for _ in range(rows)])
        row_objects = list(board.grid)
        before = [list(row) for row in board.grid]
        one_pass(board)
        assert board.grid == before
        assert all(a is b for a, b in zip(board.grid, row_objects))


def test_transcript_lists_are_not_the_board():
    for rows in (1, 4):
        board = new_from_grid(5, [[1, 2, 3, 4] for _ in range(rows)])
        before = [list(row) for row in board.grid]
        transcript = one_pass(board)
        if transcript.row_states:
            assert transcript.final_row is not transcript.row_states[-1]
        for vec in transcript.presses + transcript.row_states + [transcript.final_row]:
            vec[0] = 99
        assert board.grid == before


def test_one_pass_reduces_unreduced_board_rows():
    """A Board built directly may hold entries outside 0..k-1.

    The row transfer reports every row mod k, so such a board chases exactly
    as its reduction does: [[0, 0, 0], [7, 7, 7]] mod 5 needs no presses and
    ends at 2 2 2, and a last row of 5s is dark.
    """
    t = one_pass(Board(5, [[0, 0, 0], [7, 7, 7]]))
    assert t.presses == [[0, 0, 0]]
    assert t.row_states == [[2, 2, 2]]
    assert t.final_row == [2, 2, 2]
    assert not t.solved
    assert one_pass(Board(5, [[0, 0, 0], [5, 5, 5]])).solved
    single = one_pass(Board(3, [[3, -3, 4]]))
    assert single.final_row == [0, 0, 1]
    assert one_pass(Board(4, [[1, 2, 3], [6, -1, 9]])) == one_pass(
        new_from_grid(4, [[1, 2, 3], [6, -1, 9]]))


def test_press_and_chase_row_agree_with_one_pass_on_unreduced_boards():
    """The per-button oracle reduces its working copy mod k, so it reports
    the same rows as one_pass for a Board built with entries outside 0..k-1."""
    board = Board(5, [[0, 0, 0], [7, 7, 7]])
    out, presses = chase_row(board, 0)
    assert presses == [0, 0, 0]
    assert out.grid == [[0, 0, 0], [2, 2, 2]]
    assert out.grid[-1] == one_pass(board).final_row
    assert press(board, 1, 1, 0).grid == [[0, 0, 0], [2, 2, 2]]
    assert press(Board(4, [[1, -2, 3], [6, -1, 9]]), 0, 0).grid == [[2, 3, 0], [3, 3, 1]]
    rng = random.Random(11)
    for _ in range(50):
        k = rng.randrange(2, 9)
        rows, cols = rng.randrange(2, 6), rng.randrange(3, 6)
        board = Board(k, [[rng.randrange(-20, 20) for _ in range(cols)] for _ in range(rows)])
        chased = board
        for i in range(rows - 1):
            chased, _ = chase_row(chased, i)
        assert chased.grid[-1] == one_pass(board).final_row


# Thresholds that send every board, whatever its width, to one route of
# one_pass (the packed route still only for 4k <= 2^63).
LIST_ROUTE, PACKED_ROUTE = sys.maxsize, 3


def _on_route(threshold, board):
    with mock.patch.object(engine, "_PACKED_MIN_COLS", threshold):
        return one_pass(board)


def _routes(board):
    """one_pass on the list route and on the packed route."""
    return _on_route(LIST_ROUTE, board), _on_route(PACKED_ROUTE, board)


# The largest k of each packed field width w (4k <= 2^(w-1) for w = 8, 16,
# 32, 64) and the next k above each, k past 2^61, which only the list route
# takes, and the largest k unpacked by slicing out low bytes (256) and the
# next.  The edges of the older rule 5k < 2^(w-1) stay, now inside a width.
EDGE_K = [32, 33, 8192, 8193, 2**29, 2**29 + 1, 2**61, 2**61 + 1, 256, 257,
          25, 26, 6553, 6554, 429496729, 429496730,
          (2**63 - 1) // 5, (2**63 - 1) // 5 + 1, 10**30]
# Entries a directly built Board may hold: at and past the edges of each
# field width, negative, and k itself.
ODD_ENTRIES = [-1, 2**7, 2**8 - 1, 2**8, 2**15, 2**16 - 1, 2**16, 2**31, 2**32 - 1,
               2**32, 2**63, 2**64 - 1, 2**64, -(2**64)]


@st.composite
def direct_boards(draw, max_cols=70):
    """Boards built directly, on both sides of the packed-route threshold,
    with up to four entries outside 0..k-1."""
    k = draw(st.one_of(st.sampled_from(EDGE_K), st.integers(2, 30)))
    rows = draw(st.integers(1, 8))
    cols = draw(st.one_of(st.integers(3, 12),
                          st.integers(engine._PACKED_MIN_COLS - 3, max_cols)))
    grid = draw(st.lists(st.lists(st.integers(0, k - 1), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    odd = st.one_of(st.integers(-3 * k, 3 * k), st.just(k), st.sampled_from(ODD_ENTRIES))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1), odd)
    for i, j, v in draw(st.lists(cells, max_size=4)):
        grid[i][j] = v
    return Board(k, grid)


def _refusal_examples(test):
    """Entries just past each field width's reach, on both sides of where
    struct refuses and the range test catches.  At k = 32 (8-bit fields)
    struct refuses 2^8.  At k = 33 the fields are 16 bits wide: struct packs
    256 and 2^15, and the range test must find both.  At k = 257 (16 bits)
    struct refuses 2^16, and at k = 8193 (32 bits) 2^32.  At k = 2^29 + 1
    (64 bits) struct packs 2^63, which the range test finds, and refuses
    2^64."""
    for k, entry in ((32, 2**8), (33, 2**8), (33, 2**15), (257, 2**16), (8193, 2**32),
                     (2**29 + 1, 2**63), (2**29 + 1, 2**64)):
        test = example(Board(k, [[0] * 39 + [entry], [1] * 40]))(test)
    return test


def _chased(board):
    """presses, row_states and final_row by repeated chase_row."""
    work, presses, row_states = new_from_grid(board.k, board.grid), [], []
    for i in range(board.rows - 1):
        work, vec = chase_row(work, i)
        presses.append(vec)
        row_states.append(work.grid[i + 1])
    return presses, row_states, work.grid[-1]


@settings(max_examples=200, deadline=None)
@given(direct_boards())
# 255 >= 2^7 + k carries out of its 8-bit field when the packed route tests
# whether every entry is already in 0..k-1.
@example(Board(25, [[0] * 39 + [255], [0] * 40]))
# At k = 256, the last k unpacked by slicing out low bytes, its 16-bit
# fields pack 256, which the range test refuses, struct refuses -1, and 255
# is in range; at k = 257 a press of 256 needs two bytes.
@example(Board(256, [[0] * 39 + [256], [0] * 40]))
@example(Board(256, [[0] * 39 + [255], [0] * 40]))
@example(Board(256, [[0] * 39 + [-1], [0] * 40]))
@example(Board(257, [[1] + [0] * 39, [0] * 40]))
@example(Board(7, [[True] + [0] * 39, [False] * 40]))
# Every sum on a dark board is 0, from which the 4k guard borrows when the
# field is one width too narrow for it, as at the first k of each width.
@example(Board(33, [[0] * 40 for _ in range(3)]))
@example(Board(8193, [[0] * 40 for _ in range(3)]))
@example(Board(2**29 + 1, [[0] * 40 for _ in range(3)]))
@_refusal_examples
def test_both_one_pass_routes_match_repeated_chase_row(board):
    before = [list(row) for row in board.grid]
    row_objects = list(board.grid)
    presses, row_states, final_row = _chased(board)
    for transcript in (one_pass(board), *_routes(board)):
        assert transcript.presses == presses
        assert transcript.row_states == row_states
        assert transcript.final_row == final_row
        assert transcript.solved == (not any(final_row))
        vecs = transcript.presses + transcript.row_states + [transcript.final_row]
        assert all(type(vec) is list and all(type(v) is int for v in vec) for vec in vecs)
        assert len({id(vec) for vec in vecs + board.grid}) == len(vecs) + board.rows
        assert board.grid == before
        assert all(a is b for a, b in zip(board.grid, row_objects))


@settings(max_examples=200, deadline=None)
@given(direct_boards().filter(lambda board: 4 * board.k <= 2**63))
@example(Board(256, [[0] * 39 + [255], [0] * 40]))
@example(Board(7, [[True] + [0] * 39, [False] * 40]))
@_refusal_examples
def test_packed_route_falls_back_only_for_entries_outside_0_to_k(board):
    """Whatever the field width and packing, the packed route gives up on a
    board exactly when it holds an entry that is not an int in 0..k-1."""
    in_range = all(isinstance(v, int) and 0 <= v < board.k for row in board.grid for v in row)
    packed = engine._one_pass_packed(board.k, board.grid, board.cols)
    assert (packed is not None) == in_range


@settings(max_examples=50, deadline=None)
@given(direct_boards(), st.sampled_from(["second", "middle", "last"]), st.booleans())
def test_both_one_pass_routes_refuse_a_ragged_row(board, where, longer):
    if board.rows < 2:
        board.grid.append(list(board.grid[0]))
    i = {"second": 1, "middle": board.rows // 2, "last": board.rows - 1}[where]
    board.grid[i] = board.grid[i] + [0] if longer else board.grid[i][:-1]
    for threshold in (LIST_ROUTE, PACKED_ROUTE):
        with pytest.raises(ValueError, match="^grid has ragged rows$"):
            _on_route(threshold, board)


@pytest.mark.parametrize("cols", [5, 20, 40, 64, 70, 200])
def test_float_board_gives_the_list_route_output(cols):
    """A directly built Board with float entries, which struct refuses, or
    with a float k, which the packed route's bit operations cannot take,
    gives the list route's float transcript at every width."""
    for k, entry in ((7, float), (7.0, int), (7.0, float)):
        board = Board(k, [[entry((3 * i + j) % 9) for j in range(cols)] for i in range(4)])
        listed, packed = _routes(board)
        assert repr(one_pass(board)) == repr(packed) == repr(listed)
        assert isinstance(listed.final_row[0], float)


def _stencil(k, grid):
    """presses, row_states and final_row, each cell's wrapped neighbours
    found by taking its column index mod cols."""
    cols = len(grid[0])
    state, above, presses, row_states = [v % k for v in grid[0]], [0] * cols, [], []
    for row in grid[1:]:
        p = [-v % k for v in state]
        state = [(row[j] + above[j] + p[(j - 1) % cols] + p[j] + p[(j + 1) % cols]) % k
                 for j in range(cols)]
        presses.append(p)
        row_states.append(state)
        above = p
    return presses, row_states, state


@pytest.mark.parametrize("cols", range(1, 32))
def test_one_pass_wraps_boards_narrower_than_three_columns(cols):
    """Only a directly built Board can be narrower than three columns.  There
    a button's two horizontal neighbours are one light (2 columns) or the
    button itself (1); one_pass refuses a board of no columns
    (test_validation).  The list route's loop, which carries the left and
    centre presses and wraps only in the last column, is held against
    _stencil at every width below the packed route's threshold too, forced
    onto the list route."""
    rnd = random.Random(cols)
    for k in (2, 3, 7, 10**30):
        for rows in (1, 2, 5, 9):
            grid = [[rnd.randrange(-k, 2 * k) for _ in range(cols)] for _ in range(rows)]
            presses, row_states, final_row = _stencil(k, grid)
            transcript = _on_route(LIST_ROUTE, Board(k, grid))
            assert transcript.presses == presses
            assert transcript.row_states == row_states
            assert transcript.final_row == final_row
            assert transcript.solved == (not any(final_row))


@pytest.mark.parametrize("cols", range(3, 9))
def test_list_route_presses_each_row_by_the_row_it_clears(cols):
    """The list route writes a row's state and the next row's presses in one
    loop over the columns.  Row t+1 is pressed -v mod k times in each
    column, v read off the reduced row t it clears: the start row for
    t = 0, row_states[t-1] after that.  Held on uniform and random boards
    of the narrow widths verify sweeps, 1 to 40 rows, with unreduced
    entries and a float k, forced onto the list route."""
    rnd = random.Random(cols)
    for k in (2, 3, 7, 40, 10**30, 7.0):
        entry, top = type(k), int(k)
        for rows in range(1, 41):
            start = entry(rnd.randrange(top))
            uniform = [[start] * cols for _ in range(rows)]
            scattered = [[entry(rnd.randrange(-top, 2 * top)) for _ in range(cols)]
                         for _ in range(rows)]
            for grid in (uniform, scattered):
                transcript = _on_route(LIST_ROUTE, Board(k, grid))
                cleared = ([[v % k for v in grid[0]]] + transcript.row_states)[:rows - 1]
                assert transcript.presses == [[-v % k for v in row] for row in cleared]
                assert transcript.final_row == _stencil(k, grid)[2]


# Chasing polynomials, an independent route for any start board.  Chasing
# is linear over Z_k.  Let C = 1 + x + x^(-1) in Z_k[x]/(x^cols - 1), the
# circulant of a press on its own row.  Then the final row of a board with
# rows g_0..g_(R-1) is the sum over i of P_(R-1-i)(C) * g_i, where P_0 = 1,
# P_1 = -C and P_(m+1) = -C * P_m - P_(m-1): Chebyshev polynomials of the
# second kind in -C/2 (Sutner 1989; Hunziker, Machiavelo and Park 2004).
# On a constant row C acts as 3, which gives the recursion S.

def _ring_mul(f, g, k):
    """Product in Z_k[x]/(x^n - 1) of two coefficient lists of length n."""
    n = len(f)
    out = [0] * n
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[(i + j) % n] += a * b
    return [v % k for v in out]


def _minus_c(n, k):
    """-C = -(1 + x + x^(-1)) in Z_k[x]/(x^n - 1), n >= 3."""
    return [k - 1, k - 1] + [0] * (n - 3) + [k - 1]


def _polynomial_final_rows(k, grid):
    """The final row of every prefix of two or more rows, by the identity."""
    n = len(grid[0])
    minus_c = _minus_c(n, k)
    p = [[1] + [0] * (n - 1), minus_c]
    while len(p) < len(grid):
        p.append([(a - b) % k for a, b in zip(_ring_mul(minus_c, p[-1], k), p[-2])])
    finals = []
    for r in range(2, len(grid) + 1):
        total = [0] * n
        for i, g in enumerate(grid[:r]):
            total = [a + b for a, b in zip(total, _ring_mul(p[r - 1 - i], g, k))]
        finals.append([v % k for v in total])
    return finals


@settings(max_examples=100, deadline=None)
@given(direct_boards(max_cols=40))
def test_both_one_pass_routes_match_chasing_polynomials(board):
    """row_states[t] is the final row of the board's first t + 2 rows."""
    finals = _polynomial_final_rows(board.k, board.grid)
    for transcript in _routes(board):
        assert transcript.row_states == finals
        assert transcript.final_row == (finals or [[v % board.k for v in board.grid[0]]])[-1]


def _mat_mul(a, b, k):
    """Product of two 3x3 matrices over Z_k[x]/(x^n - 1)."""
    return [[[sum(c) % k for c in zip(*(_ring_mul(a[i][t], b[t][j], k) for t in range(3)))]
             for j in range(3)] for i in range(3)]


def _uniform_rows_final_row(k, rows, v):
    """The final row of a board whose every row is v, in O(n^2 log rows).

    That row is W_rows(C) * v, where W_0 = 0, W_1 = 1 and
    W_(R+1) = 1 - C * W_R - W_(R-1), so (W_R, W_(R-1), 1) is the matrix
    [[-C, -1, 1], [1, 0, 0], [0, 0, 1]] to the power R - 1, applied to
    (1, 0, 1), and the power comes by repeated squaring.
    """
    n = len(v)
    zero, one, minus_one = [0] * n, [1] + [0] * (n - 1), [k - 1] + [0] * (n - 1)
    step = [[_minus_c(n, k), minus_one, one], [one, zero, zero], [zero, zero, one]]
    power = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    e = rows - 1
    while e:
        if e & 1:
            power = _mat_mul(power, step, k)
        step, e = _mat_mul(step, step, k), e >> 1
    w = [(a + b) % k for a, b in zip(power[0][0], power[0][2])]
    return _ring_mul(w, v, k)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.integers(2, 30), st.sampled_from(EDGE_K)), st.integers(1, 3000),
       st.integers(3, 7), st.randoms())
def test_both_one_pass_routes_match_matrix_doubling_on_tall_boards(k, rows, cols, rnd):
    v = [rnd.randrange(k) for _ in range(cols)]
    expected = _uniform_rows_final_row(k, rows, v)
    for transcript in _routes(Board(k, [list(v) for _ in range(rows)])):
        assert transcript.final_row == expected


def _final_rows(grid, k):
    return [t.final_row for t in _routes(Board(k, grid))]


@settings(max_examples=60, deadline=None)
@given(direct_boards(), st.data())
def test_final_row_is_linear(board, data):
    k, rows, cols = board.k, board.rows, board.cols
    other = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=cols, max_size=cols),
                               min_size=rows, max_size=rows))
    a, b = data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1))
    mixed = [[(a * u + b * v) % k for u, v in zip(r, s)] for r, s in zip(board.grid, other)]
    for f, g, h in zip(_final_rows(mixed, k), _final_rows(board.grid, k), _final_rows(other, k)):
        assert f == [(a * u + b * v) % k for u, v in zip(g, h)]


@settings(max_examples=60, deadline=None)
@given(direct_boards(), st.integers(0, 69))
def test_final_row_commutes_with_rotation_and_reflection(board, shift):
    k, r = board.k, shift % board.cols
    rotated = [row[r:] + row[:r] for row in board.grid]
    reflected = [row[::-1] for row in board.grid]
    for f, g, h in zip(_final_rows(board.grid, k), _final_rows(rotated, k),
                       _final_rows(reflected, k)):
        assert g == f[r:] + f[:r]
        assert h == f[::-1]


@pytest.mark.parametrize("grid", [
    [[0, 0, 0], [1, 1]],
    [[0, 0, 0], [1, 1, 1, 1]],
    [[0, 0, 0, 0], [1, 1, 1], [0, 0, 0, 0]],
])
def test_ragged_board_is_rejected(grid):
    """A ragged Board built directly is refused, not truncated to its first row."""
    board = Board(3, grid)
    with pytest.raises(ValueError, match="ragged"):
        one_pass(board)
    with pytest.raises(ValueError, match="ragged"):
        chase_row(board, 0)
    with pytest.raises(ValueError, match="ragged"):
        press(board, 0, 0)


def test_uniform_rows_stay_uniform():
    """Chasing a uniform start shifts every light in a row by the same amount."""
    board = new_uniform(BoardSpec(6, 7, 5, 2))
    for i in range(board.rows - 1):
        board, _ = chase_row(board, i)
        for row in board.grid:
            assert len(set(row)) == 1


@pytest.mark.parametrize("rows, k, q", [(4, 2, 1), (5, 4, 1), (6, 6, 3), (9, 5, 1), (1, 3, 2)])
def test_solvedness_ignores_column_count(rows, k, q):
    outcomes = {one_pass(new_uniform(BoardSpec(rows, cols, k, q))).solved for cols in range(3, 9)}
    assert len(outcomes) == 1


def test_one_pass_clears_all_but_last_row():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randrange(2, 9)
        rows, cols = rng.randrange(2, 7), rng.randrange(3, 7)
        board = new_from_grid(k, [[rng.randrange(k) for _ in range(cols)] for _ in range(rows)])
        work = board
        for i in range(rows - 1):
            work, vec = chase_row(work, i)
            assert work.grid[i] == [0] * cols
            assert all(0 <= t < k for t in vec)
        transcript = one_pass(board)
        assert all(0 <= t < k for vec in transcript.presses for t in vec)


def test_nonuniform_start_breaks_row_uniformity():
    """The single-sequence model only describes uniform starts."""
    board = new_from_grid(2, [[1, 0, 1], [0, 0, 0], [0, 0, 0]])
    transcript = one_pass(board)
    assert len(set(transcript.final_row)) > 1


GRID_TEXT = "2 3 5\n6 1 2\n0 4 9\n"


def test_parse_grid_reduces_and_shapes():
    board = parse_grid(GRID_TEXT)
    assert board.k == 5
    assert board.grid == [[1, 1, 2], [0, 4, 4]]


def test_format_grid_round_trips():
    board = parse_grid(GRID_TEXT)
    assert parse_grid(format_grid(board)).grid == board.grid
    assert format_grid(board) == "2 3 5\n1 1 2\n0 4 4\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2 3\n1 1 1\n1 1 1\n",          # short header
        "2 3 5 9\n1 1 1\n1 1 1\n",      # long header
        "two 3 5\n1 1 1\n1 1 1\n",      # non-integer header
        "2 3 5\n1 1 1\n",               # missing grid line
        "2 3 5\n1 1\n1 1 1\n",          # short row
        "2 3 5\n1 1 1 1\n1 1 1\n",      # long row
        "2 3 5\n1 x 1\n1 1 1\n",        # non-integer entry
        "2 3 5\n1 -1 1\n1 1 1\n",       # negative entry
        "2 3 5\n1 1 1\n1 1 1\n7\n",     # trailing content
        "0 3 5\n",                      # zero rows
    ],
)
def test_parse_grid_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_grid(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 3 5\n1 x 1\n1 1 1\n", "line 2: entries must be integers"),
        ("2 3 5\n1 1 1\n1 -1 1\n", "line 3: entries must be non-negative"),
        ("2 3 5\n1 1\n1 1 1\n", "line 2: expected 3 entries, found 2"),
        ("1 0 5\n\n", "cols must be >= 3, got 0"),   # zero columns, judged from the header
    ],
)
def test_parse_grid_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_grid(text)
    assert str(info.value) == message


def test_parse_grid_rejects_bad_geometry():
    with pytest.raises(GeometryError):
        parse_grid("1 2 5\n1 1\n")
    with pytest.raises(GeometryError):
        parse_grid("1 3 1\n0 0 0\n")


def test_parse_grid_allows_trailing_blank_lines():
    board = parse_grid("1 3 2\n1 0 1\n\n  \n")
    assert board.grid == [[1, 0, 1]]


def test_parse_grid_quotes_at_most_80_characters_of_a_bad_header():
    cap = engine._HEADER_CAP
    too_long = f"header must be at most {cap} characters, got "
    for header, message in [("x" * cap, "header must be 'rows cols k', got "),
                            ("1 1 " + "x" * 60_000, "header must be three integers, got "),
                            ("x" * 300_000, too_long),
                            ("1 1 " + "7" * 200_000, too_long),
                            ("1 3 5".ljust(cap + 1), too_long)]:
        with pytest.raises(ValueError) as info:
            parse_grid(header + "\n0 0 0\n")
        assert str(info.value) == message + repr(header[:80])
    assert parse_grid("1 3 5".ljust(cap) + "\n0 0 0\n").grid == [[0, 0, 0]]


@pytest.mark.parametrize("digits", [79, 80])
def test_parse_grid_quotes_at_most_80_characters_of_the_declared_rows(digits):
    rows = "-" + "9" * digits
    with pytest.raises(ValueError) as info:
        parse_grid(f"{rows} 3 5\n")
    assert str(info.value) == "declared rows must be >= 1, got " + rows[:80]


def _parse_grid_oracle(text):
    """The entry-by-entry route: the header's k and cols judged before any
    line, int() and a sign check on every field, then new_from_grid, with
    the same messages in the same order."""
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
    if k < 2:
        raise GeometryError(f"k must be >= 2, got {k}")
    if cols < 3:
        raise GeometryError(f"cols must be >= 3, got {cols}")
    if len(lines) < 1 + rows:
        raise ValueError(f"expected {rows} grid lines, found {len(lines) - 1}")
    grid = []
    for lineno in range(1, 1 + rows):
        fields = lines[lineno].split()
        if len(fields) != cols:
            raise ValueError(f"line {lineno + 1}: expected {cols} entries, found {len(fields)}")
        row = []
        for field in fields:
            try:
                row.append(int(field))
            except ValueError:
                raise ValueError(f"line {lineno + 1}: entries must be integers") from None
        if any(v < 0 for v in row):
            raise ValueError(f"line {lineno + 1}: entries must be non-negative")
        grid.append(row)
    for lineno in range(1 + rows, len(lines)):
        if lines[lineno].strip():
            raise ValueError(f"line {lineno + 1}: trailing content after grid")
    return new_from_grid(k, grid)


# Spellings int() reads but that are not the canonical decimal of a value
# (leading zeros, a sign, an underscore, Arabic-Indic three), then fields that
# int() or the sign check refuses.
OTHER_SPELLINGS = ["007", "00", "+3", "1_0", "\u0663", "-0", "x", "-1", "1.0", "0x1"]


@st.composite
def grid_texts(draw):
    """Grid texts whose lines are mostly canonical, with some lines holding
    other spellings, entries >= k or a wrong field count, some repeating the
    line above them, some texts with a bad k or cols, trailing content or a
    missing line."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([3, 4, 5, 2, 1, 0]))
    k = draw(st.one_of(st.integers(2, 12), st.sampled_from([10**12, 2**64 + 13]),
                       st.integers(-1, 1)))
    canonical = st.integers(0, 40).map(str)   # values >= k too when k is small
    other = st.one_of(canonical, st.sampled_from(OTHER_SPELLINGS))
    lines = [f"{rows} {cols} {k}"]
    for row in range(rows):
        kind = draw(st.sampled_from(["canonical"] * 4 + ["other", "count", "repeat"]))
        if kind == "repeat" and row:
            lines.append(lines[-1])
            continue
        count = cols + (draw(st.sampled_from([1, -1])) if kind == "count" else 0)
        fields = draw(st.lists(other if kind == "other" else canonical,
                               min_size=max(count, 0), max_size=max(count, 0)))
        sep = draw(st.sampled_from([" ", "  ", "\t"]))
        lines.append(sep.join(fields) + draw(st.sampled_from(["", " "])))
    lines += draw(st.lists(st.sampled_from(["", "  ", "7"]), max_size=2))
    if draw(st.sampled_from([False] * 9 + [True])):
        lines.pop(draw(st.integers(1, len(lines) - 1)))   # a missing grid line
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(grid_texts())
def test_parse_grid_matches_entry_by_entry_route(text):
    assert _outcome(parse_grid, text) == _outcome(_parse_grid_oracle, text)


@pytest.mark.parametrize(
    "text",
    [
        "1 3 5\n007 +3 1_0\n",
        "1 3 5\n\u0663 4 9\n",
        "2 3 1000000000000\n0 1 2\n999999999999 5 70\n",
        "1 3 2\n0 1 2\n",                    # an entry equal to k
        "1 3 1\n0 0 0\n",                    # bad k with canonical entries
        "2 3 1\n0 x 0\n0 0 0\n",            # a bad k is reported before a bad line
        "2 3 -4\n0 0 0\n0 0 -1\n",
        "3 3 5\n0 1 2\n4 0 1\n0 1 2\n",     # k above cols: a miss on line 3
        "3 3 5\n0 1 2\n0 7 1\n0 1 2\n",     # an entry >= k after a table line
        "3 3 5\n0 1 2\n0 1 2\n0 1 2\n",     # a canonical line three times
        "3 3 5\n0 7 1\n0 7 1\n0 7 1\n",     # repeats after the table's first miss
        "2 3 5\n007 +3 1\n007 +3 1\n",
    ],
)
def test_parse_grid_matches_entry_by_entry_route_on_other_spellings(text):
    assert _outcome(parse_grid, text) == _outcome(_parse_grid_oracle, text)


def test_parse_grid_gives_repeated_lines_rows_of_their_own():
    board = parse_grid("3 3 5\n1 2 0\n1 2 0\n1 2 0\n")
    board.grid[1][0] = 4
    assert board.grid == [[1, 2, 0], [4, 2, 0], [1, 2, 0]]


def _format_oracle(board):
    new_from_grid(board.k, board.grid)   # the shape rule, with its refusals
    return "".join(
        line + "\n"
        for line in [f"{board.rows} {board.cols} {board.k}"]
        + [" ".join(str(v) for v in row) for row in board.grid]
    )


@pytest.mark.parametrize(
    "board",
    [
        Board(5, [[-1, 0, 7], [5, 4, -12], [0, 1, 2]]),   # built directly, unreduced
        Board(3, [[10**30, 2, 3]]),
        Board(10**12, [[0, 1, 2]]),
        Board(5, [[0, 1, 2], [4, 0, 1], [0, 1, 2]]),       # a miss on the second row
        Board(3, [[0, 1, 2], [2, 9, 0], [-1, 0, 1]]),
        # Empty, narrow or ragged boards, which parse_grid could not read
        # back in shape: both sides refuse them, with the texts pinned in
        # the refusal test below.
        Board(5, [[]]),
        Board(5, [[0]]),
        Board(5, [[3]]),
        Board(5, [[0, 1]]),
        Board(5, [[1, 0], [1], [], [0, 1]]),                # ragged: 2, 1, 0, 2 entries
        Board(5, [[0, 1, 2], [2], [], [1, 0]]),
        Board(50, [list(range(20)), [12]]),
        Board(50, [list(range(20)), [12], [3, 4]]),
    ],
)
def test_format_grid_matches_str_per_entry(board):
    assert _outcome(format_grid, board) == _outcome(_format_oracle, board)


@pytest.mark.parametrize(
    "board, error, message",
    [
        (Board(5, [[]]), ValueError, "grid must be non-empty"),
        (Board(5, [[0]]), GeometryError, "cols must be >= 3, got 1"),
        (Board(5, [[3]]), GeometryError, "cols must be >= 3, got 1"),
        (Board(5, [[0, 1]]), GeometryError, "cols must be >= 3, got 2"),
        (Board(5, [[1, 0], [1], [], [0, 1]]), ValueError, "grid has ragged rows"),
        (Board(5, [[0, 1, 2], [2], [], [1, 0]]), ValueError, "grid has ragged rows"),
        (Board(50, [list(range(20)), [12]]), ValueError, "grid has ragged rows"),
        (Board(50, [list(range(20)), [12], [3, 4]]), ValueError, "grid has ragged rows"),
    ],
)
def test_format_grid_refuses_a_board_parse_grid_cannot_read_in_shape(board, error, message):
    with pytest.raises(ValueError) as info:
        format_grid(board)
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.mark.parametrize(
    "board, text",
    [
        # The table's key 1 matches True, so a table row writes it as 1 ...
        (Board(5, [[True, 0, 2], [1, 1, 1]]), "2 3 5\n1 0 2\n1 1 1\n"),
        # ... and a row after the first miss goes through str.
        (Board(5, [[7, 0, 2], [True, 1, 1]]), "2 3 5\n7 0 2\nTrue 1 1\n"),
        # A row equal to the one above reuses its line, which the table
        # spelled alike either way ...
        (Board(5, [[1, 0, 2], [True, 0, 2]]), "2 3 5\n1 0 2\n1 0 2\n"),
        # ... and after the first miss every row goes through str.
        (Board(5, [[7, 0, 2], [True, 0, 2], [True, 0, 2]]),
         "3 3 5\n7 0 2\nTrue 0 2\nTrue 0 2\n"),
        (Board(5, [[7, 0, 2], [1, 0, 2], [True, 0, 2]]),
         "3 3 5\n7 0 2\n1 0 2\nTrue 0 2\n"),
    ],
)
def test_format_grid_spells_bool_entries_as_documented(board, text):
    assert format_grid(board) == text


def test_canonical_grids_take_the_table_route(monkeypatch):
    # Counting spies in place of the builtins engine calls by name: the
    # table route calls int() only on the header's three fields and str()
    # only to build its table, where the int() and str() route would call
    # them once per cell.  Six identical lines are looked up once, and
    # alternating lines keep every line on the table.
    calls = {"int": 0, "str": 0}

    def spy(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    texts = ["6 6 5\n" + "0 1 2 3 4 0\n" * 6, "6 6 5\n" + "0 1 2 3 4 0\n4 3 2 1 0 0\n" * 3]
    boards = [parse_grid(text) for text in texts]
    monkeypatch.setattr(engine, "int", spy("int", int), raising=False)
    monkeypatch.setattr(engine, "str", spy("str", str), raising=False)
    for text, board in zip(texts, boards):
        calls.update(int=0, str=0)
        assert parse_grid(text) == board
        assert calls["int"] == 3
        calls.update(int=0, str=0)
        assert format_grid(board) == text
        assert calls == {"int": 0, "str": 5}


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(2, 40), st.just(10**12)), st.integers(1, 5), st.integers(3, 6),
       st.randoms())
def test_format_grid_round_trips_random_boards(k, rows, cols, rnd):
    grid = []
    for _ in range(rows):
        # About half the rows repeat the row above them.
        if grid and rnd.random() < 0.5:
            grid.append(list(grid[-1]))
        else:
            grid.append([rnd.randrange(k) for _ in range(cols)])
    board = Board(k, grid)
    text = format_grid(board)
    assert text == _format_oracle(board)
    assert parse_grid(text) == board


def _grid_text_peaks(text_in):
    tracemalloc.start()
    try:
        board = parse_grid(text_in)
        parse_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        text = format_grid(board)
        format_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == text_in
    return parse_peak, format_peak


def test_grid_text_work_does_not_grow_with_k():
    # Any table of spellings must be bounded by the text, never by k.
    parse_peak, format_peak = _grid_text_peaks("1 3 1000000000000\n0 1 2\n")
    assert parse_peak < 2**20 and format_peak < 2**20


def test_grid_text_table_is_no_larger_than_one_row():
    # 20,000 rows of "0 1 2", or of "0 1 2" and "2 1 0" alternating so that
    # every line goes through the table: a table bounded by the cells or the
    # text, not by one row, would hold thousands of spellings for k = 10**12
    # and none past 0..2 for k = 3, where the two texts otherwise cost the same.
    rows = 20_000
    for body in ("0 1 2\n" * rows, "0 1 2\n2 1 0\n" * (rows // 2)):
        small = _grid_text_peaks(f"{rows} 3 3\n" + body)
        large = _grid_text_peaks(f"{rows} 3 1000000000000\n" + body)
        assert large[0] < 1.25 * small[0] and large[1] < 1.25 * small[1]


def test_board_is_dark():
    assert Board(3, [[0, 0, 0]]).is_dark()
    assert not Board(3, [[0, 1, 0]]).is_dark()
