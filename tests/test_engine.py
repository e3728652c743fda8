"""Board construction, press semantics, chasing, and the grid file format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    ends at 2 2 2, and a last row of 5s is dark.  (The per-button route
    reduces only the cells a press touches, and would report 7 7 7 and 5 5 5
    unsolved.)
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
        ("1 0 5\n\n", "grid must be non-empty"),   # zero columns: an empty row
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


def test_board_is_dark():
    assert Board(3, [[0, 0, 0]]).is_dark()
    assert not Board(3, [[0, 1, 0]]).is_dark()
