"""Semantics of the package's eight record classes.

Six are immutable value records (FibPairState, AlphaResult,
SolvabilityReport, ChaseSequence, BoardSpec, ChaseParams); Board and
ChaseTranscript are mutable.  These tests pin what callers see: the exact
repr text, equality, hashing, assignment, defaults, keyword and positional
construction, and that BoardSpec and ChaseParams validate every instance,
including one made by replacing a field.
"""

import copy

import pytest

import lightchase as lc

SPEC = lc.BoardSpec(rows=5, cols=5, k=4, q=1)


def _samples():
    """One instance of each of the eight classes, built the way the library builds them."""
    board = lc.new_uniform(lc.BoardSpec(2, 3, 4, 1))
    return {
        "BoardSpec": lc.BoardSpec(rows=5, cols=5, k=4, q=1),
        "Board": board,
        "ChaseTranscript": lc.one_pass(lc.new_uniform(lc.BoardSpec(3, 3, 4, 1))),
        "FibPairState": lc.FibPairState.start(7).advance(),
        "AlphaResult": lc.alpha_factored(12),
        "SolvabilityReport": lc.characterize(6, 3),
        "ChaseParams": lc.ChaseParams(2, 7),
        "ChaseSequence": lc.chase_sequence(lc.ChaseParams(1, 5), 4),
    }


IMMUTABLE = ["BoardSpec", "FibPairState", "AlphaResult", "SolvabilityReport", "ChaseParams",
             "ChaseSequence"]
MUTABLE = ["Board", "ChaseTranscript"]


REPRS = {
    "BoardSpec": "BoardSpec(rows=5, cols=5, k=4, q=1)",
    "Board": "Board(k=4, grid=[[3, 3, 3], [3, 3, 3]])",
    "ChaseTranscript": "ChaseTranscript(presses=[[1, 1, 1], [2, 2, 2]], "
                       "row_states=[[2, 2, 2], [2, 2, 2]], final_row=[2, 2, 2], solved=False)",
    "FibPairState": "FibPairState(k=7, i=1, pair=(1, 1))",
    "AlphaResult": "AlphaResult(k=12, alpha=12, method='factored', trace=("
                   "PrimePowerAlpha(prime=2, exponent=2, alpha=6, rule='alpha(4) = 6'), "
                   "PrimePowerAlpha(prime=3, exponent=1, alpha=4, "
                   "rule='least d | p - (5|p) with F(d) = 0')))",
    "SolvabilityReport": "SolvabilityReport(k=6, q=3, alpha=12, period=24, residues=(0, 2, 3, 5, "
                         "6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23), complete=False, "
                         "modulus=3, classes=(0, 2))",
    "ChaseParams": "ChaseParams(q=2, k=7)",
    "ChaseSequence": "ChaseSequence(params=ChaseParams(q=1, k=5), values=(0, 4, 2, 4, 0))",
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_text(name):
    assert repr(_samples()[name]) == REPRS[name]


def test_repr_of_defaults():
    assert repr(lc.alpha_direct(5)) == "AlphaResult(k=5, alpha=5, method='direct-scan', trace=())"
    assert repr(lc.ChaseParams(1)) == "ChaseParams(q=1, k=None)"
    assert repr(lc.SolvabilityReport(6, 3, 12, 24, (0,), True)) == (
        "SolvabilityReport(k=6, q=3, alpha=12, period=24, residues=(0,), complete=True, "
        "modulus=None, classes=())")


@pytest.mark.parametrize("name", IMMUTABLE + MUTABLE)
def test_equality_between_instances(name):
    a, b = _samples()[name], _samples()[name]
    assert a == b and not a != b
    assert a is not b
    assert a != _samples()["FibPairState" if name != "FibPairState" else "ChaseParams"]


def test_equality_sees_every_field():
    assert lc.BoardSpec(5, 5, 4, 1) != lc.BoardSpec(5, 5, 4, 2)
    assert lc.ChaseParams(1) != lc.ChaseParams(1, 5)
    assert lc.Board(4, [[1, 2, 3]]) != lc.Board(5, [[1, 2, 3]])
    assert lc.Board(4, [[1, 2, 3]]) != lc.Board(4, [[1, 2, 0]])
    t = lc.ChaseTranscript([[1]], [[2]], [2], False)
    assert t != lc.ChaseTranscript([[1]], [[2]], [2], True)
    assert lc.alpha_direct(12) != lc.alpha_factored(12)  # method and trace differ


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_records_hash(name):
    a, b = _samples()[name], _samples()[name]
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_records_are_unhashable(name):
    with pytest.raises(TypeError):
        hash(_samples()[name])


@pytest.mark.parametrize("name", IMMUTABLE)
def test_immutable_records_refuse_assignment(name):
    record = _samples()[name]
    field = REPRS[name].split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    assert repr(record) == before


def test_mutable_records_take_assignment():
    board = lc.Board(4, [[1, 2, 3]])
    board.k = 5
    board.grid = [[0, 0, 0]]
    assert board == lc.Board(5, [[0, 0, 0]])
    t = lc.one_pass(lc.new_uniform(lc.BoardSpec(3, 3, 4, 1)))
    t.solved = True
    t.final_row = [0, 0, 0]
    assert repr(t).endswith("final_row=[0, 0, 0], solved=True)")


def test_mutable_records_construct_by_keyword_and_copy_deeply():
    board = lc.Board(k=4, grid=[[1, 2, 3]])
    assert board == lc.Board(4, [[1, 2, 3]])
    assert (board.rows, board.cols) == (1, 3)
    t = lc.ChaseTranscript(presses=[[1]], row_states=[[2]], final_row=[2], solved=False)
    assert t == lc.ChaseTranscript([[1]], [[2]], [2], False)
    for record in (board, t):
        clone = copy.deepcopy(record)
        assert clone == record and clone is not record
    clone = copy.deepcopy(t)
    clone.final_row[0] = 9
    assert t.final_row == [2]


def test_defaults():
    assert lc.alpha_direct(5).trace == ()
    assert lc.AlphaResult(5, 5, "direct-scan").trace == ()
    report = lc.SolvabilityReport(6, 3, 12, 24, (0,), True)
    assert (report.modulus, report.classes) == (None, ())
    assert lc.ChaseParams(3).k is None
    assert lc.ChaseParams(q=3) == lc.ChaseParams(3, None)


def test_keyword_construction():
    assert lc.BoardSpec(rows=5, cols=5, k=4, q=1) == lc.BoardSpec(5, 5, 4, 1)
    assert (SPEC.rows, SPEC.cols, SPEC.k, SPEC.q) == (5, 5, 4, 1)
    assert lc.ChaseParams(q=2, k=7) == lc.ChaseParams(2, 7)
    assert lc.FibPairState(k=7, i=1, pair=(1, 1)) == lc.FibPairState.start(7).advance()
    assert lc.AlphaResult(k=5, alpha=5, method="direct-scan") == lc.alpha_direct(5)
    seq = lc.ChaseSequence(params=lc.ChaseParams(1, 5), values=(0, 4, 2, 4, 0))
    assert seq == lc.chase_sequence(lc.ChaseParams(1, 5), 4)


def test_six_positional_field_solvability_report():
    rep = lc.characterize(6, 3)
    short = lc.SolvabilityReport(6, 3, rep.alpha, rep.period, rep.residues, rep.complete)
    assert (short.k, short.q, short.alpha, short.period) == (6, 3, 12, 24)
    assert short.residues == rep.residues and short.complete is rep.complete
    assert short != rep  # modulus and classes stay at their defaults


def test_validation_on_construction():
    with pytest.raises(lc.GeometryError) as info:
        lc.BoardSpec(rows=5, cols=2, k=4, q=1)
    assert str(info.value) == "cols must be >= 3, got 2"
    with pytest.raises(ValueError) as info:
        lc.ChaseParams(5, 5)
    assert str(info.value) == "q must be in 0..k-1, got q=5 with k=5"


@pytest.mark.parametrize("record, changes, error, message", [
    (SPEC, {"cols": 2}, lc.GeometryError, "cols must be >= 3, got 2"),
    (SPEC, {"rows": 0}, lc.GeometryError, "rows must be >= 1, got 0"),
    (SPEC, {"k": 1, "q": 0}, lc.GeometryError, "k must be >= 2, got 1"),
    (SPEC, {"q": 4}, lc.GeometryError, "q must be in 0..k-1, got q=4 with k=4"),
    (lc.ChaseParams(1, 5), {"q": 5}, ValueError, "q must be in 0..k-1, got q=5 with k=5"),
    (lc.ChaseParams(1, 5), {"q": -1}, ValueError, "q must be >= 0, got -1"),
    (lc.ChaseParams(1), {"k": 1}, ValueError, "k must be >= 2, got 1"),
])
def test_replacing_a_field_validates(record, changes, error, message):
    with pytest.raises(error) as info:
        record._replace(**changes)
    assert type(info.value) is error and str(info.value) == message
    with pytest.raises(error) as info:
        type(record)._make({**record._asdict(), **changes}.values())
    assert type(info.value) is error and str(info.value) == message


def test_replacing_a_valid_field():
    assert SPEC._replace(cols=7) == lc.BoardSpec(5, 7, 4, 1)
    assert lc.ChaseParams(1)._replace(k=5) == lc.ChaseParams(1, 5)
    assert lc.BoardSpec._make([5, 7, 4, 1]) == lc.BoardSpec(5, 7, 4, 1)


def test_immutable_records_are_tuples():
    assert SPEC == (5, 5, 4, 1)
    rows, cols, k, q = SPEC
    assert (rows, cols, k, q) == (5, 5, 4, 1)
    assert lc.ChaseParams(2, 7) == (2, 7)
