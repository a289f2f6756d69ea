import random

import pytest

from subtag import linalg, rng as _rng
from subtag.codes import rs_code
from subtag.errors import DimensionMismatch, RankDeficient
from subtag.fields import BaseField, ExtField
from subtag.linalg import Matrix
from subtag.scheme import PublicParams

# one line per acceptance criterion, echoed after the run so the
# verdicts survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def f2():
    return BaseField(2)


@pytest.fixture(scope="session")
def f3():
    return BaseField(3)


@pytest.fixture(scope="session")
def f5():
    return BaseField(5)


@pytest.fixture(scope="session")
def f4():
    return BaseField(2, 2)


@pytest.fixture(scope="session")
def e4(f2):
    return ExtField(f2, 2)


@pytest.fixture(scope="session")
def e8(f2):
    return ExtField(f2, 3)


@pytest.fixture(scope="session")
def e9(f3):
    return ExtField(f3, 2)


@pytest.fixture(scope="session")
def e25(f5):
    return ExtField(f5, 2)


@pytest.fixture(scope="session")
def e125(f5):
    return ExtField(f5, 3)


@pytest.fixture(scope="session")
def rs_pp(f5, e125):
    """The flagship instance: q=5, l=3, n=M=2, RS [6,3] over F_125."""
    return PublicParams(
        base=f5, ext=e125, n=2, M=2, code=rs_code(e125, list(range(6)), 3)
    )


@pytest.fixture(scope="session")
def tiny_pp(f2, e4):
    """Small enough to brute-force the whole key space: q=2, l=2,
    n=M=1, RS [3,2] over F_4."""
    return PublicParams(base=f2, ext=e4, n=1, M=1, code=rs_code(e4, [0, 1, 2], 2))


def count_eliminations(monkeypatch) -> list[tuple[int, int]]:
    """Record the shape (rows, columns) of every call of ``linalg._rref``,
    the one elimination loop, for the rest of the test."""
    calls = []
    rref = linalg._rref

    def counting(field, rows, ncols):
        calls.append((len(rows), ncols))
        return rref(field, rows, ncols)

    monkeypatch.setattr(linalg, "_rref", counting)
    return calls


def random_full_rank(
    nrows: int,
    ncols: int,
    field,
    seed: int | random.Random,
    max_attempts: int = 1000,
) -> Matrix:
    """Uniform full-rank matrix by rejection sampling (deterministic per seed)."""
    if min(nrows, ncols) < 0 or nrows == 0 or ncols == 0:
        raise DimensionMismatch("matrix must have at least one row and column")
    r = seed if isinstance(seed, random.Random) else _rng.stream(seed, "full-rank")
    want = min(nrows, ncols)
    for _ in range(max_attempts):
        cand = Matrix.from_indices(
            field,
            [[r.randrange(field.order) for _ in range(ncols)] for _ in range(nrows)],
            ncols=ncols,
        )
        if cand.rank() == want:
            return cand
    raise RankDeficient(f"no full-rank sample in {max_attempts} attempts")
