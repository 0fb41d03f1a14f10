import os

import pytest
from hypothesis import settings

from zeonmarkov.documents import load_matrix
from zeonmarkov.linalg import Matrix
from zeonmarkov.markov import StochasticMatrix

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")

settings.register_profile("suite", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("suite")


def cofactor_det(m: Matrix):
    """Independent determinant oracle: expansion along the first row."""
    n = m.rows
    if n == 0:  # the empty product
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    for j in range(n):
        if m[0, j] == 0:
            continue
        minor = Matrix(n - 1, n - 1,
                       [m[i, k] for i in range(1, n) for k in range(n) if k != j])
        total += (-1) ** j * m[0, j] * cofactor_det(minor)
    return total


def assert_same_entries(m, expected):
    """Equal matrices whose entries also agree in hash and type, one by one."""
    assert (m.rows, m.cols) == (expected.rows, expected.cols) and m == expected
    assert hash(m) == hash(expected) and repr(m) == repr(expected)
    for e, f in zip(m.data, expected.data, strict=True):
        assert e == f and hash(e) == hash(f) and type(e) is type(f)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_example(i: int):
    return load_matrix(fixture_path(f"example{i}.json")).matrix


@pytest.fixture(scope="session")
def example(request):
    return load_example


@pytest.fixture(scope="session")
def examples():
    return {i: load_example(i) for i in range(1, 6)}


@pytest.fixture(scope="session")
def chains(examples):
    return {i: StochasticMatrix(m) for i, m in examples.items()}
