"""Shared fixtures: one small two-class separable workload.

Class 1 descends on column 0 (through ``a``), class 2 ascends on
column 1 (through ``b``); ``e`` is the exit relation.  Both classes
are one column wide, so every selection on it is full and runs through
carry partitioning (``test_trace_stitching.branching_workload`` has the
partial selections).
"""

import pytest

from repro.datalog.database import Database
from repro.datalog.parser import parse_program

TWO_CLASS_SRC = """
t(X, Y) :- a(X, X1) & t(X1, Y).
t(X, Y) :- b(Y1, Y) & t(X, Y1).
t(X, Y) :- e(X, Y).
"""


def two_class_workload(n: int = 10):
    program = parse_program(TWO_CLASS_SRC).program
    db = Database()
    for i in range(n):
        db.add_fact("a", (f"x{i}", f"x{i + 1}"))
        db.add_fact("b", (f"z{i}", f"z{i + 1}"))
    for i in range(0, n, 2):
        db.add_fact("e", (f"x{i}", f"z{i}"))
    return program, db


@pytest.fixture
def two_class():
    return two_class_workload()
