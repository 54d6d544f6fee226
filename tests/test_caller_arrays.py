"""No entry that takes a matrix writes into the caller's arrays or hands
back a view of them.

``linalg.as_matrix`` returns a contiguous float64 array itself, not a
copy, so a routine that writes into its matrix copies it first
(``rref.rref``), and the prepared operator copies what it keeps.  For each
entry below, on a system whose tail ``prepare`` keeps in coordinate form
and on one it keeps dense:

* A, b and x0 are byte-identical after the call;
* writing into them afterwards changes no array of the result (the
  report's solution, the operator's head and tail, the RREF matrix);
* a strided view of A gives the result that its compact copy gives.
"""

from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from undersolve import formats
from undersolve.convergence import check_conditions
from undersolve.iterate import (
    CoordinateTail,
    SolverConfig,
    Tail,
    exact_solve,
    run,
    run_with_operator,
)
from undersolve.partition import column_order
from undersolve.rref import reduced_system, rref


def _config(method, policy="identity"):
    return SolverConfig(method=method, max_iterations=5, permutation_policy=policy)


ENTRIES = {
    "run-gjacobi": lambda a, b, x0: run(a, b, x0, _config("gjacobi")),
    "run-ggs-pivot-columns": lambda a, b, x0: run(a, b, x0, _config("ggs", "pivot-columns")),
    "run-baseline": lambda a, b, x0: run(a, b, x0, _config("baseline")),
    "run_with_operator-gjacobi": lambda a, b, x0: run_with_operator(a, b, x0, _config("gjacobi")),
    "run_with_operator-ggs": lambda a, b, x0: run_with_operator(a, b, x0, _config("ggs")),
    "exact_solve": lambda a, b, x0: exact_solve(a, b, x0, _config("ggs")),
    "check_conditions": lambda a, b, x0: check_conditions(a, b, "ggs"),
    "column_order-pivot-columns": lambda a, b, x0: column_order(a, "pivot-columns"),
    "rref": lambda a, b, x0: rref(a),
    "reduced_system": lambda a, b, x0: reduced_system(a, b),
    "write_csv_matrix": lambda a, b, x0: formats.write_csv_matrix(a),
}
TAILS = {"sparse": CoordinateTail, "dense": Tail}


def _system(tail_kind):
    """A 10 x 40 system with a diagonally dominant head; its tail has one
    nonzero per column (1/10 of it, so coordinate form) or none zero."""
    rng = np.random.default_rng(23)
    m, n = 10, 40
    head = rng.uniform(0.0, 0.18, size=(m, m))
    np.fill_diagonal(head, rng.uniform(1.0, 2.0, size=m))
    if tail_kind == "sparse":
        cols = np.arange(n - m)
        tail = np.zeros((m, n - m))
        tail[cols % m, cols] = rng.uniform(0.5, 1.5, size=n - m) * rng.choice([-1.0, 1.0],
                                                                            size=n - m)
    else:
        tail = rng.uniform(-1.0, 1.0, size=(m, n - m))
    a = np.hstack([head, tail])
    return a, a @ rng.uniform(-1.0, 1.0, size=n), rng.uniform(-1.0, 1.0, size=n)


def _leaves(result):
    """Every value a result holds, depth first: arrays, numbers, strings."""
    if is_dataclass(result):
        for f in fields(result):
            yield from _leaves(getattr(result, f.name))
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _leaves(item)
    else:
        yield result


def _arrays(result):
    return [leaf for leaf in _leaves(result) if isinstance(leaf, np.ndarray)]


@pytest.mark.parametrize("tail_kind", TAILS)
def test_the_systems_take_both_tail_forms(tail_kind):
    a, b, x0 = _system(tail_kind)
    report, op = ENTRIES["run_with_operator-gjacobi"](a, b, x0)
    assert report.iterations >= 1
    assert type(op.tail) is TAILS[tail_kind]


@pytest.mark.parametrize("tail_kind", TAILS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_caller_arrays_are_neither_written_nor_aliased(entry, tail_kind):
    a, b, x0 = _system(tail_kind)
    before = [v.tobytes() for v in (a, b, x0)]
    result = ENTRIES[entry](a, b, x0)
    assert [v.tobytes() for v in (a, b, x0)] == before
    assert not any(np.shares_memory(out, v) for out in _arrays(result) for v in (a, b, x0))


@pytest.mark.parametrize("tail_kind", TAILS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_writing_into_the_inputs_later_changes_no_result(entry, tail_kind):
    a, b, x0 = _system(tail_kind)
    result = ENTRIES[entry](a, b, x0)
    kept = [out.copy() for out in _arrays(result)]
    for v in (a, b, x0):
        v[...] = np.nan
    assert all(np.array_equal(out, copy) for out, copy in zip(_arrays(result), kept))


@pytest.mark.parametrize("tail_kind", TAILS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_a_strided_view_gives_the_result_of_its_copy(entry, tail_kind):
    a, b, x0 = _system(tail_kind)
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    view = wide[:, ::2]
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    got = list(_leaves(ENTRIES[entry](view, b, x0)))
    want = list(_leaves(ENTRIES[entry](np.array(view), b, x0)))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        else:
            assert g == w
