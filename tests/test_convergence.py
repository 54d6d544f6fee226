import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from undersolve.convergence import (
    ConditionReport,
    NormConditionRecord,
    check_conditions,
    contraction_factor,
)
from undersolve.demo import DEMO_A, DEMO_B
from undersolve.errors import (
    DimensionMismatch,
    InvalidInput,
    NotUnderdetermined,
    RankDeficient,
    ZeroDiagonal,
)
from undersolve.iterate import METHOD_GGS, METHOD_GJACOBI, prepare
from undersolve.linalg import NORM_FRO, NORM_KINDS, NORM_ONE, matrix_norm, sign_matrix, vector_norm
from undersolve.rref import reduced_system

from oracles import (
    brute_row_one_norms,
    brute_sign_matrix,
    brute_step_operators,
    random_partitioned,
)


def test_identity_head_gives_zero_c1():
    rng = np.random.default_rng(1)
    a = np.column_stack([np.eye(3), rng.uniform(1, 2, size=(3, 2))])
    for method in (METHOD_GJACOBI, METHOD_GGS):
        report = check_conditions(a, np.zeros(3), method)
        for rec in report.per_norm:
            assert rec.c1 == 0.0
            assert rec.c2 >= 0.0


def test_single_ones_column_uncertified():
    a = np.column_stack([np.eye(2), np.array([[1.0], [1.0]])])
    report = check_conditions(a, np.zeros(2), METHOD_GJACOBI)
    by_norm = {r.norm: r for r in report.per_norm}
    assert by_norm["one"].c2 == 2.0
    assert not by_norm["one"].certified


def test_reduced_demo_report_emitted():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    report = check_conditions(a_bar, b_bar, METHOD_GJACOBI)
    # outcome recorded, not asserted: conditions are sufficient only
    assert isinstance(report.overall_certified, bool)
    assert all(r.c1 == 0.0 for r in report.per_norm)


def test_certification_predicate_scaling_equivalence():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        report = check_conditions(a, np.zeros(m), METHOD_GJACOBI)
        op = prepare(a, range(n), METHOD_GJACOBI)
        tail_product = (op.tail.block @ sign_matrix(op.tail.block)) \
            / vector_norm(op.tail.block, NORM_ONE)[np.newaxis, :]
        for rec in report.per_norm:
            scaled = matrix_norm(np.eye(m) - tail_product / m, rec.norm)
            assert abs(rec.c2 / m - scaled) <= 1e-12 * (1 + scaled)
            assert (rec.c2 < m) == (scaled < 1.0)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 30), extra=st.integers(1, 40),
       method=st.sampled_from((METHOD_GJACOBI, METHOD_GGS)))
def test_frobenius_tail_factor_never_certifies(seed, m, extra, method):
    # the tail factor's diagonal is exactly 1 - 1/m, since B~_ij s(B~_ij)
    # sums to the row's 1-norm, so c2 >= sqrt(m) (m - 1), which is m or more
    # for every m >= 3
    a, m, n = random_partitioned(np.random.default_rng(seed), m=m, n=m + extra)
    report = check_conditions(a, np.zeros(m), method)
    fro = next(r for r in report.per_norm if r.norm == NORM_FRO)
    assert fro.c2 >= np.sqrt(m) * (m - 1) * (1 - 1e-12)
    assert not fro.certified


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), method=st.sampled_from((METHOD_GJACOBI, METHOD_GGS)))
def test_condition_values_match_the_oracle(seed, method):
    # c1 = ||B H^-1 - I|| with H^-1 from a general inverse, c2 = m ||T|| with
    # T the residual map of a brute baseline step on the tail alone, and the
    # Cauchy bound ||H^-1 T|| + ||S W||.  H^-1 is formed, in the library by
    # a blocked triangular inverse, so both round in proportion to kappa(H)
    a, m, n = random_partitioned(np.random.default_rng(seed))
    head, tail = a[:, :m], a[:, m:]
    splitting = np.diag(np.diag(head)) if method == METHOD_GJACOBI else np.tril(head)
    head_inv = np.linalg.inv(splitting)
    tail_map = np.array(brute_step_operators(tail.tolist(), tuple(range(n - m)), 0, None)[0])
    norms = brute_row_one_norms(tail.tolist())
    signs_weights = np.array([[s / (m * norms[i]) for i, s in enumerate(row)]
                              for row in brute_sign_matrix(tail.tolist())])
    rel = 1e-12 * np.linalg.cond(splitting, np.inf)
    report = check_conditions(a, np.zeros(m), method)
    assert [rec.norm for rec in report.per_norm] == list(NORM_KINDS)
    for rec in report.per_norm:
        c1 = matrix_norm(head @ head_inv - np.eye(m), rec.norm)
        c2 = m * matrix_norm(tail_map, rec.norm)
        cauchy = matrix_norm(head_inv @ tail_map, rec.norm) + matrix_norm(signs_weights, rec.norm)
        assert abs(rec.c1 - c1) <= rel * c1
        assert abs(rec.c2 - c2) <= 1e-12 * c2
        assert abs(rec.cauchy_bound - cauchy) <= rel * cauchy


def test_contraction_factor():
    def report_with(c1, c2, certified):
        recs = tuple(
            NormConditionRecord("one", c1, c2, certified, 0.0)
            for _ in range(1)
        )
        return ConditionReport(METHOD_GJACOBI, recs, certified)

    assert contraction_factor(report_with(0.0, 1.0, True), 2) == 0.0
    assert contraction_factor(report_with(0.5, 1.0, True), 2) == 0.25
    assert contraction_factor(report_with(0.5, 3.0, False), 2) is None


def test_cauchy_bound_present_and_finite():
    rng = np.random.default_rng(25)
    a, m, n = random_partitioned(rng)
    for method in (METHOD_GJACOBI, METHOD_GGS):
        report = check_conditions(a, np.zeros(m), method)
        for rec in report.per_norm:
            assert np.isfinite(rec.cauchy_bound)
            assert rec.cauchy_bound >= 0.0


def test_rejects_non_generalized_method():
    a = np.column_stack([np.eye(2), np.ones((2, 1))])
    with pytest.raises(ValueError):
        check_conditions(a, np.zeros(2), "baseline")


@pytest.mark.parametrize("a,b,method,policy,error,match", [
    ([[1.0, 2.0, 3.0]], [1.0, 2.0], "baseline", "bogus", DimensionMismatch, "rhs length"),
    (np.eye(2), [1.0, 2.0], "baseline", "bogus", NotUnderdetermined, "more unknowns"),
    ([[1.0, 2.0, 3.0]], [1.0], "baseline", "bogus", InvalidInput, "permutation policy"),
    ([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]], [1.0, 2.0], "baseline", "pivot-columns",
     RankDeficient, "rank"),
    ([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]], [1.0, 2.0], "baseline", "identity",
     InvalidInput, "conditions are defined"),
    ([[0.0, 2.0, 1.0], [3.0, 4.0, 5.0]], [1.0, 2.0], "gjacobi", "identity",
     ZeroDiagonal, "diagonal"),
])
def test_check_conditions_raises_in_order(a, b, method, policy, error, match):
    # (a, b), then m < n, then the policy, then the method, then the
    # operator's structure: each row breaks every later check too
    with pytest.raises(error, match=match):
        check_conditions(a, b, method, policy)
