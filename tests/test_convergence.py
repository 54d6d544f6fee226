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
from undersolve.iterate import METHOD_GGS, METHOD_GJACOBI
from undersolve.linalg import NORM_FRO, matrix_norm, row_one_norms, sign_matrix
from undersolve.partition import partition_system
from undersolve.rref import reduced_system

from oracles import random_partitioned


def test_identity_head_gives_zero_c1():
    rng = np.random.default_rng(1)
    a = np.column_stack([np.eye(3), rng.uniform(1, 2, size=(3, 2))])
    sys = partition_system(a, np.zeros(3))
    for method in (METHOD_GJACOBI, METHOD_GGS):
        report = check_conditions(sys, method)
        for rec in report.per_norm:
            assert rec.c1 == 0.0
            assert rec.c2 >= 0.0


def test_single_ones_column_uncertified():
    a = np.column_stack([np.eye(2), np.array([[1.0], [1.0]])])
    sys = partition_system(a, np.zeros(2))
    report = check_conditions(sys, METHOD_GJACOBI)
    by_norm = {r.norm_kind: r for r in report.per_norm}
    assert by_norm["one"].c2 == 2.0
    assert not by_norm["one"].certified


def test_reduced_demo_report_emitted():
    _, a_bar, b_bar = reduced_system(DEMO_A, DEMO_B)
    sys = partition_system(a_bar, b_bar)
    report = check_conditions(sys, METHOD_GJACOBI)
    # outcome recorded, not asserted: conditions are sufficient only
    assert isinstance(report.overall_certified, bool)
    assert all(r.c1 == 0.0 for r in report.per_norm)


def test_certification_predicate_scaling_equivalence():
    rng = np.random.default_rng(21)
    for _ in range(30):
        a, m, n = random_partitioned(rng)
        sys = partition_system(a, np.zeros(m))
        report = check_conditions(sys, METHOD_GJACOBI)
        tail_product = (sys.b_tail @ sign_matrix(sys.b_tail)) \
            / row_one_norms(sys.b_tail)[np.newaxis, :]
        for rec in report.per_norm:
            scaled = matrix_norm(np.eye(m) - tail_product / m, rec.norm_kind)
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
    report = check_conditions(partition_system(a, np.zeros(m)), method)
    fro = next(r for r in report.per_norm if r.norm_kind == NORM_FRO)
    assert fro.c2 >= np.sqrt(m) * (m - 1) * (1 - 1e-12)
    assert not fro.certified


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
    sys = partition_system(a, np.zeros(m))
    for method in (METHOD_GJACOBI, METHOD_GGS):
        report = check_conditions(sys, method)
        for rec in report.per_norm:
            assert np.isfinite(rec.cauchy_bound)
            assert rec.cauchy_bound >= 0.0


def test_rejects_non_generalized_method():
    a = np.column_stack([np.eye(2), np.ones((2, 1))])
    sys = partition_system(a, np.zeros(2))
    with pytest.raises(ValueError):
        check_conditions(sys, "baseline")
