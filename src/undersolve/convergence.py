"""Sufficient-condition checks for the generalized iterations.

Convergence is certified per matrix norm: both factor bounds must hold in
the SAME submultiplicative norm (1, infinity, or Frobenius).  Failure to
certify never means divergence; the conditions are sufficient only.
"""

from dataclasses import dataclass
from typing import Optional

from .errors import InvalidInput, NotUnderdetermined
from .iterate import GENERALIZED_METHODS, Operator, prepare
from .linalg import NORM_KINDS, as_system, matrix_norm
from .partition import POLICY_IDENTITY, column_order


@dataclass(frozen=True)
class NormConditionRecord:
    norm: str
    c1: float          # ||I - B D^-1|| (Jacobi) or ||I - B L^-1|| (Gauss-Seidel)
    c2: float          # ||m I - tail * s(tail) * N(tail)^-1||
    certified: bool    # c1 < 1 and c2 < m, strictly, in this norm
    cauchy_bound: float  # informational step-size bound, same norm


@dataclass(frozen=True)
class ConditionReport:
    method: str
    per_norm: tuple
    overall_certified: bool


def check_conditions(a, b, method: str, policy: str = POLICY_IDENTITY) -> ConditionReport:
    """Evaluate both convergence-condition factors in every supported norm,
    on the head and tail of a in the column order ``policy`` picks.

    Raises, in this order: the errors of ``linalg.as_system``,
    ``NotUnderdetermined`` unless m < n, ``InvalidInput`` for an unknown
    policy and ``RankDeficient`` when the pivot-columns policy finds
    rank(a) < m, ``InvalidInput`` for a method other than gjacobi and ggs,
    then the structural errors of ``iterate.prepare``."""
    a, _ = as_system(a, b)
    m, n = a.shape
    if m >= n:
        raise NotUnderdetermined(
            f"system must have more unknowns than equations (m={m}, n={n})")
    perm = column_order(a, policy)
    if method not in GENERALIZED_METHODS:
        raise InvalidInput(f"conditions are defined for {GENERALIZED_METHODS}, got {method!r}")
    return operator_conditions(prepare(a, perm, method))


def operator_conditions(op: Operator) -> ConditionReport:
    """The conditions of a prepared generalized-method operator: c1 from
    its head's coupling C, c2 from its tail's map T, in either storage
    form of the tail; the CLI passes the operator its solve prepared."""
    m = op.tail.weights.size
    # each matrix but T is reduced to its norms and dropped before the next
    # is built: the solve's operator is still alive, so this keeps peak memory
    sign_norms = op.tail.update_norms()
    tail_map = op.tail.map()
    tail_norms = _norms(tail_map)
    solved_norms = _norms(op.head.solve(tail_map))
    head_norms = _norms(op.head.coupling())
    records = tuple(
        NormConditionRecord(
            norm=kind,
            c1=c1,
            c2=m * tail,
            certified=bool(c1 < 1.0 and m * tail < m),
            cauchy_bound=solved + sign,
        )
        for kind, c1, tail, solved, sign in zip(
            NORM_KINDS, head_norms, tail_norms, solved_norms, sign_norms)
    )
    return ConditionReport(
        method=op.method,
        per_norm=records,
        overall_certified=any(r.certified for r in records),
    )


def _norms(mat):
    return [matrix_norm(mat, kind) for kind in NORM_KINDS]


def contraction_factor(report: ConditionReport, m: int) -> Optional[float]:
    """Best certified per-step residual ratio bound, c1 * (c2 / m);
    None when no norm certifies."""
    certified = [r.c1 * (r.c2 / m) for r in report.per_norm if r.certified]
    return min(certified) if certified else None
