"""Single steps of a prepared operator, on full vectors in original column
order, for tests that check one step at a time."""

import numpy as np

from undersolve.iterate import prepare
from undersolve.partition import split_system


def stepper(sys, sweep):
    """Prepare the operator of ``sys`` and a sweep kind once; returns
    x -> its next iterate.  The step gathers x[column_perm] into slot
    order, takes the residual there, adds the operator's gain of that
    residual and scatters the new slots back."""
    op = prepare(sys, sweep)
    perm = np.asarray(sys.column_perm, dtype=np.intp)
    k = sys.b_head.shape[1]

    def step(x):
        slots = np.asarray(x, dtype=float)[perm]
        r = sys.rhs - sys.b_head @ slots[:k] - sys.b_tail @ slots[k:]
        new = np.empty(sys.n)
        new[perm] = slots + op.gain(r)
        return new

    return step


def whole_stepper(a, b, sweep):
    """``stepper`` on the unpartitioned system in identity order: A is the
    tail without a sweep (baseline), the head with one (the classical
    methods)."""
    a = np.asarray(a, dtype=float)
    head_size = 0 if sweep is None else a.shape[0]
    sys = split_system(a, np.asarray(b, dtype=float), np.arange(a.shape[1]), head_size)
    return stepper(sys, sweep)
