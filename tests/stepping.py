"""Single steps of a prepared operator, on full vectors in original column
order, for tests that check one step at a time."""

import numpy as np

from undersolve.iterate import prepare


def stepper(a, b, method, column_perm=None):
    """Prepare the operator of ``method`` on (a, b) in the column order
    ``column_perm`` (the identity when None) once; returns x -> its next
    iterate.  The step gathers x[column_perm] into slot order, takes the
    residual there, adds the operator's gain of that residual and scatters
    the new slots back."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = a.shape[1]
    perm = np.arange(n) if column_perm is None else np.asarray(column_perm, dtype=np.intp)
    op = prepare(a, perm, method)
    k = 0 if op.head is None else op.head.block.shape[1]

    def step(x):
        slots = np.asarray(x, dtype=float)[perm]
        r = b.copy()
        if op.head is not None:
            r -= op.head.block @ slots[:k]
        if op.tail is not None:
            r -= op.tail.block @ slots[k:]
        new = np.empty(n)
        new[perm] = slots + op.gain(r)
        return new

    return step
