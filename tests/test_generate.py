import hashlib

import numpy as np
import pytest

from undersolve import convergence, generate
from undersolve.convergence import check_conditions
from undersolve.generate import generate_certified
from undersolve.iterate import GENERALIZED_METHODS
from undersolve.partition import partition_system

# sha256 of the bytes of (A, b, x*) from generate_certified(m, n,
# default_rng(seed)), recorded when the generator re-partitioned the system
# and checked both methods in every halving round; the output must not move
PINNED = {
    (3, 8, 0): "07e2fc8160a5c035b06aacea6391d1b1fcea41e02a345d8ec257d040d1678e89",
    (3, 8, 1): "fe6e5aa9ac944b0146511d4541003b49984c57472cfb8845d64d655501f2ed64",
    (30, 120, 0): "aa03835a8635d6f006108d66a18dc02389090dce24c5ef578a520d465c860852",
    (30, 120, 1): "49b84833bc8fb2a9c1cb66fcbf69ea72f4d033bcd62aae8fd6aacd394360c0bb",
    (300, 1200, 0): "1b65e270a8e724f8f3d1910669c190f2227b9637a9650ade36aa52f03cb10c1d",
    (300, 1200, 1): "d787015a0eb6cfe4ad8e6be1b8585a4088c5730711c00aca551e8d59b2a271ce",
}


@pytest.mark.parametrize("m,n,seed", sorted(PINNED))
def test_generate_certified_output_pinned(m, n, seed):
    a, b, x_star = generate_certified(m, n, np.random.default_rng(seed))
    digest = hashlib.sha256(a.tobytes() + b.tobytes() + x_star.tobytes()).hexdigest()
    assert digest == PINNED[(m, n, seed)]
    sys = partition_system(a, b)
    assert all(check_conditions(sys, method).overall_certified
               for method in GENERALIZED_METHODS)


def test_generate_certified_checks_each_method_once(monkeypatch):
    calls = []
    original = convergence.check_conditions

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(convergence, "check_conditions", counting)
    monkeypatch.setattr(generate, "check_conditions", counting, raising=False)
    generate_certified(30, 120, np.random.default_rng(0))
    assert len(calls) <= 2
