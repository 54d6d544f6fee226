import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from undersolve import convergence, generate
from undersolve.convergence import check_conditions
from undersolve.generate import (
    MAX_HALVINGS,
    SNAP_THRESHOLD,
    _certifies,
    _NEVER,
    _halved,
    _round_bounds,
    _snap_rounds,
    generate_certified,
)
from undersolve.iterate import GENERALIZED_METHODS, CoordinateTail, Tail
from undersolve.linalg import NORM_KINDS, NORM_ONE, matrix_norm, sign_matrix, vector_norm

from oracles import brute_generate_certified, tail_lower_bounds

# sha256 of the bytes of (A, b, x*) from generate_certified(m, n,
# default_rng(seed)), recorded when the generator re-partitioned the system
# and checked both methods in every halving round; the output must not move.
# (5, 40, 3) certifies before any halving; (2, 4, 2), (2, 8, 1) and (3, 8, 9)
# certify mid-schedule with off-owner entries left (recorded before the
# rounds were filtered by lower bounds)
PINNED = {
    (2, 4, 2): "718484ac53f06562eba5130e2323a9f63f8a4aeecbb705ee4ca8d99ce619d15a",
    (2, 8, 1): "8117c4cb8ea3596f03c13f49364c043bd7c3befc07cc18f2655e01290c3a8e6d",
    (3, 8, 9): "2fc6bf403b5230e0f90cb6fd7bbf20fb66ac693b9bdf9ffef22e024199669ace",
    (5, 40, 3): "2c466efc3c9445b93acd0c0bc33c41bb1e575172b6a8f433fa4484e061f25fb6",
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
    assert all(check_conditions(a, b, method).overall_certified
               for method in GENERALIZED_METHODS)


def test_generate_certified_runs_no_condition_check(monkeypatch):
    # c1 < 1 holds by construction (see the next test); only c2 is evaluated
    calls = []
    for name in ("check_conditions", "operator_conditions"):
        def counting(*args, _name=name, _original=getattr(convergence, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(convergence, name, counting)
        monkeypatch.setattr(generate, name, counting, raising=False)
    generate_certified(30, 120, np.random.default_rng(0))
    assert calls == []


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(1, 40))
def test_generated_heads_have_c1_below_one_half(data, m):
    # a head as generate_certified draws it: a diagonal in [1, 2] plus noise
    # in [-0.5, 0.5] / (2m); c1 < 1/3 (Jacobi) and < 1/2 (Gauss-Seidel)
    diag = data.draw(arrays(float, m, elements=st.floats(1.0, 2.0)))
    noise = data.draw(arrays(float, (m, m), elements=st.floats(-0.5, 0.5)))
    a = np.column_stack([np.diag(diag) + noise / (2 * m), np.eye(m)])
    for method in GENERALIZED_METHODS:
        for rec in check_conditions(a, np.zeros(m), method).per_norm:
            assert rec.c1 < 0.5, (method, rec.norm, rec.c1)


def test_generate_certified_skips_doomed_rounds(monkeypatch):
    # at 300 x 1200 no round certifies before the off-owner entries snap to
    # 0 (40 halvings); the closed-form bounds reject those rounds without
    # forming them, and a tail map, of either form, is formed at most twice
    formed, maps = [], []
    halved = generate._halved

    def forming(*args):
        formed.append(args[-1])
        return halved(*args)

    monkeypatch.setattr(generate, "_halved", forming)
    for form in (Tail, CoordinateTail):
        def counting(tail, _original=form.map):
            maps.append(type(tail))
            return _original(tail)

        monkeypatch.setattr(form, "map", counting)
    generate_certified(300, 1200, np.random.default_rng(0))
    assert len(formed) <= 2
    assert len(maps) <= 2


def test_generate_certified_keeps_its_memory():
    # the closed form's m x w temporaries must not raise the tracemalloc peak
    # of generate_certified(300, 1200) above 13,972,560 bytes, measured
    # (numpy 2.4, Python 3.11) while rounds after the first snap were still
    # halved in place; the closed form peaks at 9.7 MB
    generate_certified(300, 1200, np.random.default_rng(0))
    tracemalloc.start()
    try:
        generate_certified(300, 1200, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 13_972_560


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(0, 12),
       halvings=st.integers(0, 40))
def test_tail_lower_bounds_are_sound(seed, m, extra, halvings):
    # a tail as the generator holds it after `halvings` rounds: owned entries
    # of size 0.5-1.5, the others scaled by 2^-halvings and snapped to 0
    rng = np.random.default_rng(seed)
    tail = rng.uniform(-1.0, 1.0, size=(m, m + extra))
    owner = np.arange(m + extra) % m
    owned = owner == np.arange(m)[:, None]
    tail[owned] = rng.uniform(0.5, 1.5, size=owned.sum()) * rng.choice([-1.0, 1.0], size=owned.sum())
    tail[~owned] *= 2.0 ** -halvings
    tail[~owned & (np.abs(tail) < SNAP_THRESHOLD)] = 0.0
    prepared = Tail(tail, sign_matrix(tail), 1.0 / (m * vector_norm(tail, NORM_ONE)))
    tail_op = prepared.map()
    bounds = tail_lower_bounds(tail)
    for kind, bound in zip(NORM_KINDS, bounds):
        assert bound <= matrix_norm(tail_op, kind) + 1e-12
    # the Frobenius bound is the 2-norm of the diagonal, (m - 1)/sqrt(m);
    # at m = 1 the diagonal is 0 up to rounding
    assert bounds[2] == pytest.approx(np.linalg.norm(np.diag(tail_op)), rel=1e-12, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(0, 24))
def test_generate_certified_matches_round_by_round_halving(seed, m, extra):
    # the closed-form rounds certify in the same round as halving the tail
    # once per round with the full round test, so every output bit agrees
    n = 2 * m + extra
    expected = brute_generate_certified(m, n, np.random.default_rng(seed), _certifies)
    got = generate_certified(m, n, np.random.default_rng(seed))
    assert b"".join(v.tobytes() for v in got) == b"".join(v.tobytes() for v in expected)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(0, 24))
@example(seed=0, m=30, extra=60)
@example(seed=1, m=30, extra=60)
def test_round_test_agrees_with_check(seed, m, extra):
    # every round _certifies decides while a system is generated, it decides
    # as check does for both methods: certified overall exactly when some
    # norm has c2 < m (c1 < 1 holds in all of them)
    rounds, original = [], generate._certifies

    def spying(a):
        rounds.append((a, original(a)))
        return rounds[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generate, "_certifies", spying)
        generate_certified(m, 2 * m + extra, np.random.default_rng(seed))
    assert rounds[-1][1]
    for a, answer in rounds:
        for method in GENERALIZED_METHODS:
            report = check_conditions(a, np.zeros(m), method)
            assert report.overall_certified == answer, (method, a.shape)
            assert any(rec.c2 < m for rec in report.per_norm) == answer, (method, a.shape)


def _round_by_round(tail, off_owner):
    """Every round's tail, 0 ... MAX_HALVINGS, by halving and snapping once
    per round."""
    rounds = [tail.copy()]
    for _ in range(MAX_HALVINGS):
        block = rounds[-1].copy()
        np.multiply(block, 0.5, out=block, where=off_owner)
        block[off_owner & (np.abs(block) < SNAP_THRESHOLD)] = 0.0
        rounds.append(block)
    return rounds


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), extra=st.integers(0, 16),
       off_scale=st.sampled_from([1.0, 1e-6, 1e-11, 1e-13]))
def test_round_bounds_are_sound(seed, m, extra, off_scale):
    # a tail as generate_certified draws it, its off-owner entries scaled by
    # off_scale so that some snap early, and some of them exactly 0
    rng = np.random.default_rng(seed)
    width = m + extra
    off_owner = np.arange(width) % m != np.arange(m)[:, None]
    tail = rng.uniform(-1.0, 1.0, size=(m, width))
    tail[~off_owner] = rng.uniform(0.5, 1.5, size=width) * rng.choice([-1.0, 1.0], size=width)
    tail[off_owner] *= off_scale
    tail[off_owner & (rng.random((m, width)) < 0.1)] = 0.0
    bounds = np.column_stack(_round_bounds(tail, off_owner))
    assert bounds.shape == (MAX_HALVINGS + 1, 3)
    # in every round, before the first snap and after it, the closed form
    # is the rounds' tail bit for bit and the O(m) bounds are those of the
    # formed tail, to rounding
    for halvings, rounds in enumerate(_round_by_round(tail, off_owner)):
        block = _halved(tail, off_owner, halvings)
        assert block.tobytes() == rounds.tobytes()
        expected = tail_lower_bounds(block)
        assert np.allclose(bounds[halvings], expected, rtol=0.0, atol=1e-12)


def test_snap_rounds_match_round_by_round_halving():
    # entries exactly at SNAP_THRESHOLD 2^k, their floating-point
    # neighbours, exact zeros, entries below the threshold already and
    # entries no round zeroes; the snap round is the first round whose
    # tail holds the entry as 0
    edges = SNAP_THRESHOLD * 2.0 ** np.arange(-3, 64)
    values = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                             [0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 1.5, 2.0 ** 40, 1e300]])
    values = np.concatenate([values, -values])
    tail = values[None, :]
    off_owner = np.ones(tail.shape, dtype=bool)
    rounds = _round_by_round(tail, off_owner)
    expected = [next((k for k, block in enumerate(rounds) if block[0, j] == 0.0), _NEVER)
                for j in range(values.size)]
    got = _snap_rounds(np.abs(tail), off_owner)
    assert got.dtype == np.int8
    assert got[0].tolist() == expected
    # an owned entry is never snapped, and an owned zero is 0 from round 0
    owned = _snap_rounds(np.abs(tail), ~off_owner)[0]
    assert owned.tolist() == [0 if v == 0.0 else _NEVER for v in values]
