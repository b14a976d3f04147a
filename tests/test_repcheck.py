import cmath
import math
import weakref

import numpy as np
import pytest

from mdlab import repcheck
from mdlab.params import OmegaParams
from mdlab.repcheck import (
    ALL_RELATIONS,
    RepresentationError,
    ShiftOperator,
    ShiftTerm,
    TestFunction,
    apply_operator,
    build_generator,
    class_scores,
    compose,
    compose_all,
    gz_indices,
    relation_index_pairs,
    sample_point,
    term_values,
    verify_all,
    verify_relation,
)
from mdlab.suites import representation_suite

P = OmegaParams(0.83, 1.0 / 0.83)


def const_one(_):
    return 1.0


def test_identity_operator():
    g = {(1, 1): 0.4 + 0j, (2, 1): 1.0 + 0j, (2, 2): -0.6 + 0j}
    I = ShiftOperator((ShiftTerm(),))
    f = TestFunction({(1, 1): 0.3 + 0.1j}, {(1, 1): 0.02})
    assert apply_operator(I, f, g, P) == pytest.approx(f(g))


def test_k1_multiplication():
    g = {(1, 1): 0.3 + 0j, (2, 1): 1.0 + 0j, (2, 2): -0.6 + 0j}
    K1 = build_generator("K", 1, 2, P)
    assert apply_operator(K1, const_one, g, P) == pytest.approx(
        cmath.exp(math.pi * 0.3 / P.omega2)
    )
    tK1 = build_generator("tK", 1, 2, P)
    assert apply_operator(tK1, const_one, g, P) == pytest.approx(
        cmath.exp(math.pi * 0.3 / P.omega1)
    )


def test_e_raise_hand_evaluation():
    # N = 2, single term, empty denominator product: independent hand oracle
    g = {(1, 1): 0.3 + 0j, (2, 1): 0.5 + 0j, (2, 2): -0.7 + 0j}
    E = build_generator("E_raise", 1, 2, P)
    s = math.pi / P.omega2
    hs = 0.5j * (P.omega1 + P.omega2)
    expected = (
        2.0
        / (P.q - 1.0 / P.q)
        * cmath.sinh(s * (0.3 - 0.5 - hs))
        * cmath.sinh(s * (0.3 + 0.7 - hs))
    )
    assert apply_operator(E, const_one, g, P) == pytest.approx(expected)


def test_composed_coefficients_hand_evaluation():
    # E_raise(2) E_lower(2) at N = 3: E_lower's coefficient is read at the
    # point E_raise displaced, gamma_21 -> gamma_21 - i*omega1
    g = {(1, 1): 0.2, (2, 1): 0.6, (2, 2): -0.5, (3, 1): 1.1, (3, 2): -0.1, (3, 3): -1.3}
    D = compose(build_generator("E_raise", 2, 3, P), build_generator("E_lower", 2, 3, P), P)
    c = repcheck.coefficients(D, {idx: np.array([complex(v)]) for idx, v in g.items()})[:, 0]

    def S(z):
        return cmath.sinh(math.pi * z / P.omega2)

    hs, qq = 0.5j * (P.omega1 + P.omega2), P.q - 1.0 / P.q
    raise_1 = (2.0 * cmath.exp(1j * math.pi * (P.omega1 + P.omega2) / (2 * P.omega2)) / qq
               * S(g[(2, 1)] - g[(3, 1)] - hs) * S(g[(2, 1)] - g[(3, 2)] - hs)
               * S(g[(2, 1)] - g[(3, 3)] - hs) / S(g[(2, 1)] - g[(2, 2)]))
    lower = 2.0 * cmath.exp(-1j * math.pi * (P.omega1 + P.omega2) / (2 * P.omega2)) / qq
    g21 = g[(2, 1)] - 1j * P.omega1
    # term (j1, j2) = (1, 1): shifts cancel; (1, 2): E_lower acts on gamma_22
    assert D.terms[0].shift == {(2, 1): (0, 0)}
    assert c[0] == pytest.approx(
        raise_1 * lower * S(g21 - g[(1, 1)] + hs) / S(g21 - g[(2, 2)]), rel=1e-12)
    assert D.terms[1].shift == {(2, 1): (1, 0), (2, 2): (-1, 0)}
    assert c[1] == pytest.approx(
        raise_1 * lower * S(g[(2, 2)] - g[(1, 1)] + hs) / S(g[(2, 2)] - g21), rel=1e-12)


def test_shift_bookkeeping():
    for n, kind, pair in ((1, "E_raise", (1, 0)), (2, "E_raise", (1, 0)),
                          (1, "tE_raise", (0, 1)), (2, "tE_lower", (0, -1))):
        op = build_generator(kind, n, 3, P)
        assert len(op.terms) == n
        for t in op.terms:
            assert len(t.shift) == 1
            ((row, _), ab), = t.shift.items()
            assert row == n and ab == pair


def test_k_has_no_shift():
    for n in (1, 2, 3):
        op = build_generator("K", n, 3, P)
        assert len(op.terms) == 1 and not op.terms[0].shift


def test_index_guards():
    with pytest.raises(RepresentationError):
        build_generator("E_raise", 2, 2, P)
    with pytest.raises(RepresentationError):
        build_generator("K", 4, 3, P)
    with pytest.raises(RepresentationError):
        build_generator("nonsense", 1, 2, P)


def test_compose_k_operators_commute():
    g = sample_point(3, np.random.default_rng(0))
    f = TestFunction.random(3, np.random.default_rng(1))
    K1, K2 = build_generator("K", 1, 3, P), build_generator("K", 2, 3, P)
    a = apply_operator(compose(K1, K2, P), f, g, P)
    b = apply_operator(compose(K2, K1, P), f, g, P)
    assert a == pytest.approx(b)


def test_compose_associativity():
    rng = np.random.default_rng(7)
    g = sample_point(3, rng)
    f = TestFunction.random(3, rng)
    A = build_generator("E_raise", 1, 3, P)
    B = build_generator("E_lower", 2, 3, P)
    C = build_generator("K", 2, 3, P)
    left = apply_operator(compose(compose(A, B, P), C, P), f, g, P)
    right = apply_operator(compose(A, compose(B, C, P), P), f, g, P)
    assert abs(left - right) <= 1e-12 * max(abs(left), 1.0)


def test_k_raise_q_commutation_pointwise():
    # K_1 E_{1,2} = q E_{1,2} K_1 directly at a point
    rng = np.random.default_rng(3)
    g = sample_point(2, rng)
    f = TestFunction.random(2, rng)
    K1 = build_generator("K", 1, 2, P)
    E = build_generator("E_raise", 1, 2, P)
    lhs = apply_operator(compose(K1, E, P), f, g, P)
    rhs = P.q * apply_operator(compose(E, K1, P), f, g, P)
    assert lhs == pytest.approx(rhs)


def test_sample_point_separation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = sample_point(3, rng)
        assert set(g) == set(gz_indices(3))
        for n in (2, 3):
            xs = sorted(g[(n, j)].real for j in range(1, n + 1))
            assert all(b - a >= 0.1 for a, b in zip(xs, xs[1:]))


PLAIN = ("ef_commutator", "k_raise", "k_lower", "raise_commute_distant",
         "serre_raise", "serre_lower", "lower_commute_distant")
CROSS = ("cross_raise_tk", "cross_lower_tk", "cross_raise_traise", "cross_raise_tlower",
         "cross_lower_tlower", "cross_traise_k", "cross_tlower_k", "cross_traise_lower")


def test_relation_catalogue_coverage():
    assert len(ALL_RELATIONS) == 22
    # the plain family, its tilde twins, then the cross-relations
    assert ALL_RELATIONS == PLAIN + tuple("tilde_" + r for r in PLAIN) + CROSS
    # every cross-relation exercises all its delta-coincidence cases at N = 3
    pairs = relation_index_pairs("cross_raise_traise", 3)
    assert set(pairs) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    pairs = relation_index_pairs("cross_raise_tk", 3)
    assert set(pairs) == {(n, m) for n in (1, 2) for m in (1, 2, 3)}
    # Serre relations need N = 3 and run both index orders
    assert relation_index_pairs("serre_raise", 2) == []
    assert set(relation_index_pairs("serre_raise", 3)) == {(1, 2), (2, 1)}


@pytest.mark.parametrize("N", [3, 4])
def test_every_relation_resolves(N):
    for rel_id in ALL_RELATIONS:
        pairs = relation_index_pairs(rel_id, N)
        assert pairs, rel_id
        for n, m in pairs:
            D = repcheck._relation_operator(rel_id, n, m, N, P)
            assert isinstance(D, ShiftOperator) and D.terms, (rel_id, n, m)


def _scalar_draws(N, rng):
    """Reference: the test function's coefficients drawn one scalar at a time."""
    lin, quad = {}, {}
    for idx in gz_indices(N):
        lin[idx] = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        quad[idx] = float(rng.uniform(-0.05, 0.05))
    return lin, quad


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_array_draws_match_scalar_draws(N):
    for trial in range(200):
        lin, quad = _scalar_draws(N, np.random.default_rng([42, N, trial]))
        f = TestFunction.random(N, np.random.default_rng([42, N, trial]))
        assert f.linear == lin and f.quadratic == quad
        assert all(type(d) is float for d in f.quadratic.values())


def _rejection_point(N, rng):
    """Reference law: uniform points on [-2, 2], redrawn until every row is
    separated by ROW_SEPARATION."""
    while True:
        g = {idx: rng.uniform(-2.0, 2.0) for idx in gz_indices(N)}
        if all(abs(g[(n, i)] - g[(n, j)]) >= repcheck.ROW_SEPARATION
               for n in range(1, N + 1)
               for i in range(1, n + 1)
               for j in range(i + 1, n + 1)):
            return g


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    x = np.concatenate([a, b])
    return np.max(np.abs(np.searchsorted(a, x, "right") / len(a)
                         - np.searchsorted(b, x, "right") / len(b)))


def test_sample_point_matches_rejection_law():
    # Built points follow the law of the rejection loop: the empirical CDF of
    # every coordinate and of every within-row difference at N = 3, 20,000
    # seeded points each.  0.02 is the two-sample KS critical value at level
    # about 1e-3 for these sizes (1.95 * sqrt(2 / 20,000)).  Unseparated,
    # unshrunk or row-ordered draws each exceed it: 0.025-0.033 on the
    # differences, 0.05 on the last row, 0.25 and more.
    M, N = 20_000, 3
    rng = np.random.default_rng(0)
    ref = [_rejection_point(N, rng) for _ in range(M)]
    rng = np.random.default_rng(1)
    new = [{idx: z.real for idx, z in sample_point(N, rng).items()} for _ in range(M)]

    def statistics(points):
        rows = [(n, i, j) for n in (2, 3) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return ([[g[idx] for g in points] for idx in gz_indices(N)]
                + [[g[(n, i)] - g[(n, j)] for g in points] for n, i, j in rows])

    for a, b in zip(statistics(new), statistics(ref)):
        assert _ks_distance(a, b) < 0.02


def test_sample_point_rank_bound():
    # row N of 40 values 0.1 apart still fits in [-2, 2]; at 41 it cannot
    g = sample_point(40, np.random.default_rng(0))
    xs = sorted(g[(40, j)].real for j in range(1, 41))
    assert -2.0 <= xs[0] and xs[-1] <= 2.0 + 1e-12
    assert min(b - a for a, b in zip(xs, xs[1:])) >= 0.1 - 1e-12
    with pytest.raises(RepresentationError, match="N <= 40"):
        sample_point(41, np.random.default_rng(0))


@pytest.mark.parametrize("N", [7, 8])
def test_verify_all_past_rank_six(N):
    # trial 2 reaches the seed [42, 7, 5, 7, 2], on which a sampler that
    # rejects unseparated points gives up after 100 draws
    reports = verify_all(N, OmegaParams(0.83, 1 / 0.83), trials=3)
    assert reports and all(r.passed for r in reports)


def test_single_relations():
    assert verify_relation("ef_commutator", 2, P, trials=5).passed
    assert verify_relation("serre_raise", 3, P, trials=3).passed
    assert verify_relation("cross_raise_traise", 3, P, trials=3).passed
    assert verify_relation("tilde_ef_commutator", 2, P, trials=5).passed
    rep = verify_relation("raise_commute_distant", 2, P, trials=3)
    assert rep.rel_error == 0.0 and rep.params["index_pairs"] == 1
    assert rep.detail == "every trial scored exactly 0 (index pairs: 1)"
    assert verify_relation("serre_raise", 2, P).detail == "no index pairs"


def test_verify_all_n2_n3():
    for N in (2, 3):
        reports = verify_all(N, P, trials=4, seed=123)
        assert all(r.passed for r in reports)
        assert max(r.rel_error for r in reports) < 1e-10


def test_seed_determinism():
    a = verify_all(2, P, trials=4, seed=9)
    b = verify_all(2, P, trials=4, seed=9)
    assert [r.rel_error for r in a] == [r.rel_error for r in b]
    c = verify_all(2, P, trials=4, seed=10)
    assert [r.rel_error for r in a] != [r.rel_error for r in c]


def _distinct_pairs(N):
    return {nm for rel_id in ALL_RELATIONS for nm in relation_index_pairs(rel_id, N)}


@pytest.mark.parametrize("N", [2, 3, 4])
@pytest.mark.parametrize("seed", [7, 12345])
def test_verify_all_is_verify_relation_per_relation(N, seed):
    # sharing each pair's points across relations changes no report
    p = OmegaParams(0.5, 0.7)
    together = verify_all(N, p, trials=6, seed=seed)
    alone = [verify_relation(r, N, p, trials=6, seed=seed)
             for r in ALL_RELATIONS if relation_index_pairs(r, N)]
    assert len(together) == len(alone)
    for a, b in zip(together, alone):
        assert a.identity_id == b.identity_id and a.params == b.params
        assert repr(a.rel_error) == repr(b.rel_error)
        assert a.detail == b.detail and a.passed == b.passed


def test_each_pair_drawn_once(monkeypatch):
    calls = []
    draw = repcheck.sample_point

    def counted(N, rng):
        calls.append(N)
        return draw(N, rng)

    monkeypatch.setattr(repcheck, "sample_point", counted)
    verify_all(4, P, trials=3)
    assert len(calls) == 3 * len(_distinct_pairs(4)) == 3 * 15


def test_one_pair_of_points_alive(monkeypatch):
    # each pair's point arrays are dropped before the next pair is drawn,
    # so memory does not grow with the number of pairs
    arrays = []
    draw, score = repcheck.sample_point, repcheck.class_scores

    def live():
        return sum(ref() is not None for ref in arrays)

    def checked_draw(N, rng):
        assert live() == 0
        return draw(N, rng)

    def checked_score(A, gamma):
        a = next(iter(gamma.values()))
        if not any(ref() is a for ref in arrays):
            arrays.append(weakref.ref(a))
        assert live() == 1
        return score(A, gamma)

    monkeypatch.setattr(repcheck, "sample_point", checked_draw)
    monkeypatch.setattr(repcheck, "class_scores", checked_score)
    verify_all(4, P, trials=3)
    assert len(arrays) == len(_distinct_pairs(4))


def test_rank_below_two_raises():
    # and above MAX_RANK = 28, before any operator is built
    for N in (1, 0, 29):
        with pytest.raises(RepresentationError):
            verify_relation("k_raise", N, P)
        with pytest.raises(RepresentationError):
            verify_all(N, P)
        with pytest.raises(RepresentationError):
            representation_suite(gl_rank=N)


def _no_draws(monkeypatch):
    def draw(N, rng):
        raise AssertionError("drew a point")

    monkeypatch.setattr(repcheck, "sample_point", draw)


def test_no_trials_raises(monkeypatch):
    _no_draws(monkeypatch)
    for trials in (0, -1):
        with pytest.raises(RepresentationError, match="trials"):
            verify_relation("k_raise", 2, P, trials=trials)
        with pytest.raises(RepresentationError, match="trials"):
            verify_all(3, P, trials=trials)
        with pytest.raises(RepresentationError, match="trials"):
            representation_suite(gl_rank=2, trials=trials)


def test_unknown_relation(monkeypatch):
    _no_draws(monkeypatch)
    with pytest.raises(RepresentationError, match="unknown relation id"):
        verify_relation("no_such_relation", 2, P)
    # the tilde twins exist for the plain relations only
    for rel_id in ("no_such_relation", "tilde_cross_raise_tk"):
        with pytest.raises(RepresentationError, match="unknown relation id"):
            relation_index_pairs(rel_id, 3)
        with pytest.raises(RepresentationError, match="unknown relation id"):
            repcheck._relation_operator(rel_id, 1, 1, 3, P)


SCORED = [("ef_commutator", 2), ("serre_raise", 3), ("cross_raise_traise", 3)]


def _class_score(values, shifts):
    """Worst |sum| / max|.| over the groups of values sharing a non-zero shift."""
    groups = {}
    for v, sh in zip(values, shifts):
        key = frozenset((idx, ab) for idx, ab in sh.items() if ab != (0, 0))
        groups.setdefault(key, []).append(v)
    return max(abs(sum(vs)) / max(map(abs, vs)) for vs in groups.values())


@pytest.mark.parametrize("rel_id, N", SCORED)
def test_score_is_worst_shift_class(rel_id, N):
    # the coefficients are term_values against f = 1, one point at a time
    seed, trials, scores = 5, 3, []
    for n, m in relation_index_pairs(rel_id, N):
        D = repcheck._relation_operator(rel_id, n, m, N, P)
        shifts = [t.shift for t in D.terms]
        for trial in range(trials):
            x = sample_point(N, np.random.default_rng([seed, N, n, m, trial]))
            scores.append(_class_score(term_values(D, lambda g: 1.0, x, P), shifts))
    got = verify_relation(rel_id, N, P, trials=trials, seed=seed).rel_error
    assert got == pytest.approx(max(scores), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("N, n, m", [(2, 1, 1), (3, 2, 2), (3, 2, 1), (4, 3, 2)])
def test_k_e_controls(N, n, m):
    # K_n E_m = q^p E_m K_n with p = delta(n, m) - delta(n, m + 1)
    K, E = build_generator("K", n, N, P), build_generator("E_raise", m, N, P)
    power = int(n == m) - int(n == m + 1)
    rng = np.random.default_rng(3)
    points = [sample_point(N, rng) for _ in range(10)]
    x = {idx: np.array([g[idx] for g in points]) for idx in gz_indices(N)}

    def score(extra, sign):
        D = compose_all([K, E], P) - compose_all([E, K], P).scale(sign * P.q ** (power + extra))
        return class_scores(D, x).max()

    assert score(0, 1.0) <= 1e-8
    assert score(1, 1.0) > 1e-5
    assert score(0, -1.0) > 1e-5


def test_shift_classes():
    x = {(1, 1): np.array([0.3, -0.4]), (2, 1): np.array([1.0, 0.2])}
    c = ((np.sinh, (((1, 1), 1), ((2, 1), -1)), 0.25j, 1.0, 1),)
    zero_shift = ShiftTerm(2.0, {(1, 1): (0, 0)}, c)
    # a zero entry leaves a term in the unshifted class
    D = ShiftOperator((ShiftTerm(2.0, {}, c),)) - ShiftOperator((zero_shift,))
    assert np.array_equal(class_scores(D, x), [0.0, 0.0])
    # equal terms with distinct shifts cannot cancel
    shifted = ShiftTerm(2.0, {(1, 1): (1, 0)}, c)
    D = ShiftOperator((ShiftTerm(2.0, {}, c),)) - ShiftOperator((shifted,))
    assert np.array_equal(class_scores(D, x), [1.0, 1.0])
    # exp(pi * gamma_11 / 1e-4) overflows at the first point and underflows
    # at the second; either way, at either power, the score is NaN even
    # though the two terms would cancel
    for power in (1, -1):
        big = ((np.exp, (((1, 1), 1),), 0j, 1e-4, power),)
        D = ShiftOperator((ShiftTerm(2.0, {}, big),)) - ShiftOperator((ShiftTerm(2.0, {}, big),))
        assert np.isnan(class_scores(D, x)).all()


@pytest.mark.parametrize("rel_id", ["tilde_ef_commutator", "cross_raise_traise"])
def test_overflowing_coefficients_fail(rel_id):
    # pi * |gamma| / omega1 reaches ~4000 here, past exp's overflow at ~710
    rep = verify_relation(rel_id, 3, OmegaParams(0.003, 1.0), trials=5)
    assert math.isnan(rep.rel_error) and not rep.passed
    assert rep.detail.startswith("non-finite score at (n, m, trial) = ")


def test_nan_score_outranks_larger_scores(monkeypatch):
    # A finite 5.0 at the first pair, then the first NaN at the second pair's
    # last trial; a larger 9.0 and a second NaN follow.  rel_error is NaN and
    # the detail names the first NaN.
    scripted = iter([[0.0, 5.0, 0.0], [0.0, 1.0, math.nan], [math.nan, 9.0, 0.0], [0.0] * 3])
    monkeypatch.setattr(repcheck, "class_scores", lambda A, x: np.array(next(scripted)))
    rep = verify_relation("ef_commutator", 3, P, trials=3)
    n, m = relation_index_pairs("ef_commutator", 3)[1]
    assert math.isnan(rep.rel_error) and not rep.passed
    assert rep.detail == f"non-finite score at (n, m, trial) = {(n, m, 2)}"
