import operator

import numpy as np
import pytest
import sympy as sp
from sympy.polys.domains import QQ, ZZ, ZZ_I
from sympy.polys.fields import field

from mdlab.qalgebra import (
    NCPoly,
    RewriteError,
    V,
    V_TILDE,
    canon,
    commuting_pair_preset,
    coproduct,
    coproduct_on_leg,
    divided_power,
    gauss_binomial,
    nonsimple_root_poly,
    qpow,
    qweyl_pair_preset,
    sl2_preset,
    sl3_preset,
    verify_commuting_cases,
    verify_coproduct_hom,
    verify_kac,
    verify_mixed_commutators,
    verify_qbinomial,
    verify_serre_sum,
)
from mdlab.qalgebra import checks, ncpoly
from mdlab.qalgebra.checks import _defining_relations, _sl2_gens, _vanishing_commutators
from mdlab.qalgebra.coeffs import one_minus_qneg_product
from mdlab.qalgebra.ncpoly import _coproduct_letter

SL2 = sl2_preset()
SL3 = sl3_preset()
Q, QI = qpow(1), qpow(-1)
ONE = qpow(0)
# The engine's one field is ZZ(v).  ZZ_I(v) is local to these tests: it
# carries the paper's literal form, -i included, as a reference.
VI = field("v", ZZ_I)[1]


def gen(preset, name):
    return NCPoly.gen(preset, name)


# ------------------------------------------------------------- normal order
def test_ef_commutation():
    E, F, K, Ki = (gen(SL2, g) for g in ("E1", "F1", "K1", "K1i"))
    nf = (E * F).normal_order()
    expected = (F * E + (sp.S.One / (Q - QI)) * (K - Ki)).normal_order()
    assert (nf - expected).normal_order().is_zero()


def test_ke_commutation():
    K, E = gen(SL2, "K1"), gen(SL2, "E1")
    assert ((K * E).normal_order() - (Q**2 * (E * K)).normal_order()).normal_order().is_zero()


def test_k_kinv_cancel():
    K, Ki = gen(SL2, "K1"), gen(SL2, "K1i")
    assert (K * Ki).normal_order().terms == {(): ONE}
    assert (Ki * K).normal_order().terms == {(): ONE}


def test_q_serre_zero():
    E1, E2 = gen(SL3, "E1"), gen(SL3, "E2")
    serre = E1**2 * E2 - (Q + QI) * (E1 * E2 * E1) + E2 * E1**2
    assert serre.normal_order().is_zero()
    F1, F2 = gen(SL3, "F1"), gen(SL3, "F2")
    serre_f = F1**2 * F2 - (Q + QI) * (F1 * F2 * F1) + F2 * F1**2
    assert serre_f.normal_order().is_zero()


def test_nonsimple_root_definition():
    # the defining combination of simple generators normal-orders to the
    # single dedicated letter, for both families
    assert nonsimple_root_poly(SL3, "E").normal_order().terms == {("E12",): ONE}
    assert nonsimple_root_poly(SL3, "F").normal_order().terms == {("F12",): ONE}


def test_forbidden_adjacency_raises():
    bad = NCPoly(SL3, {("E12", "F1"): 1})
    with pytest.raises(RewriteError):
        bad.normal_order()


def test_step_budget_guard():
    E, F = gen(SL2, "E1"), gen(SL2, "F1")
    with pytest.raises(RewriteError):
        ((E * F) ** 4).normal_order(max_steps=3)


def test_divided_power():
    assert divided_power(SL2, "E1", 0).terms == {(): ONE}
    assert divided_power(SL2, "E1", 1).terms == {("E1",): ONE}
    dp2 = divided_power(SL2, "E1", 2)
    assert dp2.terms[("E1", "E1")] == 1 / (Q + QI)


# ------------------------------------------------------------ coefficients
def test_coefficients_canonical_by_construction():
    # two spellings of one rational function cancel in the arithmetic:
    # no normal ordering, no clean-up pass
    x = gen(SL2, "E1") * gen(SL2, "F1")
    assert (x * ((Q - QI) / (Q + QI)) - x * ((Q**2 - 1) / (Q**2 + 1))).terms == {}
    assert (Q**2 - QI**2) / (Q - QI) == Q + QI


def test_gaussian_integer_denominator_is_canonical():
    # The paper-form reference below runs in ZZ_I(v).
    # (3i v^3 + (2+4i) v)/(4+8i) = ((6+3i) v^3 + 10 v)/20, reached by two
    # different routes, must have one stored numerator and denominator
    x = (canon(3 * sp.I, VI) * VI**3 + canon(2 + 4 * sp.I, VI) * VI) / canon(4 + 8 * sp.I, VI)
    y = (canon(6 + 3 * sp.I, VI) * VI**3 + 10 * VI) * canon(sp.Rational(1, 20), VI)
    assert x == y
    assert x.numer == y.numer and x.denom == y.denom


def test_variables_do_not_mix():
    E = gen(SL2, "E1")
    with pytest.raises(ValueError):
        E * qpow(1, V_TILDE)
    with pytest.raises(ValueError):
        NCPoly(SL2, {("E1",): qpow(1, V_TILDE)})
    with pytest.raises(ValueError):
        E + gen(sl2_preset(V_TILDE), "E1")


def test_field_mismatch_names_domains():
    with pytest.raises(ValueError, match=r"field QQ\(v\), not in ZZ\(v\)"):
        canon(field("v", QQ)[1], V)
    with pytest.raises(ValueError, match=r"field ZZ\(w\), not in ZZ\(v\)"):
        canon(V_TILDE, V)
    with pytest.raises(ValueError, match=r"coefficient I does not lie in ZZ\(v\)"):
        canon(sp.I, V)
    # no field embeds into another, ZZ(v) into ZZ_I(v) included
    with pytest.raises(ValueError, match=r"field ZZ_I\(v\), not in ZZ\(v\)"):
        canon(VI, V)
    with pytest.raises(ValueError, match=r"field ZZ\(v\), not in ZZ_I\(v\)"):
        canon(V, VI)


@pytest.mark.parametrize("v", [V, VI], ids=["ZZ", "ZZ_I"])
@pytest.mark.parametrize(
    "x, shown",
    [(0.1, "0.1:"), (2.5, "2.5:"), (1 + 2j, r"\(1\+2j\):"), (np.float64(0.5), "0.5:"),
     (sp.Float(0.1), r"0\.10*:"), (sp.I + sp.Float(0.5), r"0\.50* \+ I:")],
    ids=["float", "float_2.5", "complex", "numpy_float", "sympy_Float", "sympy_expr_with_Float"],
)
def test_canon_rejects_inexact_numbers(v, x, shown):
    with pytest.raises(ValueError, match=rf"inexact coefficient {shown}"):
        canon(x, v)
    with pytest.raises(ValueError, match="inexact"):
        gen(sl2_preset(v), "E1") * x


def _rule_fields(preset) -> set:
    return {c.field for branches in preset.rules.values() for c, _ in branches}


@pytest.mark.parametrize("v", [V, V_TILDE], ids=["v", "w"])
def test_coefficient_ring_rule(v, monkeypatch):
    # one field: every preset's rules, sl3's included, and every coefficient
    # the six verifiers build lie in ZZ(v), or in ZZ(w) for the dual re-runs
    assert v.field.domain == ZZ
    for build in (sl2_preset, sl3_preset, commuting_pair_preset, qweyl_pair_preset):
        preset = build(v)
        assert preset.v == v and _rule_fields(preset) == {v.field}
    seen = []
    report = checks._exact_report

    def spy(identity_id, params, diffs, start):
        seen.extend(d for _, d in diffs)
        return report(identity_id, params, diffs, start)

    monkeypatch.setattr(checks, "_exact_report", spy)
    reports = [verify_kac(2, 2, v), verify_qbinomial(3, v), verify_mixed_commutators(2, v),
               verify_serre_sum(2, 1, v), verify_commuting_cases(v), verify_coproduct_hom(v)]
    assert all(r.passed for r in reports)
    assert {c.field for d in seen for c in d.terms.values()} == {v.field}


def test_repr_reads_as_expressions():
    assert repr(gen(SL2, "E1") * Q) == "(v**2)*E1"
    assert repr(NCPoly.zero(SL2)) == "0"
    assert repr(coproduct(gen(SL2, "E1"))) == "(1)*E1 (x) 1 + (1)*K1i (x) E1"


# ---------------------------------------------------- confluence / termination
def _rightmost_normal_order(poly: NCPoly) -> NCPoly:
    """Independent strategy: always rewrite the rightmost reducible pair."""
    preset = poly.preset
    done: dict = {}
    frontier = dict(poly.terms)
    while frontier:
        new: dict = {}
        for word, coeff in frontier.items():
            hit = None
            for i in range(len(word) - 2, -1, -1):
                if (word[i], word[i + 1]) in preset.rules:
                    hit = i
                    break
            if hit is None:
                done[word] = done.get(word, sp.S.Zero) + coeff
                continue
            for c, repl in preset.rules[(word[hit], word[hit + 1])]:
                w = word[:hit] + repl + word[hit + 2:]
                new[w] = new.get(w, sp.S.Zero) + coeff * c
        frontier = new
    return NCPoly(preset, done)


@pytest.mark.parametrize(
    "preset", [SL2, commuting_pair_preset(), qweyl_pair_preset()], ids=lambda p: p.name
)
def test_confluence_random_words(preset):
    rng = np.random.default_rng(12345)
    symbols = preset.symbols
    for _ in range(300):
        length = int(rng.integers(0, 9))
        word = tuple(symbols[i] for i in rng.integers(0, len(symbols), length))
        poly = NCPoly(preset, {word: 1})
        left = poly.normal_order()
        right = _rightmost_normal_order(poly)
        assert (left - right).is_zero(), word


def test_confluence_random_words_sl3():
    rng = np.random.default_rng(6789)
    # avoid adjacencies that are deliberately unsupported: draw from the
    # E/K block only, plus the F/K block only
    for symbols in (
        ("K1", "K1i", "K2", "K2i", "E2", "E12", "E1"),
        ("F2", "F12", "F1", "K1", "K1i", "K2", "K2i"),
    ):
        for _ in range(150):
            length = int(rng.integers(0, 9))
            word = tuple(symbols[i] for i in rng.integers(0, len(symbols), length))
            poly = NCPoly(SL3, {word: 1})
            assert (poly.normal_order() - _rightmost_normal_order(poly)).is_zero()


def test_idempotence():
    E, F = gen(SL2, "E1"), gen(SL2, "F1")
    once = ((E * F) ** 2).normal_order()
    twice = once.normal_order()
    assert (once - twice).normal_order().is_zero()
    assert set(once.terms) == set(twice.terms)


# -------------------------------------------------------------- verifiers
def test_kac_small():
    assert verify_kac(1, 1).passed
    assert verify_kac(1, 0).passed
    assert verify_kac(0, 3).passed
    assert verify_kac(2, 2).passed


def test_kac_detects_wrong_rhs():
    # sanity: a deliberately perturbed identity must fail
    rep = verify_kac(1, 1)
    assert rep.passed
    E, F = gen(SL2, "E1"), gen(SL2, "F1")
    broken = (E * F - F * E - gen(SL2, "K1")).normal_order()
    assert not broken.is_zero()


def test_mixed_commutators():
    for m in (1, 2, 3):
        assert verify_mixed_commutators(m).passed
    with pytest.raises(ValueError):
        verify_mixed_commutators(0)


def test_serre_sum():
    assert verify_serre_sum(1, 1).passed
    assert verify_serre_sum(2, 1).passed
    assert verify_serre_sum(2, 2).passed


# The paper's literal form over ZZ_I(v): calX = -i(q - q^-1) X, the root
# vector E12 = -i(q^{1/2} E2 E1 - q^{-1/2} E1 E2) in the simple generators,
# and the sign (-1)^n that the checks divide out with the unit -i.
def _paper_serre_sum(N, M, sign=-1):
    P = sl3_preset(VI)
    scale = canon(-sp.I, VI) * (qpow(1, VI) - qpow(-1, VI))
    fact = [one_minus_qneg_product(k, VI) for k in range(max(N, M) + 1)]
    diffs = []
    for fam in ("E", "F"):
        g1, g2 = gen(P, f"{fam}1") * scale, gen(P, f"{fam}2") * scale
        root = NCPoly(P, {(f"{fam}2", f"{fam}1"): canon(-sp.I, VI) * VI,
                          (f"{fam}1", f"{fam}2"): canon(sp.I, VI) / VI}) * scale
        rhs = NCPoly.zero(P)
        for n in range(min(N, M) + 1):
            coeff = (sign**n * VI ** (-n * n + 2 * n) * qpow(N * M, VI)
                     * fact[N] * fact[M] / (fact[N - n] * fact[M - n] * fact[n]))
            rhs = rhs + (g2 ** (M - n) * root**n * g1 ** (N - n)) * coeff
        diffs.append((g1**N * g2**M - rhs).normal_order())
    return diffs


def _paper_mixed_commutators(m, sign=1):
    P, E, F, K, Ki = _sl2_gens(VI)
    scale = canon(-sp.I, VI) * (qpow(1, VI) - qpow(-1, VI))
    calE, calF = E * scale, F * scale
    bracket = -(qpow(m, VI) - qpow(-m, VI))
    cartan = K * qpow(1 - m, VI) - Ki * qpow(m - 1, VI)
    lhs1 = (calE**m * calF - calF * calE**m) * sign
    lhs2 = (calE * calF**m - calF**m * calE) * sign
    return [
        (lhs1 - (cartan * bracket) * calE ** (m - 1)).normal_order(),
        (lhs2 - (calF ** (m - 1) * cartan) * bracket).normal_order(),
    ]


def test_paper_form_over_gaussian_field():
    for N in range(4):
        for M in range(4 - N):
            assert all(d.is_zero() for d in _paper_serre_sum(N, M)), (N, M)
    for m in (1, 2, 3):
        assert all(d.is_zero() for d in _paper_mixed_commutators(m)), m


def test_paper_form_controls_fail():
    # without (-1)^n, or with one side of the commutator negated, the
    # paper's form must not hold
    for N, M in ((1, 1), (2, 1), (1, 2)):
        assert not any(d.is_zero() for d in _paper_serre_sum(N, M, sign=1)), (N, M)
    for m in (1, 2, 3):
        assert not any(d.is_zero() for d in _paper_mixed_commutators(m, sign=-1)), m


def test_checks_never_format_polynomials(monkeypatch):
    # A field coefficient left of a polynomial goes through sympy's
    # FracElement.__mul__, whose failed coercion formats the polynomial for
    # an error message before Python falls back to __rmul__; a passing check
    # formats nothing.
    def refuse(self):
        raise AssertionError("formatted a polynomial")

    monkeypatch.setattr(ncpoly._Combination, "__repr__", refuse)
    for report in (verify_kac(2, 2), verify_mixed_commutators(2), verify_serre_sum(2, 1),
                   verify_commuting_cases(), verify_qbinomial(3), verify_coproduct_hom()):
        assert report.passed, report.identity_id


def test_commuting_cases():
    assert verify_commuting_cases().passed


@pytest.mark.parametrize("build", [sl2_preset, sl3_preset, commuting_pair_preset])
@pytest.mark.parametrize("v", [V, V_TILDE], ids=["v", "w"])
def test_defining_relations_hold_in_preset(build, v):
    preset = build(v)
    for label, rel in _defining_relations(preset):
        assert rel.normal_order().is_zero(), (preset.name, label)


def test_defining_relations_read_off_cartan():
    labels = [label for label, _ in _defining_relations(SL3)]
    assert len(labels) == len(set(labels)) == 18
    assert {"K1E2", "K1F2", "K2E1", "K2F1", "serre E1^2E2", "serre F1^2F2",
            "serre E2^2E1", "serre F2^2F1"} <= set(labels)
    assert [label for label, _ in _defining_relations(SL2)] == [
        "K1K1i", "[E1,F1]", "K1E1", "K1F1"
    ]
    assert _defining_relations(qweyl_pair_preset()) == []
    pair = [label for label, _ in _vanishing_commutators(commuting_pair_preset())]
    assert pair == ["[E1,F2]", "[E1,E2]", "[F1,F2]", "[E2,F1]"]
    assert [label for label, _ in _vanishing_commutators(SL3)] == ["[E1,F2]", "[E2,F1]"]


def test_presets_derive_nodes_from_cartan():
    assert list(SL2.nodes) == [1]
    assert list(SL3.nodes) == list(commuting_pair_preset().nodes) == [1, 2]
    assert list(qweyl_pair_preset().nodes) == []
    # E12/F12 carry the weight of root 1 + root 2: K_i E12 = q^{a_i1 + a_i2} E12 K_i
    for i in (1, 2):
        K = gen(SL3, f"K{i}")
        E12, F12 = gen(SL3, "E12"), gen(SL3, "F12")
        assert (K * E12 - Q * (E12 * K)).normal_order().is_zero()
        assert (K * F12 - QI * (F12 * K)).normal_order().is_zero()


def test_qbinomial_explicit_n2():
    rep = verify_qbinomial(2)
    assert rep.passed
    # N = 2 coefficient of the mixed word is 1 + q^{-2}
    assert gauss_binomial(2, 1) == 1 + qpow(-2)


def test_qweyl_relation():
    W = qweyl_pair_preset()
    u, v = gen(W, "u"), gen(W, "v")
    assert ((v * u).normal_order() - (qpow(-2) * (u * v)).normal_order()).normal_order().is_zero()


def test_dual_variable_rerun():
    assert verify_kac(2, 2, V_TILDE).passed
    assert verify_serre_sum(2, 1, V_TILDE).passed
    assert verify_qbinomial(3, V_TILDE).passed
    # the dual run really is over a different symbol
    rep = verify_kac(1, 1, V_TILDE)
    assert rep.params["variable"] == "w"


# -------------------------------------------------------------- coproduct
def test_coproduct_on_generators():
    DK = coproduct(gen(SL2, "K1"))
    assert DK.terms == {(("K1",), ("K1",)): ONE}
    DE = coproduct(gen(SL2, "E1"))
    assert set(DE.terms) == {(("E1",), ()), (("K1i",), ("E1",))}
    DF = coproduct(gen(SL2, "F1"))
    assert set(DF.terms) == {((), ("F1",)), (("F1",), ("K1",))}


def test_coproduct_letter_rules():
    rules = {
        "E1": [(("E1",), ()), (("K1i",), ("E1",))],
        "E2": [(("E2",), ()), (("K2i",), ("E2",))],
        "F1": [((), ("F1",)), (("F1",), ("K1",))],
        "F2": [((), ("F2",)), (("F2",), ("K2",))],
        "K1": [(("K1",), ("K1",))],
        "K1i": [(("K1i",), ("K1i",))],
        "K2": [(("K2",), ("K2",))],
        "K2i": [(("K2i",), ("K2i",))],
    }
    for g, keys in rules.items():
        d = _coproduct_letter(SL3, g)
        assert (d.arity, d.terms) == (2, dict.fromkeys(keys, ONE)), g


def test_coproduct_undefined_letters_raise():
    for preset, g in (
        (SL3, "E12"), (SL3, "F12"), (SL2, "E2"), (qweyl_pair_preset(), "u")
    ):
        with pytest.raises(ValueError, match="coproduct is not defined"):
            _coproduct_letter(preset, g)


def test_mismatched_tensors_raise():
    d = coproduct(gen(SL2, "E1"))
    cases = [
        (d, coproduct_on_leg(d, 0)),      # arity 2 against arity 3
        (d, coproduct(gen(SL3, "E1"))),   # sl2 against sl3
        (d, gen(SL2, "E1")),              # tensor against polynomial
    ]
    for x, y in cases:
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ValueError):
                op(x, y)
            with pytest.raises(ValueError):
                op(y, x)


def test_coproduct_multiplicative():
    x = gen(SL2, "K1") * gen(SL2, "E1")
    direct = coproduct(x)
    composed = coproduct(gen(SL2, "K1")) * coproduct(gen(SL2, "E1"))
    assert (direct - composed).normal_order().is_zero()


def test_coassociativity_on_E():
    d = coproduct(gen(SL2, "E1"))
    left = coproduct_on_leg(d, 0)
    right = coproduct_on_leg(d, 1)
    assert (left - right).normal_order().is_zero()
    # explicit three-leg expansion
    words = set(left.normal_order().terms)
    assert words == {
        (("E1",), (), ()),
        (("K1i",), ("E1",), ()),
        (("K1i",), ("K1i",), ("E1",)),
    }


def test_coproduct_hom_check():
    assert verify_coproduct_hom().passed
