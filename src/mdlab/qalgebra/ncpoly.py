"""Noncommutative polynomials and tensors with exact coefficients and
normal ordering.

Words are tuples of generator names.  A polynomial (``NCPoly``) maps words,
and a tensor (``NCTensor``) maps tuples of ``arity`` words, to non-zero
coefficients in the field Q(i)(v) of its preset's variable (see
``coeffs``).  Both share one linear-combination arithmetic, and a sum or
product of operands from different presets or of different arities raises
``ValueError``.  Each preset fixes an alphabet, a total normal order on it
(F-block, then K-block, then E-block) and a confluent set of adjacent-pair
rewrite rules; normal ordering rewrites the leftmost reducible pair until
none remains.  Field coefficients are reduced by construction, so two
polynomials are equal in the quotient algebra iff their normal forms have
the same terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import sympy as sp

from .coeffs import V, Coeff, canon, is_zero, qpow

Word = tuple[str, ...]
RuleBranch = tuple[Coeff, Word]


class RewriteError(RuntimeError):
    """Step budget exhausted or an unsupported adjacency was hit."""


@dataclass(frozen=True)
class AlgebraPreset:
    """Alphabet, normal order and rewrite rules of one quotient algebra."""

    name: str
    symbols: tuple[str, ...]
    rules: Mapping[tuple[str, str], tuple[RuleBranch, ...]]
    v: Coeff = V
    forbidden: frozenset[tuple[str, str]] = frozenset()

    def validate_word(self, word: Word) -> None:
        for g in word:
            if g not in self.symbols:
                raise ValueError(f"generator {g!r} not in preset {self.name}")


def _add_to(out: dict, key, c: Coeff) -> None:
    out[key] = out[key] + c if key in out else c


def _show_word(w: Word) -> str:
    return "*".join(w) or "1"


class _Combination:
    """Finite linear combination of keys with non-zero coefficients in the
    field of a preset's variable.

    A subclass fixes its keys (``_key``), how two keys multiply (``_join``),
    how a key prints (``_show``) and its space (``_space``): the leading
    constructor arguments, which both operands of every binary operation
    must share.
    """

    __slots__ = ("preset", "terms")

    def __init__(self, preset: AlgebraPreset, terms: Mapping | None = None):
        """Coefficients may be ints, sympy numbers or elements of the
        preset's field; each is coerced with ``canon``."""
        self.preset = preset
        self.terms: dict = {}
        for key, c in (terms or {}).items():
            key = self._key(key)
            c = canon(c, preset.v)
            if not is_zero(c):
                self.terms[key] = c

    def _like(self, terms: Mapping):
        return type(self)(*self._space(), terms)

    def _check_compatible(self, other: "_Combination") -> None:
        if type(other) is not type(self) or other._space() != self._space():
            raise ValueError("operands differ in type, preset or tensor arity")

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            _add_to(out, k, c)
        return self._like(out)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _Combination):
            self._check_compatible(other)
            out: dict = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    _add_to(out, self._join(k1, k2), c1 * c2)
            return self._like(out)
        coeff = canon(other, self.preset.v)
        return self._like({k: c * coeff for k, c in self.terms.items()})

    def __rmul__(self, other):
        return self * other

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c.as_expr()})*{self._show(k)}" for k, c in sorted(self.terms.items())
        )


class NCPoly(_Combination):
    """Finite linear combination of words over a preset's alphabet."""

    __slots__ = ()

    def _space(self) -> tuple:
        return (self.preset,)

    def _key(self, key: Word) -> Word:
        self.preset.validate_word(key)
        return tuple(key)

    _join = staticmethod(operator.add)
    _show = staticmethod(_show_word)

    @classmethod
    def zero(cls, preset: AlgebraPreset) -> "NCPoly":
        return cls(preset)

    @classmethod
    def one(cls, preset: AlgebraPreset) -> "NCPoly":
        return cls(preset, {(): 1})

    @classmethod
    def gen(cls, preset: AlgebraPreset, name: str, coeff: object = 1) -> "NCPoly":
        return cls(preset, {(name,): coeff})

    def __pow__(self, n: int) -> "NCPoly":
        if n < 0:
            raise ValueError("negative powers are not defined on NCPoly")
        out = NCPoly.one(self.preset)
        for _ in range(n):
            out = out * self
        return out

    # --------------------------------------------------------- normal ordering
    def _leftmost_reducible(self, word: Word) -> int | None:
        rules = self.preset.rules
        for i in range(len(word) - 1):
            pair = (word[i], word[i + 1])
            if pair in rules:
                return i
            if pair in self.preset.forbidden:
                raise RewriteError(
                    f"unsupported adjacency {pair} in preset {self.preset.name}"
                )
        return None

    def normal_order(self, max_steps: int = 2_000_000) -> "NCPoly":
        """Unique normal form; two polynomials are equal in the quotient
        algebra iff their normal forms coincide."""
        done: dict[Word, Coeff] = {}
        frontier = dict(self.terms)
        steps = 0
        while frontier:
            new: dict[Word, Coeff] = {}
            for word, coeff in frontier.items():
                i = self._leftmost_reducible(word)
                if i is None:
                    _add_to(done, word, coeff)
                    continue
                steps += 1
                if steps > max_steps:
                    raise RewriteError(
                        f"normal ordering exceeded {max_steps} rewrite steps; "
                        "rule set is likely broken"
                    )
                for c, repl in self.preset.rules[(word[i], word[i + 1])]:
                    w = word[:i] + repl + word[i + 2:]
                    _add_to(new, w, coeff * c)
            frontier = new
        return NCPoly(self.preset, done)


# ---------------------------------------------------------------- presets
def _commuting_block(
    v: Coeff, symbols: Iterable[str]
) -> dict[tuple[str, str], tuple[RuleBranch, ...]]:
    """Plain swaps restoring the listed order within a commuting block."""
    symbols = list(symbols)
    rules: dict[tuple[str, str], tuple[RuleBranch, ...]] = {}
    for i, a in enumerate(symbols):
        for b in symbols[:i]:
            rules[(a, b)] = ((canon(1, v), (b, a)),)
    return rules


def _node_rules(
    v: Coeff,
    cartan: Mapping[tuple[int, int], int],
    nodes: Sequence[int],
) -> dict[tuple[str, str], tuple[RuleBranch, ...]]:
    """Simple-generator rules shared by every preset built on Cartan data."""
    one = canon(1, v)
    qcomm = one / (qpow(1, v) - qpow(-1, v))
    rules: dict[tuple[str, str], tuple[RuleBranch, ...]] = {}
    for i in nodes:
        K, Ki = f"K{i}", f"K{i}i"
        rules[(K, Ki)] = ((one, ()),)
        rules[(Ki, K)] = ((one, ()),)
        for j in nodes:
            a = cartan[(i, j)]
            E, F = f"E{j}", f"F{j}"
            rules[(E, K)] = ((qpow(-a, v), (K, E)),)
            rules[(E, Ki)] = ((qpow(a, v), (Ki, E)),)
            rules[(K, F)] = ((qpow(-a, v), (F, K)),)
            rules[(Ki, F)] = ((qpow(a, v), (F, Ki)),)
            if i == j:
                rules[(E, F)] = (
                    (one, (F, E)),
                    (qcomm, (K,)),
                    (-qcomm, (Ki,)),
                )
            else:
                rules[(f"E{i}", F)] = ((one, (F, f"E{i}")),)
    return rules


def sl2_preset(v: Coeff = V) -> AlgebraPreset:
    symbols = ("F1", "K1", "K1i", "E1")
    rules = _node_rules(v, {(1, 1): 2}, (1,))
    return AlgebraPreset("sl2", symbols, rules, v=v)


def sl3_preset(v: Coeff = V) -> AlgebraPreset:
    """Rank-2 simply-laced preset with the non-simple root letters E12, F12.

    Straightening rules for the non-simple roots are derived from their
    definition plus the q-Serre relation (the q-Serre zero test in the
    suite re-validates them):

        E1*E2  = q * E2*E1 - i * q^{1/2} * E12
        E1*E12 = q^{-1} * E12*E1
        E12*E2 = q^{-1} * E2*E12

    and mirrored for F.  Adjacencies mixing E12/F12 with opposite-type
    simple generators have no straightening rule and raise.
    """
    q, qi = qpow(1, v), qpow(-1, v)
    minus_i_v = canon(-sp.I, v) * v
    cartan = {(1, 1): 2, (2, 2): 2, (1, 2): -1, (2, 1): -1}
    symbols = ("F2", "F12", "F1", "K1", "K1i", "K2", "K2i", "E2", "E12", "E1")
    rules = _commuting_block(v, ("K1", "K1i", "K2", "K2i"))
    rules.update(_node_rules(v, cartan, (1, 2)))
    # Non-simple root letters: K commutation picks up q^{a_i1 + a_i2} = q.
    for i in (1, 2):
        rules[("E12", f"K{i}")] = ((qi, (f"K{i}", "E12")),)
        rules[("E12", f"K{i}i")] = ((q, (f"K{i}i", "E12")),)
        rules[(f"K{i}", "F12")] = ((qi, ("F12", f"K{i}")),)
        rules[(f"K{i}i", "F12")] = ((q, ("F12", f"K{i}i")),)
    rules[("E1", "E2")] = ((q, ("E2", "E1")), (minus_i_v, ("E12",)))
    rules[("E1", "E12")] = ((qi, ("E12", "E1")),)
    rules[("E12", "E2")] = ((qi, ("E2", "E12")),)
    rules[("F1", "F2")] = ((q, ("F2", "F1")), (minus_i_v, ("F12",)))
    rules[("F1", "F12")] = ((qi, ("F12", "F1")),)
    rules[("F12", "F2")] = ((qi, ("F2", "F12")),)
    forbidden = frozenset(
        [("E12", "F1"), ("E12", "F2"), ("E12", "F12"), ("E1", "F12"), ("E2", "F12")]
    )
    return AlgebraPreset("sl3", symbols, rules, v=v, forbidden=forbidden)


def commuting_pair_preset(v: Coeff = V) -> AlgebraPreset:
    """Two nodes with zero Cartan pairing: all cross pairs commute."""
    one = canon(1, v)
    cartan = {(1, 1): 2, (2, 2): 2, (1, 2): 0, (2, 1): 0}
    symbols = ("F1", "F2", "K1", "K1i", "K2", "K2i", "E1", "E2")
    rules = _commuting_block(v, ("K1", "K1i", "K2", "K2i"))
    rules.update(_node_rules(v, cartan, (1, 2)))
    rules[("F2", "F1")] = ((one, ("F1", "F2")),)
    rules[("E2", "E1")] = ((one, ("E1", "E2")),)
    return AlgebraPreset("commuting_pair", symbols, rules, v=v)


def qweyl_pair_preset(v: Coeff = V) -> AlgebraPreset:
    """Two letters with u*v = q^2 * v*u, normal order u before v."""
    symbols = ("u", "v")
    rules = {("v", "u"): ((qpow(-2, v), ("u", "v")),)}
    return AlgebraPreset("qweyl_pair", symbols, rules, v=v)


def nonsimple_root_poly(preset: AlgebraPreset, kind: str) -> NCPoly:
    """The non-simple root letter expressed through simple generators:
    E12 = -i (q^{1/2} E2 E1 - q^{-1/2} E1 E2), likewise for F."""
    if kind not in ("E", "F"):
        raise ValueError("kind must be 'E' or 'F'")
    v = preset.v
    i = canon(sp.I, v)
    return NCPoly(
        preset,
        {
            (f"{kind}2", f"{kind}1"): -i * v,
            (f"{kind}1", f"{kind}2"): i / v,
        },
    )


def divided_power(preset: AlgebraPreset, name: str, n: int) -> NCPoly:
    """g^n scaled by prod(q - q^{-1}) / prod(q^k - q^{-k}), k = 1..n."""
    if n < 0:
        raise ValueError("divided power needs n >= 0")
    v = preset.v
    coeff = canon(1, v)
    for k in range(1, n + 1):
        coeff *= (qpow(1, v) - qpow(-1, v)) / (qpow(k, v) - qpow(-k, v))
    return NCPoly(preset, {tuple([name] * n): coeff})


# ---------------------------------------------------------------- tensors
class NCTensor(_Combination):
    """Linear combination of tensor words (tuples of ``arity`` words)."""

    __slots__ = ("arity",)

    def __init__(
        self,
        preset: AlgebraPreset,
        arity: int,
        terms: Mapping[tuple[Word, ...], object] | None = None,
    ):
        self.arity = arity
        super().__init__(preset, terms)

    def _space(self) -> tuple:
        return (self.preset, self.arity)

    def _key(self, key: tuple[Word, ...]) -> tuple[Word, ...]:
        if len(key) != self.arity:
            raise ValueError("tensor word arity mismatch")
        for w in key:
            self.preset.validate_word(w)
        return tuple(tuple(w) for w in key)

    @staticmethod
    def _join(k1: tuple[Word, ...], k2: tuple[Word, ...]) -> tuple[Word, ...]:
        return tuple(w1 + w2 for w1, w2 in zip(k1, k2))

    @staticmethod
    def _show(key: tuple[Word, ...]) -> str:
        return " (x) ".join(map(_show_word, key))

    @classmethod
    def one(cls, preset: AlgebraPreset, arity: int) -> "NCTensor":
        return cls(preset, arity, {tuple(() for _ in range(arity)): 1})

    def normal_order(self) -> "NCTensor":
        """Normal order every tensor leg independently."""
        out: dict[tuple[Word, ...], Coeff] = {}
        for tw, c in self.terms.items():
            pieces: list[tuple[tuple[Word, ...], Coeff]] = [((), c)]
            for leg_word in tw:
                nf = NCPoly(self.preset, {leg_word: 1}).normal_order()
                pieces = [
                    (prefix + (w,), cc * c2)
                    for prefix, cc in pieces
                    for w, c2 in nf.terms.items()
                ]
            for full, cc in pieces:
                _add_to(out, full, cc)
        return NCTensor(self.preset, self.arity, out)


def _coproduct_letter(preset: AlgebraPreset, g: str) -> NCTensor:
    """Delta(E_i) = E_i (x) 1 + K_i^{-1} (x) E_i, Delta(F_i) = 1 (x) F_i +
    F_i (x) K_i and Delta(K_i^{+-1}) = K_i^{+-1} (x) K_i^{+-1}, nodes 1, 2."""
    kind, node = g[:1], g[1:]
    if kind == "E" and node in ("1", "2"):
        terms = {((g,), ()): 1, ((f"K{node}i",), (g,)): 1}
    elif kind == "F" and node in ("1", "2"):
        terms = {((), (g,)): 1, ((g,), (f"K{node}",)): 1}
    elif kind == "K" and node in ("1", "1i", "2", "2i"):
        terms = {((g,), (g,)): 1}
    else:
        raise ValueError(f"coproduct is not defined on {g!r}")
    return NCTensor(preset, 2, terms)


def coproduct(x: NCPoly) -> NCTensor:
    """Standard coproduct, extended multiplicatively over words."""
    out = NCTensor(x.preset, 2)
    for word, c in x.terms.items():
        acc = NCTensor.one(x.preset, 2)
        for g in word:
            acc = acc * _coproduct_letter(x.preset, g)
        out = out + acc * c
    return out


def coproduct_on_leg(t: NCTensor, leg: int) -> NCTensor:
    """Apply the coproduct to one tensor leg, raising the arity by one."""
    out: dict[tuple[Word, ...], Coeff] = {}
    for tw, c in t.terms.items():
        inner = coproduct(NCPoly(t.preset, {tw[leg]: 1}))
        for (lw, rw), c2 in inner.terms.items():
            new_tw = tw[:leg] + (lw, rw) + tw[leg + 1:]
            _add_to(out, new_tw, c * c2)
    return NCTensor(t.preset, t.arity + 1, out)
