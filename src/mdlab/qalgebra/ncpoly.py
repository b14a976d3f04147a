"""Noncommutative polynomials with exact coefficients and normal ordering.

Words are tuples of generator names; a polynomial maps words to non-zero
coefficients in the field Q(i)(v) of its preset's variable (see
``coeffs``).  Each preset fixes an alphabet, a total normal order on it
(F-block, then K-block, then E-block) and a confluent set of adjacent-pair
rewrite rules; normal ordering rewrites the leftmost reducible pair until
none remains.  Field coefficients are reduced by construction, so two
polynomials are equal in the quotient algebra iff their normal forms have
the same terms.
"""

from __future__ import annotations

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


def _format_terms(terms: Mapping, show_word) -> str:
    if not terms:
        return "0"
    return " + ".join(f"({c.as_expr()})*{show_word(w)}" for w, c in sorted(terms.items()))


class NCPoly:
    """Finite linear combination of words over a preset's alphabet."""

    __slots__ = ("preset", "terms")

    def __init__(self, preset: AlgebraPreset, terms: Mapping[Word, object] | None = None):
        """Coefficients may be ints, sympy numbers or elements of the
        preset's field; each is coerced with ``canon``."""
        self.preset = preset
        self.terms: dict[Word, Coeff] = {}
        for w, c in (terms or {}).items():
            preset.validate_word(w)
            c = canon(c, preset.v)
            if not is_zero(c):
                self.terms[tuple(w)] = c

    # ------------------------------------------------------------------ basics
    @classmethod
    def zero(cls, preset: AlgebraPreset) -> "NCPoly":
        return cls(preset)

    @classmethod
    def one(cls, preset: AlgebraPreset) -> "NCPoly":
        return cls(preset, {(): 1})

    @classmethod
    def gen(cls, preset: AlgebraPreset, name: str, coeff: object = 1) -> "NCPoly":
        return cls(preset, {(name,): coeff})

    def _check_compatible(self, other: "NCPoly") -> None:
        if self.preset is not other.preset and self.preset != other.preset:
            raise ValueError("polynomials come from different presets")

    def __add__(self, other: "NCPoly") -> "NCPoly":
        self._check_compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_to(out, w, c)
        return NCPoly(self.preset, out)

    def __neg__(self) -> "NCPoly":
        return NCPoly(self.preset, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        return self + -other

    def __mul__(self, other: "NCPoly | Coeff | sp.Expr | int") -> "NCPoly":
        if isinstance(other, NCPoly):
            self._check_compatible(other)
            out: dict[Word, Coeff] = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    w = w1 + w2
                    _add_to(out, w, c1 * c2)
            return NCPoly(self.preset, out)
        coeff = canon(other, self.preset.v)
        return NCPoly(self.preset, {w: c * coeff for w, c in self.terms.items()})

    def __rmul__(self, other: "Coeff | sp.Expr | int") -> "NCPoly":
        return self * other

    def __pow__(self, n: int) -> "NCPoly":
        if n < 0:
            raise ValueError("negative powers are not defined on NCPoly")
        out = NCPoly.one(self.preset)
        for _ in range(n):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.terms.values())

    def __repr__(self) -> str:
        return _format_terms(self.terms, lambda w: "*".join(w) or "1")

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
class NCTensor:
    """Linear combination of tensor words (tuples of words, fixed arity)."""

    __slots__ = ("preset", "arity", "terms")

    def __init__(
        self,
        preset: AlgebraPreset,
        arity: int,
        terms: Mapping[tuple[Word, ...], object] | None = None,
    ):
        """Coefficients are coerced with ``canon``, as in NCPoly."""
        self.preset = preset
        self.arity = arity
        self.terms: dict[tuple[Word, ...], Coeff] = {}
        for tw, c in (terms or {}).items():
            if len(tw) != arity:
                raise ValueError("tensor word arity mismatch")
            c = canon(c, preset.v)
            if not is_zero(c):
                self.terms[tuple(tuple(w) for w in tw)] = c

    @classmethod
    def one(cls, preset: AlgebraPreset, arity: int) -> "NCTensor":
        return cls(preset, arity, {tuple(() for _ in range(arity)): 1})

    def __add__(self, other: "NCTensor") -> "NCTensor":
        out = dict(self.terms)
        for tw, c in other.terms.items():
            _add_to(out, tw, c)
        return NCTensor(self.preset, self.arity, out)

    def __neg__(self) -> "NCTensor":
        return NCTensor(self.preset, self.arity, {tw: -c for tw, c in self.terms.items()})

    def __sub__(self, other: "NCTensor") -> "NCTensor":
        return self + -other

    def __mul__(self, other: "NCTensor | Coeff | sp.Expr | int") -> "NCTensor":
        if isinstance(other, NCTensor):
            out: dict[tuple[Word, ...], Coeff] = {}
            for tw1, c1 in self.terms.items():
                for tw2, c2 in other.terms.items():
                    tw = tuple(w1 + w2 for w1, w2 in zip(tw1, tw2))
                    _add_to(out, tw, c1 * c2)
            return NCTensor(self.preset, self.arity, out)
        coeff = canon(other, self.preset.v)
        return NCTensor(
            self.preset, self.arity, {tw: c * coeff for tw, c in self.terms.items()}
        )

    def __rmul__(self, other: "Coeff | sp.Expr | int") -> "NCTensor":
        return self * other

    def __repr__(self) -> str:
        return _format_terms(
            self.terms, lambda tw: " (x) ".join("*".join(w) or "1" for w in tw)
        )

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

    def is_zero(self) -> bool:
        return all(is_zero(c) for c in self.terms.values())


_COPRODUCT_SHAPE = {
    # generator suffix -> list of (left letters, right letters) with coeff 1
    "E": [(("E",), ()), (("Ki",), ("E",))],
    "F": [((), ("F",)), (("F",), ("K",))],
    "K": [(("K",), ("K",))],
    "Ki": [(("Ki",), ("Ki",))],
}


def _coproduct_letter(preset: AlgebraPreset, g: str) -> NCTensor:
    if g.startswith("K"):
        node = g[1:].rstrip("i")
        kind = "Ki" if g.endswith("i") else "K"
    elif g[0] in ("E", "F") and g[1:] in ("1", "2"):
        node, kind = g[1:], g[0]
    else:
        raise ValueError(f"coproduct is not defined on {g!r}")
    terms: dict[tuple[Word, ...], int] = {}
    for left, right in _COPRODUCT_SHAPE[kind]:
        lw = tuple(f"{s[0]}{node}{'i' if s.endswith('i') else ''}" for s in left)
        rw = tuple(f"{s[0]}{node}{'i' if s.endswith('i') else ''}" for s in right)
        terms[(lw, rw)] = terms.get((lw, rw), 0) + 1
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
