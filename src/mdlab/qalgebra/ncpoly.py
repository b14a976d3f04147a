"""Noncommutative polynomials and tensors with exact coefficients and
normal ordering.

Words are tuples of generator names.  A polynomial (``NCPoly``) maps words,
and a tensor (``NCTensor``) maps tuples of ``arity`` words, to non-zero
coefficients in the field of its preset's variable, ZZ(v) (see ``coeffs``).
Both share one linear-combination arithmetic, and a sum or product of
operands from different presets or of different arities raises
``ValueError``.  Each preset fixes an alphabet, a total normal order on it
(F-block, then K-block, then E-block) and a confluent set of adjacent-pair
rewrite rules; normal ordering rewrites the leftmost reducible pair until
none remains.  A quantum-group preset also holds its Cartan matrix, which
fixes the rules of its simple generators and the letters on which the
coproduct is defined.  Field coefficients are reduced by construction, so
two polynomials are equal in the quotient algebra iff their normal forms
have the same terms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping

from .coeffs import V, Coeff, canon, is_zero, qpow

Word = tuple[str, ...]
RuleBranch = tuple[Coeff, Word]
Rules = dict[tuple[str, str], tuple[RuleBranch, ...]]
Cartan = tuple[tuple[int, ...], ...]


class RewriteError(RuntimeError):
    """Step budget exhausted or an unsupported adjacency was hit."""


@dataclass(frozen=True)
class AlgebraPreset:
    """Alphabet, normal order and rewrite rules of one quotient algebra, and
    the Cartan matrix a_ij of its nodes 1..n (row i, column j; empty if it
    has none), whose simple generators are E_i, F_i, K_i, K_i^{-1}."""

    name: str
    symbols: tuple[str, ...]
    rules: Mapping[tuple[str, str], tuple[RuleBranch, ...]]
    cartan: Cartan = ()
    v: Coeff = V
    forbidden: frozenset[tuple[str, str]] = frozenset()

    @property
    def nodes(self) -> range:
        return range(1, len(self.cartan) + 1)

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
def _letters(i: int) -> tuple[str, str, str, str]:
    """Names of the simple generators E_i, F_i, K_i, K_i^{-1} of node i."""
    return f"E{i}", f"F{i}", f"K{i}", f"K{i}i"


def _weight_rules(v: Coeff, i: int, a: int, E: str, F: str) -> Rules:
    """K_i E = q^a E K_i and K_i F = q^{-a} F K_i, as rules moving K_i^{+-1}
    left of E and right of F."""
    _, _, K, Ki = _letters(i)
    return {
        (E, K): ((qpow(-a, v), (K, E)),),
        (E, Ki): ((qpow(a, v), (Ki, E)),),
        (K, F): ((qpow(-a, v), (F, K)),),
        (Ki, F): ((qpow(a, v), (F, Ki)),),
    }


def _cartan_rules(v: Coeff, cartan: Cartan) -> Rules:
    """The rules a Cartan matrix fixes on the simple generators of its nodes
    1..n: the K-block commutes and K_i K_i^{-1} = 1, K_i E_j = q^{a_ij} E_j K_i
    and K_i F_j = q^{-a_ij} F_j K_i, [E_i, F_j] = delta_ij (K_i - K_i^{-1}) /
    (q - q^{-1}), and E_j E_i -> E_i E_j, F_j F_i -> F_i F_j for i < j with
    a_ij = 0.  The normal order puts the K-block in node order."""
    one = canon(1, v)
    qcomm = one / (qpow(1, v) - qpow(-1, v))
    nodes = range(1, len(cartan) + 1)
    ks = [k for i in nodes for k in _letters(i)[2:]]
    rules = {(a, b): ((one, (b, a)),) for n, a in enumerate(ks) for b in ks[:n]}
    for i in nodes:
        Ei, Fi, K, Ki = _letters(i)
        rules[(K, Ki)] = rules[(Ki, K)] = ((one, ()),)
        rules[(Ei, Fi)] = ((one, (Fi, Ei)), (qcomm, (K,)), (-qcomm, (Ki,)))
        for j in nodes:
            Ej, Fj, _, _ = _letters(j)
            rules.update(_weight_rules(v, i, cartan[i - 1][j - 1], Ej, Fj))
            if i != j:
                rules[(Ei, Fj)] = ((one, (Fj, Ei)),)
            if i < j and cartan[i - 1][j - 1] == 0:
                rules[(Ej, Ei)] = ((one, (Ei, Ej)),)
                rules[(Fj, Fi)] = ((one, (Fi, Fj)),)
    return rules


def sl2_preset(v: Coeff = V) -> AlgebraPreset:
    cartan = ((2,),)
    symbols = ("F1", "K1", "K1i", "E1")
    return AlgebraPreset("sl2", symbols, _cartan_rules(v, cartan), cartan, v=v)


def sl3_preset(v: Coeff = V) -> AlgebraPreset:
    """Rank-2 simply-laced preset with the non-simple root letters E12, F12.

    The root letter is E12 = q^{-1/2} E1*E2 - q^{1/2} E2*E1, which is -i
    times the paper's E12 = -i(q^{1/2} E2*E1 - q^{-1/2} E1*E2), so its rules
    lie in ZZ(v).  They follow from this definition plus the q-Serre
    relation (the q-Serre zero test in the suite re-validates them):

        E1*E2  = q * E2*E1 + q^{1/2} * E12
        E1*E12 = q^{-1} * E12*E1
        E12*E2 = q^{-1} * E2*E12

    and mirrored for F.  E12 and F12 carry the weight of root 1 + root 2, so
    K_i E12 = q^{a_i1 + a_i2} E12 K_i.  Adjacencies mixing E12/F12 with
    opposite-type simple generators have no straightening rule and raise.
    """
    q, qi = qpow(1, v), qpow(-1, v)
    cartan = ((2, -1), (-1, 2))
    symbols = ("F2", "F12", "F1", "K1", "K1i", "K2", "K2i", "E2", "E12", "E1")
    rules = _cartan_rules(v, cartan)
    for i, row in enumerate(cartan, 1):
        rules.update(_weight_rules(v, i, sum(row), "E12", "F12"))
    rules[("E1", "E2")] = ((q, ("E2", "E1")), (v, ("E12",)))
    rules[("E1", "E12")] = ((qi, ("E12", "E1")),)
    rules[("E12", "E2")] = ((qi, ("E2", "E12")),)
    rules[("F1", "F2")] = ((q, ("F2", "F1")), (v, ("F12",)))
    rules[("F1", "F12")] = ((qi, ("F12", "F1")),)
    rules[("F12", "F2")] = ((qi, ("F2", "F12")),)
    forbidden = frozenset(
        [("E12", "F1"), ("E12", "F2"), ("E12", "F12"), ("E1", "F12"), ("E2", "F12")]
    )
    return AlgebraPreset("sl3", symbols, rules, cartan, v=v, forbidden=forbidden)


def commuting_pair_preset(v: Coeff = V) -> AlgebraPreset:
    """Two nodes with zero Cartan pairing: all cross pairs commute."""
    cartan = ((2, 0), (0, 2))
    symbols = ("F1", "F2", "K1", "K1i", "K2", "K2i", "E1", "E2")
    rules = _cartan_rules(v, cartan)
    return AlgebraPreset("commuting_pair", symbols, rules, cartan, v=v)


def qweyl_pair_preset(v: Coeff = V) -> AlgebraPreset:
    """Two letters with u*v = q^2 * v*u, normal order u before v."""
    symbols = ("u", "v")
    rules = {("v", "u"): ((qpow(-2, v), ("u", "v")),)}
    return AlgebraPreset("qweyl_pair", symbols, rules, v=v)


def nonsimple_root_poly(preset: AlgebraPreset, kind: str) -> NCPoly:
    """The non-simple root letter expressed through simple generators:
    E12 = q^{-1/2} E1 E2 - q^{1/2} E2 E1, likewise for F (see sl3_preset)."""
    if kind not in ("E", "F"):
        raise ValueError("kind must be 'E' or 'F'")
    v = preset.v
    return NCPoly(preset, {(f"{kind}1", f"{kind}2"): 1 / v, (f"{kind}2", f"{kind}1"): -v})


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
    F_i (x) K_i and Delta(K_i^{+-1}) = K_i^{+-1} (x) K_i^{+-1}, for the
    simple generators of the preset's nodes."""
    for i in preset.nodes:
        E, F, K, Ki = _letters(i)
        letters = {
            E: {((E,), ()): 1, ((Ki,), (E,)): 1},
            F: {((), (F,)): 1, ((F,), (K,)): 1},
            K: {((K,), (K,)): 1},
            Ki: {((Ki,), (Ki,)): 1},
        }
        if g in letters:
            return NCTensor(preset, 2, letters[g])
    raise ValueError(f"coproduct is not defined on {g!r}")


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
