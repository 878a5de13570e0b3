"""Exact multivariate polynomials over Q and their quotient rings.

``QPoly`` holds arbitrary-precision rational coefficients keyed by exponent
tuples over a named variable list; binary operations align variable sets
automatically.  A quotient ring Q[..][x]/(x^n - tail) needs no class of its
own: its elements are ``QPoly``s, and ``QPoly.rewrite`` reduces a product to
the remainder of degree below n in x.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Sequence, Tuple, Union

Scalar = Union[int, Fraction]


def _frac(x: Scalar) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


_new = object.__new__
_set = object.__setattr__


class QPoly:
    """Multivariate polynomial with exact rational coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: Sequence[str], terms: Mapping[Tuple[int, ...], Scalar] = ()):
        vs = tuple(vars)
        cleaned: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in dict(terms).items():
            c = _frac(c)
            if c == 0:
                continue
            e = tuple(int(x) for x in exps)
            if len(e) != len(vs):
                raise ValueError("exponent tuple length mismatch")
            cleaned[e] = cleaned[e] + c if e in cleaned else c
        _fill_qpoly(self, vs, cleaned)

    @classmethod
    def _make(cls, vars: Tuple[str, ...], terms: Dict[Tuple[int, ...], Fraction]) -> "QPoly":
        """Trusted constructor for results computed inside this module:
        ``vars`` is a tuple of names and ``terms`` a fresh dict from exponent
        tuples of matching length to Fractions.  Only zero terms are dropped."""
        obj = _new(cls)
        _fill_qpoly(obj, vars, terms)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def const(cls, c: Scalar, vars: Sequence[str] = ()) -> "QPoly":
        vs = tuple(vars)
        return cls(vs, {tuple([0] * len(vs)): _frac(c)})

    @classmethod
    def var(cls, name: str, vars: Sequence[str] = None) -> "QPoly":
        vs = tuple(vars) if vars is not None else (name,)
        if name not in vs:
            raise ValueError(f"{name!r} not among {vs}")
        e = tuple(1 if v == name else 0 for v in vs)
        return cls(vs, {e: Fraction(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _aligned(self, other: "QPoly") -> Tuple["QPoly", "QPoly"]:
        if self.vars == other.vars:
            return self, other
        vs = tuple(sorted(set(self.vars) | set(other.vars)))
        return self.with_vars(vs), other.with_vars(vs)

    def with_vars(self, vs: Sequence[str]) -> "QPoly":
        vs = tuple(vs)
        if vs == self.vars:
            return self
        if any(v not in vs for v in self.vars):
            raise ValueError("cannot drop variables")
        idx = [vs.index(v) for v in self.vars]
        out: Dict[Tuple[int, ...], Fraction] = {}
        for exps, c in self.terms.items():
            e = [0] * len(vs)
            for i, x in zip(idx, exps):
                e[i] = x
            out[tuple(e)] = c
        return QPoly._make(vs, out)

    def _coerce(self, other) -> "QPoly":
        if isinstance(other, QPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return QPoly.const(other, self.vars)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar adds to the constant term
            out = dict(self.terms)
            e = (0,) * len(self.vars)
            out[e] = out[e] + other if e in out else _frac(other)
            return QPoly._make(self.vars, out)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._aligned(o)
        out = dict(a.terms)
        for e, c in b.terms.items():
            out[e] = out[e] + c if e in out else c
        return QPoly._make(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return QPoly._make(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = other if isinstance(other, (int, Fraction)) else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a scalar scales every coefficient
            return QPoly._make(self.vars, {e: c * other for e, c in self.terms.items()})
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._aligned(o)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(map(add, e1, e2))
                c = c1 * c2
                out[e] = out[e] + c if e in out else c
        return QPoly._make(a.vars, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                raise ZeroDivisionError
            return QPoly._make(self.vars, {e: v / c for e, v in self.terms.items()})
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = QPoly.const(1, self.vars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self._aligned(o)
        return a.terms == b.terms

    def degree(self, name: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def coefficient(self, name: str, power: int) -> "QPoly":
        """Coefficient of name**power, as a polynomial in the remaining vars."""
        i = self.vars.index(name)
        rest = tuple(v for j, v in enumerate(self.vars) if j != i)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i] == power:
                # e[i] is fixed, so the remaining exponents are distinct
                out[tuple(x for j, x in enumerate(e) if j != i)] = c
        return QPoly._make(rest, out)

    def derivative(self, name: str) -> "QPoly":
        i = self.vars.index(name)
        out: Dict[Tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return QPoly._make(self.vars, out)

    def rewrite(self, name: str, n: int, tail) -> "QPoly":
        """Remainder modulo name^n - tail: each name^e with e >= n becomes
        name^(e-n) * tail, repeated until no such term is left.  The tail (a
        QPoly or a scalar) must have degree below n in ``name``, which makes
        the rewriting terminate."""
        f, t = self._aligned(self._coerce(tail))
        i = f.vars.index(name)
        if n < 1 or t.degree(name) >= n:
            raise ValueError(f"cannot rewrite {name}^{n} as {t!r}")
        tail_terms = t.terms.items()
        terms = f.terms
        while any(e[i] >= n for e in terms):
            out: Dict[Tuple[int, ...], Fraction] = {}
            for e, c in terms.items():
                if e[i] < n:
                    out[e] = out[e] + c if e in out else c
                    continue
                low = e[:i] + (e[i] - n,) + e[i + 1:]
                for te, tc in tail_terms:
                    ne = tuple(map(add, low, te))
                    out[ne] = out[ne] + c * tc if ne in out else c * tc
            terms = {e: c for e, c in out.items() if c}
        return QPoly._make(f.vars, terms)

    def eval_scalar(self, **assignments: Scalar) -> Fraction:
        acc = Fraction(0)
        for e, c in self.terms.items():
            term = c
            for v, x in zip(self.vars, e):
                term *= _frac(assignments[v]) ** x
            acc += term
        return acc

    def eval_mod(self, p: int, **assignments: int) -> int:
        """Evaluate at integer points mod p; rational coefficients are reduced
        via modular inverse of their denominators, and a denominator that p
        divides raises ``ZeroDivisionError``."""
        acc = 0
        for e, c in self.terms.items():
            if c.denominator % p == 0:
                raise ZeroDivisionError(f"coefficient {c} has no value mod {p}")
            t = c.numerator % p * pow(c.denominator, -1, p) % p
            for v, x in zip(self.vars, e):
                t = t * pow(assignments[v] % p, x, p) % p
            acc = (acc + t) % p
        return acc

    def __repr__(self):
        if not self.terms:
            return "QPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"{v}^{x}" if x > 1 else v for v, x in zip(self.vars, e) if x
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return "QPoly(" + " + ".join(bits) + ")"


def _fill_qpoly(obj: QPoly, vs: Tuple[str, ...], terms: Dict[Tuple[int, ...], Fraction]) -> None:
    _set(obj, "vars", vs)
    _set(obj, "terms", {e: c for e, c in terms.items() if c})


def falling(x: QPoly, m: int) -> QPoly:
    """Falling factorial x(x-1)...(x-m+1); empty product for m = 0."""
    if m < 0:
        raise ValueError("falling factorial needs m >= 0")
    acc = QPoly.const(1, x.vars)
    for i in range(m):
        acc = acc * (x - i)
    return acc
