"""Polynomial phase-space symbols: star product, brackets, Gaussian pairing.

Coefficients are kept as exact rational complex numbers internally (floats
convert exactly, every float being a dyadic rational), so products and
brackets are exact and questions like "at which power of hbar do two
expansions first differ" have exact integer answers instead of
tolerance-dependent ones.

Sign convention: the symplectic form has omega^{qp} = +1, which fixes
{q, p} = +1 for both brackets and star(q, p) = qp + i*hbar/2.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Union

Number = Union[int, float, complex, Fraction]


@dataclass(frozen=True)
class _RC:
    """Exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def from_number(v) -> "_RC":
        if isinstance(v, _RC):
            return v
        if isinstance(v, complex):
            return _RC(Fraction(v.real), Fraction(v.imag))
        return _RC(Fraction(v))

    # the real-only branches skip Fraction arithmetic on zero imaginary
    # parts, which most coefficients of real polynomials have
    def __add__(self, o: "_RC") -> "_RC":
        if not (self.im or o.im):
            return _RC(self.re + o.re)
        return _RC(self.re + o.re, self.im + o.im)

    def __mul__(self, o: "_RC") -> "_RC":
        if not (self.im or o.im):
            return _RC(self.re * o.re)
        return _RC(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __neg__(self) -> "_RC":
        return _RC(-self.re, -self.im)

    def scale(self, fr: Fraction) -> "_RC":
        if not self.im:
            return _RC(self.re * fr)
        return _RC(self.re * fr, self.im * fr)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# i^k as an _RC, k mod 4
_I_POWERS = (_RC(Fraction(1)), _RC(Fraction(0), Fraction(1)),
             _RC(Fraction(-1)), _RC(Fraction(0), Fraction(-1)))


class PolySymbol:
    """Sparse bivariate polynomial sum of c_ab q^a p^b with an hbar tag.

    hbar >= 0 is accepted at construction so the hbar -> 0 contraction can
    be expressed directly; operations that genuinely need hbar > 0 (the
    Moyal bracket) check for it themselves.
    """

    __slots__ = ("_terms", "_hbar")

    def __init__(self, terms=None, hbar: float = 1.0):
        hbar = float(hbar)
        if not math.isfinite(hbar) or hbar < 0.0:
            raise ValueError("hbar must be finite and nonnegative")
        clean: dict[tuple[int, int], _RC] = {}
        for (a, b), c in (terms or {}).items():
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise ValueError("exponents must be nonnegative")
            rc = _RC.from_number(c)
            if not rc.is_zero:
                # accumulate in case the caller passed duplicate-ish keys
                prev = clean.get((a, b))
                clean[(a, b)] = rc if prev is None else prev + rc
        self._terms = {k: v for k, v in clean.items() if not v.is_zero}
        self._hbar = hbar

    # --- constructors -------------------------------------------------------

    @classmethod
    def monomial(cls, a: int, b: int, coeff: Number = 1, hbar: float = 1.0) -> "PolySymbol":
        return cls({(a, b): coeff}, hbar)

    @classmethod
    def q(cls, hbar: float = 1.0) -> "PolySymbol":
        return cls.monomial(1, 0, 1, hbar)

    @classmethod
    def p(cls, hbar: float = 1.0) -> "PolySymbol":
        return cls.monomial(0, 1, 1, hbar)

    @classmethod
    def constant(cls, c: Number, hbar: float = 1.0) -> "PolySymbol":
        return cls.monomial(0, 0, c, hbar)

    # --- views --------------------------------------------------------------

    @property
    def hbar(self) -> float:
        return self._hbar

    @property
    def terms(self) -> dict[tuple[int, int], complex]:
        """Exponent pair -> complex coefficient (a float view of exact data)."""
        return {k: v.to_complex() for k, v in self._terms.items()}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((a + b for a, b in self._terms), default=-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolySymbol):
            return NotImplemented
        return self._hbar == other._hbar and self._terms == other._terms

    __hash__ = None

    def __repr__(self) -> str:
        return f"PolySymbol({self.to_text()!r}, hbar={self._hbar!r})"

    # --- algebra ------------------------------------------------------------

    def _binary(self, other: "PolySymbol") -> None:
        if not isinstance(other, PolySymbol):
            raise TypeError("expected a PolySymbol")
        if other._hbar != self._hbar:
            raise ValueError(
                f"operands carry different hbar: {self._hbar} vs {other._hbar}")

    def __add__(self, other: "PolySymbol") -> "PolySymbol":
        self._binary(other)
        acc = dict(self._terms)
        for k, v in other._terms.items():
            acc[k] = acc[k] + v if k in acc else v
        return self._wrap(acc)

    def __sub__(self, other: "PolySymbol") -> "PolySymbol":
        return self + (-other)

    def __neg__(self) -> "PolySymbol":
        return self._wrap({k: -v for k, v in self._terms.items()})

    def __mul__(self, other) -> "PolySymbol":
        if isinstance(other, PolySymbol):
            self._binary(other)
            acc: dict[tuple[int, int], _RC] = {}
            for (a1, b1), c1 in self._terms.items():
                for (a2, b2), c2 in other._terms.items():
                    k = (a1 + a2, b1 + b2)
                    acc[k] = acc[k] + c1 * c2 if k in acc else c1 * c2
            return self._wrap(acc)
        rc = _RC.from_number(other)
        return self._wrap({k: v * rc for k, v in self._terms.items()})

    __rmul__ = __mul__

    def _wrap(self, raw: dict) -> "PolySymbol":
        out = PolySymbol.__new__(PolySymbol)
        out._terms = {k: v for k, v in raw.items() if not v.is_zero}
        out._hbar = self._hbar
        return out

    def diff(self, dq: int, dp: int) -> "PolySymbol":
        """Partial derivative d^dq/dq^dq d^dp/dp^dp, exact."""
        acc = {}
        for (a, b), c in self._terms.items():
            if a < dq or b < dp:
                continue
            fall = Fraction(factorial(a) // factorial(a - dq)
                            * (factorial(b) // factorial(b - dp)))
            acc[(a - dq, b - dp)] = c.scale(fall)
        return self._wrap(acc)

    # --- canonical text form ------------------------------------------------

    def to_text(self) -> str:
        """Canonical form "c * q^a p^b + ..." in descending grlex order."""
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda ab: (-(ab[0] + ab[1]), -ab[0]))
        return " + ".join(f"{_format_coeff(self._terms[k])} * q^{k[0]} p^{k[1]}"
                          for k in keys)

    _TERM_RE = re.compile(r"^(?P<c>.+?) \* q\^(?P<a>\d+) p\^(?P<b>\d+)$")

    @classmethod
    def from_text(cls, text: str, hbar: float = 1.0) -> "PolySymbol":
        text = text.strip()
        if text == "0":
            return cls({}, hbar)
        acc = {}
        for part in text.split(" + "):
            m = cls._TERM_RE.match(part.strip())
            if m is None:
                raise ValueError(f"unparseable symbol term {part!r}")
            key = (int(m.group("a")), int(m.group("b")))
            acc[key] = acc.get(key, _RC()) + _parse_coeff(m.group("c"))
        return cls(acc, hbar)


def _format_coeff(rc: _RC) -> str:
    if rc.im == 0:
        return str(rc.re)
    if rc.re == 0:
        return f"{rc.im}j"
    sign = "+" if rc.im > 0 else "-"
    return f"({rc.re}{sign}{abs(rc.im)}j)"


_COMPLEX_RE = re.compile(
    r"^\((?P<re>-?[0-9]+(?:/[0-9]+)?)(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)j\)$")


def _parse_coeff(text: str) -> _RC:
    text = text.strip()
    m = _COMPLEX_RE.match(text)
    if m is not None:
        im = Fraction(m.group("im"))
        return _RC(Fraction(m.group("re")),
                   im if m.group("sign") == "+" else -im)
    if text.endswith("j"):
        return _RC(Fraction(0), Fraction(text[:-1]))
    return _RC(Fraction(text))


# --- bidifferential series --------------------------------------------------

def _bidiff_term(f: PolySymbol, g: PolySymbol, k: int) -> PolySymbol:
    """Order-k term of the star series:
    sum_j (-1)^j C(k,j) (d_q^{k-j} d_p^j f)(d_p^{k-j} d_q^j g)."""
    total = f._wrap({})
    for j in range(k + 1):
        df = f.diff(k - j, j)
        if df.is_zero:
            continue
        dg = g.diff(j, k - j)
        if dg.is_zero:
            continue
        term = df * dg * (comb(k, j) * (-1) ** j)
        total = total + term
    return total


def star_product(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """Noncommutative product: sum_k (i hbar / 2)^k / k! times the order-k
    bidifferential term.  Terminates at min(deg f, deg g); equals fg at
    hbar = 0."""
    f._binary(g)
    hbar = Fraction(f.hbar)
    total = f._wrap({})
    for k in range(min(f.degree, g.degree) + 1):
        term = _bidiff_term(f, g, k)
        if term.is_zero:
            continue
        factor = _I_POWERS[k % 4].scale(hbar ** k / (2 ** k * factorial(k)))
        total = total + term * factor
    return total


def poisson_bracket(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """df/dq dg/dp - df/dp dg/dq."""
    f._binary(g)
    return _bidiff_term(f, g, 1)


def moyal_bracket(f: PolySymbol, g: PolySymbol) -> PolySymbol:
    """(f star g - g star f) / (i hbar), exactly: the difference times the
    exact rational -i / hbar.  Needs hbar > 0, where the quotient is defined.
    """
    f._binary(g)
    if f.hbar == 0.0:
        raise ValueError("the Moyal bracket needs hbar > 0")
    commutator = star_product(f, g) - star_product(g, f)
    return commutator * _RC(im=-1 / Fraction(f.hbar))


def hbar_expansion_check(f: PolySymbol, g: PolySymbol):
    """Lowest powers of hbar in (f star g - fg) and in (Moyal - Poisson).

    hbar is treated as a formal parameter: the answer is the order of the
    first nonvanishing series term, found exactly, with math.inf meaning the
    defect is identically zero.  The star defect is the first nonzero
    bidifferential order k >= 1; the Moyal bracket keeps the odd orders k
    at hbar^(k-1), so its defect is the first nonzero odd k >= 3, less 1.
    By construction the first value is >= 1 and the second >= 2.
    """
    f._binary(g)
    if f.is_constant or g.is_constant:
        raise ValueError("expansion orders are only meaningful for nonconstant symbols")
    kmax = min(f.degree, g.degree)

    def first_nonzero(orders):
        return next((k for k in orders if not _bidiff_term(f, g, k).is_zero),
                    math.inf)

    return (first_nonzero(range(1, kmax + 1)),
            first_nonzero(range(3, kmax + 1, 2)) - 1)


# --- Gaussian pairing -------------------------------------------------------

@dataclass(frozen=True)
class CoherentState:
    """Phase-space weight exp(-((q-q0)^2 + (p-p0)^2)/hbar) / (pi hbar).

    Both marginals are Gaussian with variance hbar/2; the weight integrates
    to 1, which is what makes pairing(state, 1) an exact identity.
    """

    q0: float
    p0: float
    hbar: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar) and self.hbar > 0.0):
            raise ValueError("the Gaussian weight is normalizable only for hbar > 0")


def _odd_double_factorial(j: int) -> int:
    # (j-1)!! for even j: product of odd numbers below j; empty product is 1
    return math.prod(range(1, j, 2))


def _gauss_moment(mu: Fraction, var: Fraction, a: int) -> Fraction:
    """E[(mu + X)^a] for centered Gaussian X with variance var, exact."""
    return sum((comb(a, j) * _odd_double_factorial(j) * var ** (j // 2)
                * mu ** (a - j) for j in range(0, a + 1, 2)), Fraction(0))


def pairing(state: CoherentState, obs: PolySymbol) -> complex:
    """Phase-space expectation of a polynomial observable in the state.

    Evaluated in closed form through Gaussian moments, all in exact rational
    arithmetic; only the final result is rounded to a complex float.
    """
    if obs.hbar != state.hbar:
        raise ValueError(
            f"state and observable carry different hbar: {state.hbar} vs {obs.hbar}")
    var = Fraction(state.hbar) / 2
    muq = Fraction(state.q0)
    mup = Fraction(state.p0)
    total = _RC()
    for (a, b), rc in obs._terms.items():
        total = total + rc.scale(_gauss_moment(muq, var, a)
                                 * _gauss_moment(mup, var, b))
    return total.to_complex()
