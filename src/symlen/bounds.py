"""Upper bounds for symbol length from square class invariants.

Every bound here is a pure function of the invariant profile of a scheme
(dimension d, realness, level, Pythagoras number p, the tower sizes q_k,
the two-element invariants s_m and the quotient dimensions d_m), and each
helper takes the profile and integer indices alone: it reads s, the parity
of p, the level exponent and realness off the profile.  The s entering the
case splits is the Kaplansky exponent with 2^s <= p < 2^{s+1}; summation
limits that depend on the level of a nonreal scheme use the level exponent
instead.  Exponents in the closed-form stratum caps can be negative
on small profiles, so a sum of powers of two is floored once at the end,
exactly, by carrying from the smallest exponent up.

Since the bounds depend on nothing else, profile_bounds evaluates the six
report rows and the per-stratum caps once per (profile, n) and memoizes
them in builders._CACHE, keyed by the frozen InvariantProfile itself and n.
Bound reports and decomposition certificates read that record, so schemes
with equal profiles share it, and clearing the cache clears it too.

Two closed-form displays are implemented in a corrected form; the shipped
formulas are the ones the underlying counting argument actually supports,
and both corrections are observable on small schemes:

* The per-stratum cap obtained by chaining the tower inequalities
  q_k >= 2^{s+1-k} uses the drop m(2s-m+1)/2 (plus the s_m term where the
  level makes it available).  The variant with m(2s+m+3)/2 would assert
  d_1 <= -1 on the 2-dimensional dyadic Laurent model, whose d_1 is 1.
* Stratum caps count slot choices modulo the value group D(2^m) itself,
  whose codimension is d_m plus the two-element s_m term.  With d_m alone
  the stratum-1 cap in degree 2 would be 4 on the twice-iterated Laurent
  extension of a real closed base, where six classes exist (the lines of
  a three-dimensional quotient minus the line of -1).
* The paired binomial bound counts the all-ones stratum as one extra
  summand when the degree n is even.  Dropping it (a binomial with lower
  index -1) would give the bound 0 in degree 2 over a real closed base,
  where the form <<1,1>> needs one symbol.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from . import builders
from .errors import InvalidCase, VerificationFailure
from .f2space import gaussian_count

BOUND_NOTES = (
    "stratum cap exponents use the tower drop m(2s-m+1)/2 with the level-aware s_m term",
    "paired bound adds the all-ones stratum term when the degree is even",
    "base-change comparison for the linked cap holds for one-dimensional cofactors only",
)


def kaplansky_s(p: int) -> int:
    """The exponent s with 2^s <= p < 2^{s+1}."""
    if p < 1:
        raise InvalidCase("pythagoras number must be positive, got %d" % p)
    return p.bit_length() - 1


def floor_pow2_sum(exponents: list[int]) -> int:
    """floor of the sum of 2^e over the exponents, exactly.

    The negative exponents are carried from the smallest up, the carry
    floored at each step: floor((k + y) / 2) = floor((k + floor(y)) / 2)
    for an integer k, so no fraction (nor 2^-e) is ever built.
    """
    neg = sorted(e for e in exponents if e < 0)
    carry = 0
    for lo, hi in zip(neg, neg[1:] + [0]):
        carry = (carry + 1) >> (hi - lo)
    return carry + sum(1 << e for e in exponents if e >= 0)


def _sm_exponent(profile, m: int) -> int:
    """log2 of the index of D(2^m) in its plus-minus closure."""
    return 1 if profile.is_real or m < profile.level_exponent else 0


def dm_estimate_for_profile(profile, m: int) -> int:
    """Case-split upper bound for d_m from the square-sum tower sizes.

    The drop through degree m is sum_{k<=m}(s+1-k) = m(2s-m+1)/2 plus the
    s_m contribution.  Beyond m = s the tower is stationary; a real scheme
    whose Pythagoras number is not a power of two gains one further factor
    of two at degree s+1.  The nonreal value for m > s is exactly 0.
    """
    p = profile.pythagoras
    s = kaplansky_s(p)
    if m <= s:
        return profile.d - m * (2 * s - m + 1) // 2 - _sm_exponent(profile, m)
    if not profile.is_real:
        return 0
    return profile.d - s * (s + 1) // 2 - (1 if p & (p - 1) == 0 else 2)


def bound_strata_count(profile, n: int, m: int) -> int:
    """Upper bound for the number of anisotropic classes in stratum m.

    A stratum-m form is 2^m times an (n-m)-fold Pfister form, and single
    slots absorb exactly the value group D(2^m), not its plus-minus
    closure.  The relevant codimension is therefore d_m plus the two
    element term; with the smaller d_m alone the cap would be 4 on the
    twice-iterated Laurent extension of a real closed base at n = 2,
    m = 1, where six classes exist (the lines of a three-dimensional
    quotient minus the line of -1).
    """
    if not 0 <= m <= n:
        raise InvalidCase("stratum index %d outside [0, %d]" % (m, n))
    if not profile.is_real and m > profile.level_exponent:
        return 0
    codim = profile.d_m(m) + _sm_exponent(profile, m)
    return floor_pow2_sum([(n - m) * (codim - n + m + 1)])


def bound_sl_exponential(profile, n: int) -> int:
    """Symbol length bound by summing power-of-two stratum caps.

    Each cap uses the estimate of d_m.  A nonreal scheme stops at m = s, at
    least its level exponent, above which the strata are empty.
    """
    s = kaplansky_s(profile.pythagoras)
    top = n if profile.is_real else min(s, n)
    return floor_pow2_sum([(n - m) * (dm_estimate_for_profile(profile, m) - n + m + 1)
                           for m in range(top + 1)])


def bound_sl_linked(profile, n: int, use_exact_subspace_count=False) -> int:
    """Symbol length bound from linkage, one summand per stratum.

    Any two distinct stratum-m forms whose slot spans fit in a common
    (n-m+1)-dimensional subspace are linked and merge into one summand, so
    the stratum needs at most one form per such subspace, and each subspace
    is counted once per (n-m)-dimensional hyperplane of it.  A nonreal
    scheme stops at m = s, as the exponential bound does.

    Stratum m adds 1 when n - m >= d_m - 1, else floor(2^((n-m+1)k) /
    (2^k - 1)) with k = d - n + m: at n = 2, laurent^5(QC) gets 73 + 1 = 74
    and laurent^4(RC) gets 73 + 17 + 1 = 91.  The frozen payload text
    "min(1, floor(...))" of linked-power misstates both cases.
    """
    d = profile.d
    top = n if profile.is_real else min(kaplansky_s(profile.pythagoras), n)
    total = 0
    for m in range(top + 1):
        if n - m >= profile.d_m(m) - 1:
            total += 1
            continue
        # d_m <= d, so n - m < d_m - 1 leaves k = d - n + m >= 2
        k = d - n + m
        if use_exact_subspace_count:
            numerator = gaussian_count(d, n - m + 1)
        else:
            numerator = 1 << ((n - m + 1) * k)
        total += numerator // ((1 << k) - 1)
    return total


def _comb0(a: int, b: int) -> int:
    return math.comb(a, b) if b >= 0 else 0


def _nonreal_top(profile, n: int) -> int:
    if profile.is_real:
        return n
    return min(profile.level_exponent, n)


def bound_sl_binomial(profile, n: int) -> int:
    """Choices of slot sets from a nested basis, one summand per stratum."""
    return sum(
        _comb0(profile.d_m(m), n - m) for m in range(_nonreal_top(profile, n) + 1)
    )


def bound_sl_paired(profile, n: int) -> int:
    """Binomial bound with adjacent strata merged through a shared slot.

    Strata 2m and 2m+1 share the count of (n-2m-1)-subsets of the level-2m
    basis.  When n is even the final pair degenerates to the single
    all-ones form, which contributes one summand, not a binomial with a
    negative lower index.
    """
    top = _nonreal_top(profile, n) // 2
    total = 0
    for m in range(top + 1):
        if n - 2 * m - 1 >= 0:
            total += _comb0(profile.d_m(2 * m), n - 2 * m - 1)
        else:
            total += 1
    return total


def split_basis_term(d_m: int, j: int) -> int:
    """Number of j-subsets of a basis split into halves, even on one side.

    The terms with 2r > d_m // 2 are 0, so r stops there as well as at j // 2.
    """
    return sum(
        math.comb(d_m // 2, 2 * r) * _comb0((d_m + 1) // 2, j - 2 * r)
        for r in range(min(j, d_m // 2) // 2 + 1)
    )


def bound_sl_split_basis(profile, n: int) -> int:
    return sum(split_basis_term(profile.d_m(m), n - m - 1)
               for m in range(_nonreal_top(profile, n - 1) + 1))


# ---------------------------------------------------------------------------
# exact polynomial side


class RationalPolynomial(NamedTuple):
    """Polynomial with exact rational coefficients, lowest degree first."""

    coeffs: tuple

    @staticmethod
    def make(seq) -> "RationalPolynomial":
        coeffs = [Fraction(c) for c in seq]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        return RationalPolynomial(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, x) -> Fraction:
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        width = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial.make(
            self.coefficient(i) + other.coefficient(i) for i in range(width)
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, RationalPolynomial):
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return RationalPolynomial.make(out)
        return RationalPolynomial.make(c * Fraction(other) for c in self.coeffs)

    __rmul__ = __mul__


def binom_poly(r: int) -> RationalPolynomial:
    """C(X, r) as an exact polynomial in X."""
    if r < 0:
        raise InvalidCase("binomial index must be nonnegative, got %d" % r)
    out = RationalPolynomial.make([1])
    for i in range(r):
        out = out * RationalPolynomial.make([-i, 1])
    return out * Fraction(1, math.factorial(r))


def poly_affine(p: RationalPolynomial, a, b) -> RationalPolynomial:
    """The polynomial p(a X + b)."""
    arg = RationalPolynomial.make([b, a])
    out = RationalPolynomial.make([0])
    power = RationalPolynomial.make([1])
    for c in p.coeffs:
        out = out + power * c
        power = power * arg
    return out


def poly_binom_sum(j: int):
    """The two split-basis stratum counts as exact polynomials.

    Returns sum_r C(X,2r) C(X,j-2r) and sum_r C(X,2r) C(X+1,j-2r).  The
    lemma that both have degree at most j, with a coefficient of X^j at
    most 2^j / (2 j!) for j >= 1, is judged by verify-paper's check 6.
    """
    if j < 0:
        raise InvalidCase("need j >= 0, got j=%d" % j)
    plain = RationalPolynomial.make([0])
    shifted = RationalPolynomial.make([0])
    for r in range(j // 2 + 1):
        even = binom_poly(2 * r)
        plain = plain + even * binom_poly(j - 2 * r)
        shifted = shifted + even * poly_affine(binom_poly(j - 2 * r), 1, 1)
    return plain, shifted


def bound_sl_polynomial(d0: int, n: int):
    """Leading monomial and remainder of the split-basis bound in d_0.

    Substitutes d_m := d_0 throughout the split-basis bound and expands the
    halving floors for the parity of d0.  Returns (leading, f) with
    leading = X^{n-1} / (2 (n-1)!) and f the rest of the expanded bound;
    verify-paper's check 7 judges that f has degree at most n - 2.
    """
    if n < 2:
        raise InvalidCase("polynomial bound needs degree at least 2, got %d" % n)
    if d0 < 0:
        raise InvalidCase("d0 must be nonnegative, got %d" % d0)
    total = RationalPolynomial.make([0])
    for j in range(n):
        plain, shifted = poly_binom_sum(j)
        if d0 % 2 == 0:
            total = total + poly_affine(plain, Fraction(1, 2), 0)
        else:
            total = total + poly_affine(shifted, Fraction(1, 2), Fraction(-1, 2))
    leading = RationalPolynomial.make(
        [0] * (n - 1) + [Fraction(1, 2 * math.factorial(n - 1))]
    )
    return leading, total - leading


# ---------------------------------------------------------------------------
# reports


class BoundRow(NamedTuple):
    bound_id: str
    value: int
    formula: str


class BoundReport(NamedTuple):
    degree: int
    rows: tuple
    exact_sl: int
    notes: tuple

    def check_dominance(self) -> None:
        for row in self.rows:
            if row.value < self.exact_sl:
                raise VerificationFailure(
                    "bound %s = %d is below the exact symbol length %d"
                    % (row.bound_id, row.value, self.exact_sl)
                )

    def as_dict(self) -> dict:
        bounds = {row.bound_id: row.value for row in self.rows}
        tightness = {}
        if self.exact_sl > 0:
            for row in self.rows:
                tightness[row.bound_id] = str(Fraction(row.value, self.exact_sl))
        return {
            "n": self.degree,
            "bounds": bounds,
            "exact_sl": self.exact_sl,
            "tightness": tightness,
            "formulas": {row.bound_id: row.formula for row in self.rows},
            "notes": list(self.notes),
        }


BOUND_FORMULAS = {
    "exponential": "sum over strata of 2^((n-m)(d_m_cap - n + m + 1))",
    "linked-power": "sum over strata of min(1, floor(2^((n-m+1)(d-n+m)) / (2^(d-n+m)-1)))",
    "linked-exact": "linked cap with the exact subspace count as numerator",
    "binomial": "sum over strata of C(d_m, n-m)",
    "paired": "sum over even strata of C(d_2m, n-2m-1), plus the all-ones stratum",
    "split-basis": "sum over strata of C(floor(d_m/2), 2r) C(ceil(d_m/2), n-m-1-2r)",
}


class ProfileBounds(NamedTuple):
    """The bound data of one (profile, n): the six report rows, in report
    order, and the stratum caps bound_strata_count(profile, n, m) for
    m = 0..n."""

    rows: tuple[BoundRow, ...]
    strata_caps: tuple[int, ...]

    def value(self, bound_id: str) -> int:
        return next(row.value for row in self.rows if row.bound_id == bound_id)


def profile_bounds(profile, n: int) -> ProfileBounds:
    """Every bound of a (profile, n), evaluated on the first request and
    memoized in builders._CACHE under the key (profile, n)."""
    key = (profile, n)
    hit = builders._CACHE.get(key)
    if hit is not None:
        return hit
    rows = (
        BoundRow("exponential", bound_sl_exponential(profile, n),
                 BOUND_FORMULAS["exponential"]),
        BoundRow("linked-power", bound_sl_linked(profile, n),
                 BOUND_FORMULAS["linked-power"]),
        BoundRow("linked-exact", bound_sl_linked(profile, n, True),
                 BOUND_FORMULAS["linked-exact"]),
        BoundRow("binomial", bound_sl_binomial(profile, n),
                 BOUND_FORMULAS["binomial"]),
        BoundRow("paired", bound_sl_paired(profile, n),
                 BOUND_FORMULAS["paired"]),
        BoundRow("split-basis", bound_sl_split_basis(profile, n),
                 BOUND_FORMULAS["split-basis"]),
    )
    caps = tuple(bound_strata_count(profile, n, m) for m in range(n + 1))
    out = builders._CACHE[key] = ProfileBounds(rows, caps)
    return out


def make_bound_report(scheme, n: int, exact_sl: int) -> BoundReport:
    """The bound report of a scheme in degree n: the memoized rows of its
    profile (profile_bounds), with exact_sl."""
    rows = profile_bounds(scheme.invariants(), n).rows
    return BoundReport(n, rows, exact_sl, BOUND_NOTES)
