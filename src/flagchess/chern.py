"""Numerical topology of the double cover and section counts for M.

Two independent computations of the cover degree are kept deliberately
separate (a power-series expansion over exact integers, and a closed
alternating sum); agreement of the two is part of the CLI output rather
than an assumption.  The section counts rest on a Bott vanishing that is
checked in ``tests/test_chern.py`` rather than on every call.  All
arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass


def binom(n: int, k: int) -> int:
    """Binomial coefficient by the multiplicative recurrence, exact at every step."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        out = out * (n - k + i) // i
    return out


@dataclass(frozen=True)
class TruncPoly:
    """Polynomial in one variable truncated at degree < modulus, integer coefficients."""

    modulus: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("modulus must be positive")
        if len(self.coeffs) != self.modulus:
            raise ValueError("coeffs must have exactly `modulus` entries")

    @classmethod
    def from_list(cls, modulus: int, coeffs: list[int]) -> "TruncPoly":
        padded = (tuple(coeffs) + (0,) * modulus)[:modulus]
        return cls(modulus, padded)

    def __getitem__(self, degree: int) -> int:
        return self.coeffs[degree]


def poly_mul(p: TruncPoly, q: TruncPoly) -> TruncPoly:
    if p.modulus != q.modulus:
        raise ValueError("operands must share a modulus")
    M = p.modulus
    out = [0] * M
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j in range(M - i):
            out[i + j] += a * q.coeffs[j]
    return TruncPoly(M, tuple(out))


def poly_inv_unit(p: TruncPoly) -> TruncPoly:
    """Inverse of a series with constant term +-1 (the only units over Z)."""
    c0 = p.coeffs[0]
    if c0 not in (1, -1):
        raise ValueError("constant term must be +1 or -1 to invert over the integers")
    M = p.modulus
    inv = [0] * M
    inv[0] = c0  # 1/1 = 1, 1/-1 = -1
    for k in range(1, M):
        acc = sum(p.coeffs[i] * inv[k - i] for i in range(1, k + 1))
        inv[k] = -c0 * acc
    return TruncPoly(M, tuple(inv))


def poly_pow(p: TruncPoly, e: int) -> TruncPoly:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    out = TruncPoly.from_list(p.modulus, [1])
    base = p
    while e:
        if e & 1:
            out = poly_mul(out, base)
        base = poly_mul(base, base)
        e >>= 1
    return out


def cover_degree(n: int, eps: int) -> tuple[int, int, bool]:
    """Degree of the branch divisor's defining data, two ways.

    Returns (series value, closed-form value, agree?).  The series route
    expands (1+2H)^(2n+eps) / (1+3H) modulo H^(2n+eps) and reads off the
    top coefficient; the closed form is the alternating binomial sum.
    The two share no code.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if eps not in (0, 1):
        raise ValueError(f"eps must be 0 or 1, got {eps}")
    d = 2 * n + eps

    numerator = poly_pow(TruncPoly.from_list(d, [1, 2]), d)
    series = poly_mul(numerator, poly_inv_unit(TruncPoly.from_list(d, [1, 3])))
    via_series = series[d - 1]

    via_closed = sum((-3) ** (d - 1 - i) * 2**i * binom(d, i) for i in range(d))

    return via_series, via_closed, via_series == via_closed


def h0_twisted_quotient(N: int) -> int:
    """Global sections of Q(1) on P^(N-1): N*C(N+1,2) - C(N+2,3).

    The Euler-sequence count is only the answer because the correction term
    has no higher cohomology.  ``test_correction_term_has_no_higher_cohomology``
    in ``tests/test_chern.py`` derives that vanishing from the weight
    combinatorics for N = 3..40.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    return N * binom(N + 1, 2) - binom(N + 2, 3)


def section_count_ld(N: int) -> int:
    """Parameter count for the linear-determinantal condition family."""
    return h0_twisted_quotient(N) - binom(N + 1, 2) + N


def section_count_syzygy(N: int) -> int:
    """Parameter count for the syzygy condition family."""
    return h0_twisted_quotient(N) - binom(N + 2, 3) + 2 * N - 1


def condition3_bound(N: int) -> int:
    """Codimension bound for the third condition: C(N+1,2) - N."""
    return binom(N + 1, 2) - N
