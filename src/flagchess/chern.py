"""Numerical topology of the double cover and section counts for M.

Two independent computations of the cover degree are kept deliberately
separate (a power-series expansion over exact integers, and a closed
alternating sum); agreement of the two is part of the CLI output rather
than an assumption.  The section counts rest on a Bott vanishing that is
checked in ``tests/test_chern.py`` rather than on every call.  All
arithmetic is exact.
"""

from __future__ import annotations

import math

from .weights import _flag_N, _game_N


def cover_degree(n: int, eps: int) -> tuple[int, int, bool]:
    """Degree of the branch divisor's defining data, two ways.

    Returns (series value, closed-form value, agree?).  The series route
    expands (1+2H)^(2n+eps) / (1+3H) modulo H^(2n+eps) and reads off the
    top coefficient; the closed form is the alternating binomial sum.
    The two share no code.
    """
    d = _game_N(n, eps)

    coeffs = [1] + [0] * (d - 1)
    for _ in range(d):  # times (1 + 2H), truncated at H^d
        for k in range(d - 1, 0, -1):
            coeffs[k] += 2 * coeffs[k - 1]
    for k in range(1, d):  # divided by (1 + 3H): c_k = a_k - 3 c_(k-1)
        coeffs[k] -= 3 * coeffs[k - 1]
    via_series = coeffs[d - 1]

    via_closed = sum((-3) ** (d - 1 - i) * 2**i * math.comb(d, i) for i in range(d))

    return via_series, via_closed, via_series == via_closed


def h0_twisted_quotient(N: int) -> int:
    """Global sections of Q(1) on P^(N-1): N*C(N+1,2) - C(N+2,3).

    The Euler-sequence count is only the answer because the correction term
    has no higher cohomology.  ``test_correction_term_has_no_higher_cohomology``
    in ``tests/test_chern.py`` derives that vanishing from the weight
    combinatorics for N = 3..40.
    """
    return _flag_N(N) * math.comb(N + 1, 2) - math.comb(N + 2, 3)


def section_count_ld(N: int) -> int:
    """Parameter count for the linear-determinantal condition family."""
    return h0_twisted_quotient(N) - math.comb(N + 1, 2) + N


def section_count_syzygy(N: int) -> int:
    """Parameter count for the syzygy condition family."""
    return h0_twisted_quotient(N) - math.comb(N + 2, 3) + 2 * N - 1


def condition3_bound(N: int) -> int:
    """Codimension bound for the third condition: C(N+1,2) - N."""
    return math.comb(_flag_N(N) + 1, 2) - N
