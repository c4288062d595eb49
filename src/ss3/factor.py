"""Integer factorization of group orders q - 1 by trial division.

Trial division alone is exact and fast enough for every supported q: for
q = 3^d with d <= 31 (field.DEGREE_CAP) the loop stops on f*f > n, with the
cofactor left then prime, by f = 398,585 at the latest. That worst case is
d = 26, where 3^26 - 1 = 2^3 * 398,581 * 797,161.

Everything here is deterministic so that repeated context construction
yields identical results.
"""

from __future__ import annotations


def factorize(n: int) -> list[int]:
    """Prime factors of n >= 1 with multiplicity, sorted ascending.

    Trial division by 2, 3 and then 6k +- 1 while f*f <= n. Its cost grows
    with the second-largest prime factor of n; for 3^d - 1 with d <= 31
    the loop ends by f = 398,585 (d = 26).
    """
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    factors: list[int] = []
    for p in (2, 3):
        while n % p == 0:
            factors.append(p)
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors.append(p)
                n //= p
        f += 6
    if n > 1:  # no factor below f and f*f > n: n is a prime above all found
        factors.append(n)
    return factors
