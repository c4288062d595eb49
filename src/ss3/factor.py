"""Integer factorization of group orders q - 1 by trial division.

factorize(n) trial-divides any n by 2, 3 and 6k +- 1. For q = 3^d,
factorize_q_minus_1(d) first splits 3^d - 1 into its cyclotomic pieces,
3^d - 1 = prod_{k | d} Phi_k(3), and each prime of Phi_k(3) that does not
divide k is 1 mod k (Brillhart, Lehmer, Selfridge, Tuckerman and
Wagstaff, Factorizations of b^n +- 1), so a piece is trial-divided by the
primes of 2k and then by f = 1 mod lcm(2, k) alone. For d <= 31
(field.DEGREE_CAP) the worst case is d = 31, where (3^31 - 1)/2 =
683 * 102,673 * 4,404,047: the 1,656th divisor f = 1 mod 62 is 102,673,
and the cofactor 4,404,047 left is below f*f.

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


def factorize_q_minus_1(d: int) -> list[int]:
    """Prime factors of 3^d - 1, d >= 1, with multiplicity, sorted ascending.

    Equal to factorize(3**d - 1). Each k | d, in ascending order, gives
    Phi_k(3) as 3^k - 1 over the pieces of the proper divisors of k, found
    before it. A prime p of Phi_k(3) divides k or has 3 of order k mod p,
    so p = 1 mod k: after the primes of 2k, the piece's trial divisors are
    f = 1 mod lcm(2, k), up to f*f > n.
    """
    if d < 1:
        raise ValueError("factorize_q_minus_1 expects d >= 1")
    pieces: dict[int, int] = {}  # k -> Phi_k(3)
    factors: list[int] = []
    for k in (k for k in range(1, d + 1) if d % k == 0):
        n = 3**k - 1
        for j, piece in pieces.items():
            if k % j == 0:
                n //= piece
        pieces[k] = n
        for p in sorted(set(factorize(2 * k))):
            n = _divide_out(n, p, factors)
        step = k if k % 2 == 0 else 2 * k  # lcm(2, k)
        f = step + 1
        while f * f <= n:
            n = _divide_out(n, f, factors)
            f += step
        if n > 1:  # no factor below f and f*f > n: n is prime
            factors.append(n)
    return sorted(factors)


def _divide_out(n: int, f: int, factors: list[int]) -> int:
    """n with every factor f divided out, each appended to factors."""
    while n % f == 0:
        factors.append(f)
        n //= f
    return n
