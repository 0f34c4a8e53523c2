"""Finite fields F_q as multirings whose sums are singletons.

F_q, q = p^k, is F_p[t] modulo a monic irreducible polynomial of degree k.
Element i is the polynomial whose coefficients are the base-p digits of i,
lowest first, and is labelled str(i): 0 is zero and 1 is one.  Polynomials
are plain integers and lists of digits; the only library names used are the
structure and its carrier, so the tables share no code with the audits or
the constructions they are checked by.
"""

from __future__ import annotations

import itertools

from multialg.core import Carrier, FiniteMultiring

# q -> (p, the coefficients of the modulus, lowest first, leading 1 last)
MODULI = {
    32: (2, (1, 0, 1, 0, 0, 1)),   # t^5 + t^2 + 1
    49: (7, (1, 0, 1)),            # t^2 + 1; -1 is not a square mod 7
    64: (2, (1, 1, 0, 0, 0, 0, 1)),  # t^6 + t + 1
}


def _digits(i: int, p: int, k: int) -> list[int]:
    return [i // p ** j % p for j in range(k)]


def _number(digits, p: int) -> int:
    return sum(d * p ** j for j, d in enumerate(digits))


def _remainder(poly: list[int], modulus, p: int) -> list[int]:
    """poly modulo the monic ``modulus``, with len(modulus) - 1 digits."""
    poly = list(poly)
    k = len(modulus) - 1
    for top in range(len(poly) - 1, k - 1, -1):
        c = poly[top]
        if c:
            for j, m in enumerate(modulus):
                poly[top - k + j] = (poly[top - k + j] - c * m) % p
    return (poly + [0] * k)[:k]


def _times(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def is_irreducible(p: int, modulus) -> bool:
    """No monic polynomial of degree 1 to k/2 divides the modulus of degree k."""
    k = len(modulus) - 1
    for degree in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=degree):
            if not any(_remainder(list(modulus), list(low) + [1], p)[:degree]):
                return False
    return True


def finite_field(q: int) -> FiniteMultiring:
    """F_q for q in ``MODULI``, built after checking that its modulus is
    irreducible."""
    p, modulus = MODULI[q]
    if not is_irreducible(p, modulus):
        raise ValueError(f"the modulus of F_{q} is reducible")
    k = len(modulus) - 1
    digits = [_digits(i, p, k) for i in range(q)]
    add = tuple(tuple(1 << _number([(x + y) % p for x, y in zip(a, b)], p)
                      for b in digits) for a in digits)
    mul = tuple(tuple(_number(_remainder(_times(a, b, p), modulus, p), p)
                      for b in digits) for a in digits)
    neg = tuple(_number([-x % p for x in a], p) for a in digits)
    return FiniteMultiring(Carrier(tuple(map(str, range(q)))), add, mul, neg, 0, 1)
