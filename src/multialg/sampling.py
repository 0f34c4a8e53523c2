"""Sampled axiom checks for structures given only by a membership oracle.

The motivating instance is the triangle multifield on the nonnegative reals,
where a + b is the closed interval [|a-b|, a+b].  Sampling stays inside the
rationals with bounded numerators and denominators, so every check is exact;
a pass is statistical and labelled as such, a failure carries a concrete
rational witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .core import CheckReport, InputError, Verdict

SAMPLED_AXIOMS = (
    "commutativity",
    "reversibility",
    "associativity-membership",
    "distributivity-membership",
    "inverse",
)


class MembershipOracle:
    """Predicate interface over an abstract (possibly infinite) carrier.

    Implementations must be deterministic for fixed inputs.  sum_samples
    should include extreme members of a + b when the sums are intervals;
    witness searches rely on that to avoid false alarms.
    """

    zero: Fraction = Fraction(0)
    one: Fraction = Fraction(1)

    def contains_sum(self, c: Fraction, a: Fraction, b: Fraction) -> bool:
        raise NotImplementedError

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        raise NotImplementedError

    def neg(self, a: Fraction) -> Fraction:
        raise NotImplementedError

    def inv(self, a: Fraction) -> Optional[Fraction]:
        raise NotImplementedError

    def sample(self, rng: random.Random) -> Fraction:
        raise NotImplementedError

    def sample_sum(self, a: Fraction, b: Fraction, rng: random.Random) -> Fraction:
        raise NotImplementedError

    def sum_samples(self, a: Fraction, b: Fraction, rng: random.Random,
                    count: int) -> list[Fraction]:
        return [self.sample_sum(a, b, rng) for _ in range(count)]


_MAX_NUMERATOR = 24
_MAX_DENOMINATOR = 8


class TriangleOracle(MembershipOracle):
    """Nonnegative rationals; c in a+b iff |a-b| <= c <= a+b; x = -x."""

    def contains_sum(self, c: Fraction, a: Fraction, b: Fraction) -> bool:
        return abs(a - b) <= c <= a + b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return a

    def inv(self, a: Fraction) -> Optional[Fraction]:
        if a == 0:
            return None
        return 1 / a

    def sample(self, rng: random.Random) -> Fraction:
        return Fraction(rng.randint(0, _MAX_NUMERATOR),
                        rng.randint(1, _MAX_DENOMINATOR))

    def sample_sum(self, a: Fraction, b: Fraction, rng: random.Random) -> Fraction:
        lo, hi = abs(a - b), a + b
        mode = rng.randrange(4)
        if mode == 0:
            return lo
        if mode == 1:
            return hi
        if mode == 2:
            return (lo + hi) / 2
        return lo + (hi - lo) * Fraction(rng.randint(0, 16), 16)

    def sum_samples(self, a: Fraction, b: Fraction, rng: random.Random,
                    count: int) -> list[Fraction]:
        lo, hi = abs(a - b), a + b
        out = [lo, hi, (lo + hi) / 2]
        while len(out) < count:
            out.append(lo + (hi - lo) * Fraction(rng.randint(0, 16), 16))
        return out[:count]


class BrokenTriangleOracle(TriangleOracle):
    """Triangle oracle with the lower membership bound dropped (for testing
    that sampled checks do catch a bad oracle)."""

    def contains_sum(self, c: Fraction, a: Fraction, b: Fraction) -> bool:
        return 0 <= c <= a + b


def _fail(axiom: str, witness: tuple, trial: int) -> CheckReport:
    return CheckReport(
        subject=f"sampled:{axiom}",
        verdicts=(Verdict(axiom, False, witness, f"violated at trial {trial}"),),
    )


def _ok(axiom: str, trials: int) -> CheckReport:
    return CheckReport(
        subject=f"sampled:{axiom}",
        verdicts=(Verdict(axiom, True, None,
                          f"statistical pass only ({trials} trials)"),),
    )


def sampled_check(oracle: MembershipOracle, axiom: str, trials: int,
                  seed: int) -> CheckReport:
    """Run seeded random trials of one axiom against a membership oracle;
    a pass needs at least one trial."""
    if axiom not in SAMPLED_AXIOMS:
        raise InputError(f"unknown sampled axiom {axiom!r}; "
                         f"expected one of {', '.join(SAMPLED_AXIOMS)}")
    if trials < 1:
        raise InputError(f"sampling needs at least one trial, got {trials}")
    rng = random.Random(seed)
    check = {
        "commutativity": _trial_commutativity,
        "reversibility": _trial_reversibility,
        "associativity-membership": _trial_associativity,
        "distributivity-membership": _trial_distributivity,
        "inverse": _trial_inverse,
    }[axiom]
    for t in range(trials):
        try:
            witness = check(oracle, rng)
        except InputError:
            raise
        except Exception as exc:
            raise InputError(f"oracle failure in trial {t}: {exc!r}") from exc
        if witness is not None:
            return _fail(axiom, witness, t)
    return _ok(axiom, trials)


def _trial_commutativity(o: MembershipOracle, rng: random.Random) -> Optional[tuple]:
    a, b = o.sample(rng), o.sample(rng)
    for c in (o.sample_sum(a, b, rng), o.sample(rng)):
        if o.contains_sum(c, a, b) != o.contains_sum(c, b, a):
            return (a, b, c)
    return None


def _trial_reversibility(o: MembershipOracle, rng: random.Random) -> Optional[tuple]:
    a, b = o.sample(rng), o.sample(rng)
    for c in (o.sample_sum(a, b, rng), o.sample(rng)):
        if not o.contains_sum(c, a, b):
            continue
        if not o.contains_sum(a, c, o.neg(b)):
            return (a, b, c)
        if not o.contains_sum(b, o.neg(a), c):
            return (a, b, c)
    return None


def _trial_associativity(o: MembershipOracle, rng: random.Random) -> Optional[tuple]:
    # Draw d in a+(b+c), then search a witness s with s in a+b and d in s+c.
    # Candidates come from both a+b and (via reversibility) d+(-c); for
    # interval-shaped sums the included endpoints make the search complete.
    a, b, c = o.sample(rng), o.sample(rng), o.sample(rng)
    v = o.sample_sum(b, c, rng)
    if not o.contains_sum(v, b, c):
        return (a, b, c, v)
    d = o.sample_sum(a, v, rng)
    if not o.contains_sum(d, a, v):
        return (a, b, c, d)
    pool = o.sum_samples(a, b, rng, 8) + o.sum_samples(d, o.neg(c), rng, 8)
    if not any(o.contains_sum(s, a, b) and o.contains_sum(d, s, c) for s in pool):
        return (a, b, c, d)
    # Mirror direction: d' in (a+b)+c must be reachable as a+(b+c).
    w = o.sample_sum(a, b, rng)
    d2 = o.sample_sum(w, c, rng)
    pool = o.sum_samples(b, c, rng, 8) + o.sum_samples(d2, o.neg(a), rng, 8)
    if not any(o.contains_sum(s, b, c) and o.contains_sum(d2, a, s) for s in pool):
        return (a, b, c, d2)
    return None


def _trial_distributivity(o: MembershipOracle, rng: random.Random) -> Optional[tuple]:
    a, b, d = o.sample(rng), o.sample(rng), o.sample(rng)
    for c in (o.sample_sum(a, b, rng), o.sample(rng)):
        if not o.contains_sum(c, a, b):
            continue
        if not o.contains_sum(o.mul(c, d), o.mul(a, d), o.mul(b, d)):
            return (a, b, c, d)
    return None


def _trial_inverse(o: MembershipOracle, rng: random.Random) -> Optional[tuple]:
    a = o.sample(rng)
    if a == o.zero:
        return None
    b = o.inv(a)
    if b is None or o.mul(a, b) != o.one:
        return (a,)
    return None


def triangle_double_sum_interval(a: Fraction, b: Fraction,
                                 c: Fraction) -> tuple[Fraction, Fraction]:
    """Closed form for the set (a+b)+c in the triangle multifield: the
    interval [max(0, a-b-c, b-a-c, c-a-b), a+b+c].  Symmetric in a,b,c,
    which is what makes it usable as an associativity oracle."""
    lo = max(Fraction(0), a - b - c, b - a - c, c - a - b)
    return lo, a + b + c
