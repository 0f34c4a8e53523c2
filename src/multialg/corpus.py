"""Named standard structures used by the test suite and shipped as files.

Everything here is small enough for the exhaustive audits: sign and Krasner
multifields, modular rings, products, multifields derived from special
groups and fans, the canonical three-element real semigroup, square-class
special groups of small prime fields.
"""

from __future__ import annotations

from functools import lru_cache

from .core import FiniteMultigroup, FiniteMultiring, krasner, q2, ring_multiring
from .constructions import product
from .ordering_spaces import SignSpace, aos_to_mfred, fan_aos, mrred_to_ars, one_point_ars
from .real_semigroups import RealSemigroup, canonical_3, mrred_to_rs, rs_product
from .special_groups import (
    SpecialGroup,
    sg_of_finite_field,
    sg_to_mf,
    smallest_special_group,
    trivial_special_group,
)

_Z2_NAMES = ("1", "-1")
_Z2_MUL = [["1", "-1"], ["-1", "1"]]
_Z22_NAMES = ("1", "a", "b", "ab")
_Z22_MUL = [
    ["1", "a", "b", "ab"],
    ["a", "1", "ab", "b"],
    ["b", "ab", "1", "a"],
    ["ab", "b", "a", "1"],
]
_Z23_NAMES = ("1", "a", "b", "c", "ab", "ac", "bc", "abc")


def _z23_mul() -> list[list[str]]:
    def mul(x: str, y: str) -> str:
        sx = set(x) - {"1"}
        sy = set(y) - {"1"}
        s = sx ^ sy
        return "".join(sorted(s)) if s else "1"
    return [[mul(x, y) for y in _Z23_NAMES] for x in _Z23_NAMES]


@lru_cache(maxsize=None)
def sg_z2_reduced() -> SpecialGroup:
    return smallest_special_group(_Z2_NAMES, _Z2_MUL, "-1")


@lru_cache(maxsize=None)
def sg_z2_trivial() -> SpecialGroup:
    return trivial_special_group(_Z2_NAMES, _Z2_MUL, "-1")


@lru_cache(maxsize=None)
def sg_z22_trivial() -> SpecialGroup:
    return trivial_special_group(_Z22_NAMES, _Z22_MUL, "a")


@lru_cache(maxsize=None)
def sg_z22_reduced() -> SpecialGroup:
    return smallest_special_group(_Z22_NAMES, _Z22_MUL, "a")


@lru_cache(maxsize=None)
def sg_z23_trivial() -> SpecialGroup:
    return trivial_special_group(_Z23_NAMES, _z23_mul(), "a")


@lru_cache(maxsize=None)
def trivial_sg_multifield() -> FiniteMultiring:
    """Three elements with 1+1 = {1,-1}."""
    return sg_to_mf(sg_z2_trivial())


@lru_cache(maxsize=None)
def q2xq2() -> FiniteMultiring:
    return product([q2(), q2()])


@lru_cache(maxsize=None)
def q2cube() -> FiniteMultiring:
    return product([q2(), q2(), q2()])


@lru_cache(maxsize=None)
def q2xz2() -> FiniteMultiring:
    return product([q2(), ring_multiring(2)])


@lru_cache(maxsize=None)
def fan2_multifield() -> FiniteMultiring:
    """Five elements: the multifield of the two-point fan."""
    return aos_to_mfred(fan_aos(2))


@lru_cache(maxsize=None)
def rs_3x3() -> RealSemigroup:
    return rs_product([canonical_3(), canonical_3()])


@lru_cache(maxsize=None)
def rs_q2() -> RealSemigroup:
    return mrred_to_rs(q2())


@lru_cache(maxsize=None)
def rs_q2xq2() -> RealSemigroup:
    return mrred_to_rs(q2xq2())


@lru_cache(maxsize=None)
def ars_q2xq2() -> SignSpace:
    space, _ = mrred_to_ars(q2xq2())
    return space


def corpus_multirings() -> dict[str, FiniteMultiring]:
    """Everything the multiring-level sweeps run over."""
    out = {
        "q2": q2(),
        "krasner": krasner(),
        "t3": trivial_sg_multifield(),
        "fan2mf": fan2_multifield(),
        "q2xq2": q2xq2(),
        "q2xz2": q2xz2(),
    }
    for n in (2, 3, 4, 5, 6):
        out[f"z{n}"] = ring_multiring(n)
    return out


def corpus_multifields() -> dict[str, FiniteMultiring]:
    return {
        "q2": q2(),
        "krasner": krasner(),
        "t3": trivial_sg_multifield(),
        "fan2mf": fan2_multifield(),
        "z2": ring_multiring(2),
        "z3": ring_multiring(3),
        "z5": ring_multiring(5),
    }


def corpus_real_reduced_multifields() -> dict[str, FiniteMultiring]:
    return {"q2": q2(), "fan2mf": fan2_multifield(),
            "fan3mf": aos_to_mfred(fan_aos(3))}


def corpus_real_reduced_multirings() -> dict[str, FiniteMultiring]:
    return {"q2": q2(), "q2xq2": q2xq2(), "fan2mf": fan2_multifield()}


def corpus_special_groups() -> dict[str, SpecialGroup]:
    return {
        "sg_z2_reduced": sg_z2_reduced(),
        "sg_z2_trivial": sg_z2_trivial(),
        "sg_z22_trivial": sg_z22_trivial(),
        "sg_z22_reduced": sg_z22_reduced(),
        "sg_z23_trivial": sg_z23_trivial(),
        "sg_f3": sg_of_finite_field(3),
        "sg_f5": sg_of_finite_field(5),
        "sg_f7": sg_of_finite_field(7),
    }


def corpus_real_semigroups() -> dict[str, RealSemigroup]:
    return {
        "rs3": canonical_3(),
        "rs3x3": rs_3x3(),
        "rs_q2": rs_q2(),
        "rs_q2xq2": rs_q2xq2(),
    }


def corpus_sign_spaces() -> dict[str, SignSpace]:
    return {
        "aos_point": fan_aos(1),
        "aos_fan2": fan_aos(2),
        "aos_fan3": fan_aos(3),
        "ars_point": one_point_ars(),
        "ars_q2xq2": ars_q2xq2(),
    }


def corpus_multigroups() -> dict[str, FiniteMultigroup]:
    """Additive parts plus a plain group, for the multigroup-level sweeps."""
    out = {name: r.additive_multigroup()
           for name, r in corpus_multirings().items()}
    from .core import group_as_multigroup
    out["z4_group"] = group_as_multigroup(
        ("0", "1", "2", "3"), lambda a, b: (a + b) % 4, lambda a: (-a) % 4, 0)
    return out
