"""Canonical builders for the example chains, at desk scale.

Each builder is addressable from the CLI by name with parameters.  The Klein
bottle type chains share one construction: bonding matrix A = diag(a, b),
levels generated by A^l Z^2 together with the glide (x, y) -> (x + a^l/2, -y),
which is the pushforward of the base glide since A commutes with the
reflection.  The warp-product action, the other family of examples, is in
`warp`.
"""

from fractions import Fraction

from .affine import (
    AffineElement,
    AffineGroup,
    hermite_normal_form,
    identity_element,
    subgroup_from_parts,
    translation,
)
from .config import _dispatch
from .errors import StructureError
from .tower import SubgroupChain

REFLECTION = ((1, 0), (0, -1))


# Miller-Rabin to the bases of the first 13 primes is exact below this bound
# (Sorenson and Webster, 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Deterministic Miller-Rabin, exact for p < PRIME_TEST_BOUND; a larger
    p is refused."""
    if p >= PRIME_TEST_BOUND:
        raise StructureError(
            f"vietoris base {p} is not below {PRIME_TEST_BOUND}, "
            "the bound of its exact primality test"
        )
    if p < 2:
        return False
    if p in _WITNESSES:
        return True
    if any(p % a == 0 for a in _WITNESSES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def vietoris(p, depth):
    """The chain p^l Z inside Z: one circle covering another p-to-one."""
    if not _is_prime(p):
        raise StructureError(f"vietoris base must be a prime >= 2, got {p}")
    if depth < 1:
        raise StructureError("depth must be at least 1")
    group = AffineGroup.from_generators([("t", translation((1,), 1))])
    levels = [
        subgroup_from_parts(
            hermite_normal_form(((p ** l,),)), [identity_element(1, 1)]
        )
        for l in range(1, depth + 1)
    ]
    return SubgroupChain(group, levels, label=f"vietoris(p={p})")


def klein_type_group():
    """Plane translations plus the glide (x, y) -> (x + 1/2, -y)."""
    t1 = translation((1, 0), 2)
    t2 = translation((0, 1), 2)
    g = AffineElement(REFLECTION, (Fraction(1, 2), 0), 2)
    return AffineGroup.from_generators([("t1", t1), ("t2", t2), ("g", g)])


def _klein_chain(a, b, depth, label):
    group = klein_type_group()
    levels = []
    for l in range(1, depth + 1):
        lat = hermite_normal_form(((a ** l, 0), (0, b ** l)))
        glide = AffineElement(REFLECTION, (Fraction(a ** l, 2), 0), 2)
        levels.append(subgroup_from_parts(lat, [glide]))
    return SubgroupChain(group, levels, label=label)


def fokkink_oversteegen(depth):
    """Klein-type chain with bonding matrix diag(3, 35)."""
    if not 1 <= depth <= 3:
        raise StructureError("fokkink_oversteegen depth must be in 1..3")
    return _klein_chain(3, 35, depth, f"fokkink_oversteegen(depth={depth})")


def rogers_tollefson(depth):
    """Klein-type chain with bonding matrix diag(1, 2)."""
    if not 1 <= depth <= 8:
        raise StructureError("rogers_tollefson depth must be in 1..8")
    return _klein_chain(1, 2, depth, f"rogers_tollefson(depth={depth})")


def small_fo_variant(depth):
    """Cheap analog with bonding matrix diag(3, 5) for fast oracles."""
    if not 1 <= depth <= 4:
        raise StructureError("small_fo_variant depth must be in 1..4")
    return _klein_chain(3, 5, depth, f"small_fo_variant(depth={depth})")


# each builder by name, with the parameters it reads and their defaults
CHAINS = {
    "vietoris": (vietoris, {"p": 2, "depth": 3}),
    "fokkink_oversteegen": (fokkink_oversteegen, {"depth": 2}),
    "rogers_tollefson": (rogers_tollefson, {"depth": 3}),
    "small_fo_variant": (small_fo_variant, {"depth": 2}),
}


def build_chain(name, params):
    """Dispatch a gallery chain builder by name with a parameter mapping."""
    builder, args = _dispatch("chain", CHAINS, name, params)
    return builder(**{key: int(value) for key, value in args.items()})
