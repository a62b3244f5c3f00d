"""Canonical builders for the example chains and actions, at desk scale.

Each builder is addressable from the CLI by name with parameters.  The Klein
bottle type chains share one construction: bonding matrix A = diag(a, b),
levels generated by A^l Z^2 together with the glide (x, y) -> (x + a^l/2, -y),
which is the pushforward of the base glide since A commutes with the
reflection.  The warp-product action realizes a rank-k free abelian fiber
action plus one transported odometer cycle through the whole address set.
The chain builders import the affine and tower layers when they run, so
building an action loads neither, and the warp builders import the action
layer, so building a chain does not load it.
"""

import itertools
from fractions import Fraction

from .config import parse_bool
from .errors import StructureError
from .limits import check_cells

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
    from .affine import (
        AffineGroup,
        hermite_normal_form,
        identity_element,
        subgroup_from_parts,
        translation,
    )
    from .tower import SubgroupChain

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
    from .affine import AffineElement, AffineGroup, translation

    t1 = translation((1, 0), 2)
    t2 = translation((0, 1), 2)
    g = AffineElement(REFLECTION, (Fraction(1, 2), 0), 2)
    return AffineGroup.from_generators([("t1", t1), ("t2", t2), ("g", g)])


def _klein_chain(a, b, depth, label):
    from .affine import AffineElement, hermite_normal_form, subgroup_from_parts
    from .tower import SubgroupChain

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


# ------------------------------------------------------------ warp example

def _x_addresses(depth):
    """Middle-thirds digit strings of the given depth, all-zero excluded."""
    out = []
    for digits in itertools.product((0, 2), repeat=depth):
        if any(digits):
            out.append(digits)
    return out


def _y_addresses(depth):
    return list(itertools.product((0, 1), repeat=depth))


def _y_to_int(y):
    """Least-significant digit first: level j is the value mod 2^j."""
    return sum(d << i for i, d in enumerate(y))


def _int_to_y(v, depth):
    return tuple((v >> i) & 1 for i in range(depth))


def warp_model(depth, *, lam1=Fraction(1, 2)):
    """The collapsed product model with the warp metric, canonical order."""
    from .action import COLLAPSED, CantorModel, WarpMetric, warp_cylinder_key

    if not 1 <= depth <= 8:
        raise StructureError("warp model depth must be in 1..8")
    addresses = [COLLAPSED]
    for x in _x_addresses(depth):
        for y in _y_addresses(depth):
            addresses.append((x, y))
    metric = WarpMetric(depth, lam1)
    return CantorModel(addresses, depth, metric, cylinder_key=warp_cylinder_key)


def warp_example(depth, fiber_generators=2, *, include_free_factor=True):
    """Fiber odometer generators fixing the collapsed point, plus optionally
    one cycle through the whole address set in canonical order.

    Fiber generator i adds the odd constant 2i-1 in the depth-truncated
    odometer on the y coordinate, so each alone acts minimally on a fiber.
    The extra generator is the breadth-first transported odometer: the
    canonical address order makes it a single cycle, which is the depth-K
    shadow of a minimal equicontinuous cycle through the model.
    """
    from .action import COLLAPSED, CantorAction

    if fiber_generators < 1:
        raise StructureError("need at least one fiber generator")
    model = warp_model(depth)
    n = len(model)
    count = fiber_generators + bool(include_free_factor)
    check_cells(count * n, f"{count} generator permutations of {n} addresses")
    generators = {}
    for i in range(1, fiber_generators + 1):
        c = 2 * i - 1
        perm = []
        for a in model.addresses:
            if a == COLLAPSED:
                perm.append(model.index[a])
            else:
                x, y = a
                y2 = _int_to_y((_y_to_int(y) + c) % (1 << depth), depth)
                perm.append(model.index[(x, y2)])
        generators[f"g{i}"] = tuple(perm)
    if include_free_factor:
        cycle = [0] * n
        for i in range(n):
            cycle[i] = (i + 1) % n
        generators["f"] = tuple(cycle)
    return CantorAction(
        model,
        generators,
        model.index[COLLAPSED],
        label=f"warp_example(depth={depth}, k={fiber_generators}, "
        f"free_factor={'yes' if include_free_factor else 'no'})",
    )


# each builder by name, with the parameters it reads and their defaults
CHAINS = {
    "vietoris": (vietoris, {"p": 2, "depth": 3}),
    "fokkink_oversteegen": (fokkink_oversteegen, {"depth": 2}),
    "rogers_tollefson": (rogers_tollefson, {"depth": 3}),
    "small_fo_variant": (small_fo_variant, {"depth": 2}),
}
ACTIONS = {"warp_example": (warp_example, {"depth": 6, "k1": 2, "free_factor": "true"})}


def _dispatch(kind, table, name, params):
    """The named builder and its parameters over the defaults; a builder
    that is not in the table, or a parameter it would not read, is refused."""
    if name not in table:
        raise StructureError(f"unknown gallery {kind} {name!r}")
    builder, defaults = table[name]
    for key in params:
        if key not in defaults:
            raise StructureError(f"gallery {kind} {name!r} takes no parameter {key!r}")
    return builder, {**defaults, **params}


def build_chain(name, params):
    """Dispatch a gallery chain builder by name with a parameter mapping."""
    builder, args = _dispatch("chain", CHAINS, name, params)
    return builder(**{key: int(value) for key, value in args.items()})


def build_action(name, params):
    """Dispatch a gallery action builder by name with a parameter mapping."""
    builder, args = _dispatch("action", ACTIONS, name, params)
    return builder(
        int(args["depth"]),
        int(args["k1"]),
        include_free_factor=parse_bool(args["free_factor"]),
    )
