"""The warp-product Cantor action, the examples that are no subgroup chain.

An address is the collapsed token COLLAPSED (`w0`) or a pair (x digits in
{0, 2}, read in base 3; y digits in {0, 1}, an odometer value least
significant first), the product collapsed along x = 0 (`warp_cylinder_key`).
`WarpMetric` is its exact metric, ranking its pairs by class, and
`warp_model` the model in canonical order.  `warp_example` realizes a rank-k
free abelian fiber action plus, optionally, one transported odometer cycle
through the whole address set; a config names it through `ACTIONS`.
"""

import itertools
import operator
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

from .action import CantorAction, CantorModel, common_prefix, tuple_getter
from .config import _dispatch, parse_bool
from .errors import StructureError
from .limits import check_cells

COLLAPSED = "w0"


class WarpMetric(namedtuple("WarpMetric", "depth lam1")):
    """d0(x,x') + min(x,x') * d1(y,y') on a product collapsed along x = 0.

    Addresses are either the collapsed token or pairs (x_digits, y_digits);
    x_digits are middle-thirds digits in {0,2} read most-significant first,
    with value sum(digit_i / 3^i); d1 is a tree metric on the y digits.

    The min coefficient makes fiber distances shrink toward the collapsed
    point, vanishes against the collapsed class without a special case, and
    satisfies the triangle inequality exactly; weighting by max instead
    breaks the triangle inequality (take x small, x' large, and move through
    (x, y') to change the fiber coordinate cheaply before climbing).
    """

    __slots__ = ()

    def __new__(cls, depth, lam1=Fraction(1, 2)):
        lam1 = Fraction(lam1)
        if not 0 < lam1 < 1:
            raise StructureError("warp fiber base lam1 must be a rational in (0,1)")
        return super().__new__(cls, depth, lam1)

    def x_value(self, a):
        if a == COLLAPSED:
            return Fraction(0)
        return Fraction(int("".join(map(str, a[0])), 3), 3 ** len(a[0]))

    def d1(self, ya, yb):
        return Fraction(0) if ya == yb else self.lam1 ** common_prefix(ya, yb)

    def distance(self, a, b):
        if a == b:
            return Fraction(0)
        xa, xb = self.x_value(a), self.x_value(b)
        if a == COLLAPSED or b == COLLAPSED:
            return abs(xa - xb)
        return abs(xa - xb) + min(xa, xb) * self.d1(a[1], b[1])

    def pair_ranks(self, addresses):
        """(realized, rank) as `CantorModel.pair_ranks` reads them, exact for
        every lam1 = p/q at depth K.  With X the x digits read in base 3 (0 at
        the collapsed point), a pair's distance is |X_a - X_b| q^K + min(X_a,
        X_b) w(j) over 3^K q^K, where w(j) = p^j q^(K-j) for a y agreement of
        length j < K, and 0 for j = K: the y parts agree fully or either point
        is collapsed.  So it depends only on the class (X_a, X_b, j), coded
        (index of X_b) (K+1) + j in one column per distinct y part.  An X_a's
        classes are its y parts' codes; all keys are sorted once, and a's row
        is its y part's column gathered through X_a's ranks by code."""
        p, q, k = self.lam1.numerator, self.lam1.denominator, self.depth
        qk, width = q ** k, k + 1
        weight = [p ** j * q ** (k - j) for j in range(k)] + [0]
        xs = [0 if a == COLLAPSED else int("".join(map(str, a[0])), 3) for a in addresses]
        ys = [None if a == COLLAPSED else tuple(a[1]) for a in addresses]
        x_values = list(dict.fromkeys(xs))
        base = [x_values.index(x) * width for x in xs]  # (index of X_b) (K+1)
        y_parts = list(dict.fromkeys(ys))
        gathers, found = {}, {}  # y part -> the gather of each b's code against it, its codes
        for ya in y_parts:
            agree = {yb: k if None in (ya, yb) else common_prefix(ya, yb) for yb in y_parts}
            column = list(map(operator.add, base, map(agree.__getitem__, ys)))
            gathers[ya], found[ya] = tuple_getter(column), set(column)
        codes = {}  # X_a -> the codes of the classes it realizes
        for xa, ya in zip(xs, ys):
            codes.setdefault(xa, set()).update(found[ya])
        tables = {}  # X_a -> the key of each code it realizes, then its rank
        for xa, cs in codes.items():
            table = tables[xa] = [None] * (width * len(x_values))
            for c in cs:
                xb = x_values[c // width]
                table[c] = abs(xa - xb) * qk + min(xa, xb) * weight[c % width]
        keys = sorted(set().union(*tables.values()) - {None})
        for table in tables.values():
            table[:] = [None if key is None else bisect_left(keys, key) for key in table]
        realized = tuple(Fraction(value, 3 ** k * qk) for value in keys)
        return realized, [gathers[ya](tables[xa]) for xa, ya in zip(xs, ys)]


def warp_cylinder_key(address, j):
    """Depth-j clopen partition of a collapsed warp model.

    Blocks with an all-zero x prefix glue into the collapsed point's cylinder;
    every other block is an ordinary product cylinder.
    """
    if j == 0:
        return ()
    if address == COLLAPSED:
        return ("x0", (0,) * j)
    xp = address[0][:j]
    if all(d == 0 for d in xp):
        return ("x0", xp)
    return (xp, address[1][:j])


def _x_addresses(depth):
    """Middle-thirds digit strings of the given depth, all-zero excluded."""
    return [digits for digits in itertools.product((0, 2), repeat=depth) if any(digits)]


def _y_addresses(depth):
    return list(itertools.product((0, 1), repeat=depth))


def _y_to_int(y):
    """Least-significant digit first: level j is the value mod 2^j."""
    return sum(d << i for i, d in enumerate(y))


def _int_to_y(v, depth):
    return tuple((v >> i) & 1 for i in range(depth))


def warp_model(depth, *, lam1=Fraction(1, 2)):
    """The collapsed product model with the warp metric, canonical order."""
    if not 1 <= depth <= 8:
        raise StructureError("warp model depth must be in 1..8")
    addresses = [COLLAPSED, *itertools.product(_x_addresses(depth), _y_addresses(depth))]
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
        generators["f"] = tuple((i + 1) % n for i in range(n))
    return CantorAction(
        model,
        generators,
        model.index[COLLAPSED],
        label=f"warp_example(depth={depth}, k={fiber_generators}, "
        f"free_factor={'yes' if include_free_factor else 'no'})",
    )


# the action builder by name, with the parameters it reads and their defaults
ACTIONS = {"warp_example": (warp_example, {"depth": 6, "k1": 2, "free_factor": "true"})}


def build_action(name, params):
    """Dispatch a gallery action builder by name with a parameter mapping."""
    builder, args = _dispatch("action", ACTIONS, name, params)
    free_factor = parse_bool(args["free_factor"])
    return builder(int(args["depth"]), int(args["k1"]), include_free_factor=free_factor)
