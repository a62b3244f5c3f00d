"""Subgroup algebra of the Klein-type group against membership, and the
closure against the worklist oracle it replaced.

Random finite-index subgroups are built like the gallery's Klein chains: a
diagonal lattice diag(a, b), with or without a glide rep (R, (a/2, y)) (a odd,
so the glide lies in the group).  Intersections are checked element by
element over a box of the group, lattice intersections for symmetry and
membership, and coset orbits against subgroup indices.  Closures of seeded
random generator sets, and of the 48-class cubic group, must match the
worklist closure with an incrementally grown lattice, refusals included, and
pass the closure and stability checks the closure itself skips; every
element the algebra derives on the gallery chains must pass the validating
constructor.  Needs no test helpers; the property tests
run under the `tier1` Hypothesis profile that conftest.py loads.
"""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cases
from cantordyn import _intmat as im
from cantordyn.affine import (
    AffineElement,
    IntegerLattice,
    _element,
    _validate_subgroup,
    conjugate,
    contains,
    coset_space,
    element_not_in,
    hermite_normal_form,
    identity_element,
    lattice_from_columns,
    normal_core,
    subgroup_from_generators,
    subgroup_from_parts,
    subgroup_index_in,
    subgroup_intersect,
    subgroup_le,
)
from cantordyn.errors import ResourceLimitError, StructureError
from cantordyn.limits import CLASS_CAP
from cantordyn.gallery import REFLECTION, klein_type_group
from cases import GALLERY_CHAINS

GROUP = klein_type_group()
IDENTITY = ((1, 0), (0, 1))
BOX = range(-5, 6)
# every element (I, (i, j)) and (R, (i + 1/2, j)) of the group with i, j in BOX
BOX_ELEMENTS = [
    AffineElement(point, (i + shift, j), 2)
    for point, shift in ((IDENTITY, 0), (REFLECTION, F(1, 2)))
    for i, j in itertools.product(BOX, BOX)
]


@st.composite
def klein_subgroups(draw):
    glide = draw(st.booleans())
    a = draw(st.sampled_from((1, 3)) if glide else st.integers(1, 4))
    b = draw(st.integers(1, 4))
    lattice = hermite_normal_form(((a, 0), (0, b)))
    if glide:
        y = draw(st.integers(0, b - 1))
        reps = [AffineElement(REFLECTION, (F(a, 2), y), 2)]
    else:
        reps = [identity_element(2, 2)]
    return subgroup_from_parts(lattice, reps)


@st.composite
def lattices(draw, n):
    """Any full-rank lattice, by its canonical basis: a positive diagonal,
    each entry right of it reduced modulo its row's diagonal entry."""
    diagonal = [draw(st.integers(1, 6)) for _ in range(n)]
    rows = []
    for i, d in enumerate(diagonal):
        right = [draw(st.integers(0, d - 1)) for _ in range(i + 1, n)]
        rows.append((0,) * i + (d,) + tuple(right))
    return IntegerLattice(rows)


@given(klein_subgroups(), klein_subgroups())
def test_intersection_membership_is_membership_in_both(h1, h2):
    k = subgroup_intersect(h1, h2)
    assert GROUP.contains_subgroup(k)
    assert subgroup_le(k, h1) and subgroup_le(k, h2)
    for g in BOX_ELEMENTS:
        assert contains(k, g) == (contains(h1, g) and contains(h2, g)), g


@given(klein_subgroups(), klein_subgroups())
def test_orbit_of_a_subgroup_over_the_intersection_has_its_index(h1, h2):
    k = subgroup_intersect(h1, h2)
    space = coset_space(GROUP, k)
    ident = identity_element(GROUP.dimension, GROUP.denom)
    assert space.index_of_scaled(ident.point, ident.scaled) == 0
    assert len(space.orbit(k.generator_elements())[0]) == 1
    assert len(space.orbit(h1.generator_elements())[0]) == subgroup_index_in(k, h1)
    generators = [g for _, g in GROUP.generators]
    assert sorted(space.orbit(generators)[0]) == list(range(space.index))


def lattice_intersect(l1, l2):
    """The lattice of the intersection of the two translation subgroups."""
    n = l1.dimension
    h1, h2 = (subgroup_from_parts(l, [identity_element(n)]) for l in (l1, l2))
    return subgroup_intersect(h1, h2).lattice


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(lattices(n), lattices(n))))
def test_lattice_intersection_is_symmetric_and_exact(pair):
    l1, l2 = pair
    meet = lattice_intersect(l1, l2)
    assert meet == lattice_intersect(l2, l1)
    assert l1.contains_lattice(meet) and l2.contains_lattice(meet)
    n = l1.dimension
    for v in itertools.product(range(-4, 5), repeat=n):
        assert meet.contains(v) == (l1.contains(v) and l2.contains(v)), v



@pytest.mark.parametrize("name", GALLERY_CHAINS)
def test_identity_coset_comes_first_on_gallery_chain_levels(name):
    chain = cases.chain(name)
    for h in chain.levels:
        space = coset_space(chain.group, h)
        ident = identity_element(chain.group.dimension, chain.group.denom)
        assert space.index_of_scaled(ident.point, ident.scaled) == 0


# ------------------------------------------------------- the closure oracle


class LatticeSpan:
    """Incrementally grown integer lattice of possibly deficient rank."""

    def __init__(self, n):
        self.n = n
        self.cols = []  # the pivot columns of the Hermite form, in order
        self._h = None
        self._pivots = ()

    def contains(self, v):
        if all(x == 0 for x in v):
            return True
        if self._h is None:
            return False
        return not any(im.echelon_divmod(self._h, self._pivots, v)[1])

    def add(self, v):
        """Add a vector; returns True if the lattice grew."""
        if self.contains(v):
            return False
        rows = tuple(tuple(c[i] for c in self.cols) + (v[i],) for i in range(self.n))
        h, self._pivots = im.column_hnf(rows)
        r = len(self._pivots)  # the columns after the pivot ones are zero
        self._h = tuple(row[:r] for row in h)
        self.cols = [tuple(row[j] for row in h) for j in range(r)]
        return True

    def full_rank(self):
        return len(self._pivots) == self.n


def worklist_closure(n, denom, generators):
    """The closure by a worklist over products with the generators and their
    inverses, growing a lattice kept stable under every point part found."""
    gens = list(generators)
    for g in gens:
        if g.dimension != n or g.denom != denom:
            raise StructureError("generator dimension/denominator mismatch")
    signed = [h for g in gens for h in (g, g.inverse())]
    span = LatticeSpan(n)  # holds denom * v for v in T(H)
    ident = im.identity(n)
    classes = {ident: (0,) * n}  # point matrix -> scaled translation

    def grow_lattice(vec):
        queue = [tuple(vec)]
        while queue:
            w = queue.pop()
            if span.add(w):
                queue.extend(im.mat_vec(p, w) for p in classes)

    work = [(ident, (0,) * n)]
    while work:
        point, tr = work.pop()
        for g in signed:
            new_point = im.mat_mul(point, g.point)
            new_tr = im.vec_add(tr, im.mat_vec(point, g.scaled))
            if new_point in classes:
                delta = im.vec_sub(new_tr, classes[new_point])
                if not span.contains(delta):
                    grow_lattice(delta)
            else:
                if len(classes) >= CLASS_CAP:
                    raise ResourceLimitError(
                        f"point class count exceeded the cap {CLASS_CAP}"
                    )
                classes[new_point] = new_tr
                for col in list(span.cols):
                    grow_lattice(im.mat_vec(new_point, col))
                work.append((new_point, new_tr))

    if not span.full_rank():
        raise StructureError(
            "translation lattice is not full rank; the subgroup has infinite index"
        )
    cols = [tuple(F(x, denom) for x in col) for col in span.cols]
    if any(x.denominator != 1 for col in cols for x in col):
        raise StructureError(
            "translation lattice has fractional entries; rescale coordinates "
            "so identity-point translations are integral"
        )
    lattice = lattice_from_columns(n, [tuple(int(x) for x in col) for col in cols])
    reps = [
        AffineElement(p, tuple(F(x, denom) for x in t), denom)
        for p, t in classes.items()
    ]
    return subgroup_from_parts(lattice, reps, validate=True)


def random_generators(rng):
    """1-4 generators in dimension 2 or 3 over denominator 1, 2 or 4: signed
    permutation point parts or pure translations, with translation entries in
    [-2, 2] on the 1/d grid, integral half the time."""
    n, d = rng.choice((2, 3)), rng.choice((1, 2, 4))
    gens = []
    for _ in range(rng.randint(1, 4)):
        if rng.random() < 0.6:
            perm = rng.sample(range(n), n)
            point = tuple(
                tuple(rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n))
                for i in range(n)
            )
        else:
            point = im.identity(n)
        step = d if rng.random() < 0.5 else 1
        trans = tuple(F(rng.randint(-2 * d, 2 * d) // step * step, d) for _ in range(n))
        gens.append(AffineElement(point, trans, d))
    return n, d, gens


def closure_outcome(closure, n, d, gens):
    try:
        return "ok", closure(n, d, gens)
    except (StructureError, ResourceLimitError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_closure_matches_the_worklist_oracle(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(50):
        n, d, gens = random_generators(rng)
        got = closure_outcome(subgroup_from_generators, n, d, gens)
        want = closure_outcome(worklist_closure, n, d, gens)
        assert got == want, (n, d, [str(g) for g in gens])
        if got[0] == "ok":
            assert str(got[1]) == str(want[1])
            _validate_subgroup(got[1])  # the closure builds it unchecked
        kinds.add(got[0] if got[0] == "ok" else got[1])
    # normal forms and both refusals occur
    assert len(kinds) == 3, kinds


def test_closure_of_the_cubic_group_is_valid_and_matches_the_oracle():
    # orders 3, 4 and 2 generate the 48 signed permutation matrices
    gens = [
        AffineElement(((0, 0, 1), (1, 0, 0), (0, 1, 0)), (0, 0, 0), 1),
        AffineElement(((0, -1, 0), (1, 0, 0), (0, 0, 1)), (0, 0, 0), 1),
        AffineElement(((-1, 0, 0), (0, -1, 0), (0, 0, -1)), (0, 0, 0), 1),
        AffineElement(im.identity(3), (1, 0, 0), 1),
    ]
    cubic = subgroup_from_generators(3, 1, gens)
    _validate_subgroup(cubic)
    assert cubic.num_classes() == 48
    assert cubic.lattice.basis == im.identity(3)
    assert str(cubic) == str(worklist_closure(3, 1, gens))


def test_closure_refuses_an_infinite_point_group_at_its_first_unbounded_point():
    # orders 4 and 3, product the shear (1 1; 0 1)
    quarter = AffineElement(((0, -1), (1, 0)), (0, 0), 1)
    third = AffineElement(((0, 1), (-1, -1)), (0, 0), 1)
    with pytest.raises(StructureError, match="order exceeds the bound"):
        subgroup_from_generators(2, 1, [quarter, third])


def revalidated(elements):
    for g in elements:
        assert AffineElement(g.point, g.trans, g.denom) == g, g
    return len(elements)


@pytest.mark.parametrize("name", GALLERY_CHAINS)
def test_derived_elements_pass_the_validating_constructor(name):
    chain = cases.chain(name)
    group = chain.group
    checked = 0
    for h in chain.levels:
        core = normal_core(group, h)
        checked += revalidated(core.reps + tuple(core.generator_elements()))
        witness = element_not_in(chain.levels[-1], core)
        checked += revalidated([witness] if witness is not None else [])
        for _, g in group.generators:
            conj = conjugate(g, h)
            meet = subgroup_intersect(h, conj)
            checked += revalidated(conj.reps + meet.reps + (g.inverse(),))
        keys = coset_space(group, h).keys
        checked += revalidated([_element(point, red, group.denom) for _, red, point in keys])
    assert checked > sum(chain.indices())
