"""Subgroup algebra of the Klein-type group against membership.

Random finite-index subgroups are built like the gallery's Klein chains: a
diagonal lattice diag(a, b), with or without a glide rep (R, (a/2, y)) (a odd,
so the glide lies in the group).  Intersections are checked element by
element over a box of the group, lattice intersections for symmetry and
membership, and coset orbits against subgroup indices.  Needs neither numpy
nor the test helpers; the property tests run under the `tier1` Hypothesis
profile that conftest.py loads.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cantordyn import gallery
from cantordyn.affine import (
    AffineElement,
    IntegerLattice,
    contains,
    coset_space,
    hermite_normal_form,
    identity_element,
    lattice_intersect,
    subgroup_from_parts,
    subgroup_index_in,
    subgroup_intersect,
    subgroup_le,
)
from cantordyn.gallery import REFLECTION, klein_type_group

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
    assert space.index_of_element(GROUP.identity()) == 0
    assert len(space.orbit(k.generator_elements())) == 1
    assert len(space.orbit(h1.generator_elements())) == subgroup_index_in(k, h1)
    generators = [g for _, g in GROUP.generators]
    assert sorted(space.orbit(generators)) == list(range(space.index))


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(lattices(n), lattices(n))))
def test_lattice_intersection_is_symmetric_and_exact(pair):
    l1, l2 = pair
    meet = lattice_intersect(l1, l2)
    assert meet == lattice_intersect(l2, l1)
    assert l1.contains_lattice(meet) and l2.contains_lattice(meet)
    n = l1.dimension
    for v in itertools.product(range(-4, 5), repeat=n):
        assert meet.contains(v) == (l1.contains(v) and l2.contains(v)), v


GALLERY_CHAINS = ("vietoris", "fokkink_oversteegen", "rogers_tollefson", "small_fo_variant")


@pytest.mark.parametrize("name", GALLERY_CHAINS)
def test_identity_coset_comes_first_on_gallery_chain_levels(name):
    chain = gallery.build_chain(name, {})
    for h in chain.levels:
        space = coset_space(chain.group, h)
        assert space.index_of_element(chain.group.identity()) == 0
