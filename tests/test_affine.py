"""Exact affine algebra: composition, HNF, lattices, cores, coset spaces.

Derived expectations are computed by independent brute-force oracles
(enumeration of lattice points in boxes, adjugate solves, element-wise
conjugation over short words) and frozen against the library's answers.
"""

import random
from fractions import Fraction as F

import pytest

from cantordyn import _intmat as im
from cantordyn import affine
from cantordyn.affine import (
    AffineElement,
    AffineGroup,
    compose,
    conjugate,
    contains,
    coset_space,
    hermite_normal_form,
    identity_element,
    is_normal,
    normal_core,
    subgroup_from_generators,
    subgroup_from_parts,
    subgroup_index_in,
    subgroup_intersect,
    subgroup_le,
    translation,
)
from cantordyn.errors import ResourceLimitError, StructureError
from cantordyn.gallery import small_fo_variant

from helpers import brute_force_core, coset_reps, count_calls, index_of, permutation_of

D = ((1, 0), (0, -1))


def klein_group():
    t1 = translation((1, 0), 2)
    t2 = translation((0, 1), 2)
    g = AffineElement(D, (F(1, 2), 0), 2)
    return AffineGroup.from_generators([("t1", t1), ("t2", t2), ("g", g)])


def fo_level(ell, a=(3, 35)):
    lat = hermite_normal_form(((a[0] ** ell, 0), (0, a[1] ** ell)))
    glide = AffineElement(D, (F(3 ** ell, 2), 0), 2)
    return subgroup_from_parts(lat, [glide])


# ---------------------------------------------------------------- oracles

def columns(lattice):
    return [lattice.column(j) for j in range(lattice.dimension)]


def lattice_points_by_combination(basis_cols, coeff_range):
    """All integer combinations of the columns with coefficients in a box."""
    n = len(basis_cols[0])
    pts = set()
    coeffs = range(-coeff_range, coeff_range + 1)
    if len(basis_cols) == 1:
        for a in coeffs:
            pts.add(tuple(a * basis_cols[0][i] for i in range(n)))
        return pts
    for a in coeffs:
        for b in coeffs:
            pts.add(
                tuple(a * basis_cols[0][i] + b * basis_cols[1][i] for i in range(n))
            )
    return pts


def det(a):
    """Cofactor expansion along the first row."""
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * det(tuple(row[:j] + row[j + 1 :] for row in a[1:]))
        for j in range(len(a))
    )


def adjugate(a):
    """The transposed cofactor matrix: adjugate(a) @ a = det(a) I."""
    n = len(a)
    if n == 1:
        return ((1,),)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * det(tuple(row[:i] + row[i + 1 :] for r, row in enumerate(a) if r != j))
            for j in range(n)
        )
        for i in range(n)
    )


def in_lattice_by_adjugate(m, v):
    """Membership oracle: solve M c = v by adjugate, check integrality."""
    d = det(m)
    adj = adjugate(m)
    c = im.mat_vec(adj, v)
    return all(x % d == 0 for x in c)


def subgroup_elements_in_box(h, box):
    """All elements of H whose (scaled) translations lie in a box."""
    out = []
    cols = columns(h.lattice)
    # coefficient range generous enough to fill the box
    rng = box
    for r in h.reps:
        for u in lattice_points_by_combination(cols, rng):
            t = tuple(r.trans[i] + u[i] for i in range(2))
            if all(abs(x) <= box for x in t):
                out.append(AffineElement(r.point, t, h.denom))
    return out


# ---------------------------------------------------------------- compose

def test_compose_identity():
    e = identity_element(2, 2)
    assert compose(e, e) == e


def test_glide_squared_is_unit_translation():
    g = AffineElement(D, (F(1, 2), 0), 2)
    assert compose(g, g) == translation((1, 0), 2)


def test_conjugating_vertical_translation_flips_it():
    g = AffineElement(D, (F(1, 2), 0), 2)
    t = translation((0, 1), 2)
    assert compose(compose(g, t), g.inverse()) == translation((0, -1), 2)


def test_compose_associative_on_random_elements():
    rng = random.Random(7)
    pool = [
        translation((1, 0), 2),
        translation((0, 1), 2),
        AffineElement(D, (F(1, 2), 0), 2),
        translation((-2, 3), 2),
        AffineElement(D, (F(5, 2), -1), 2),
    ]
    for _ in range(60):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_compose_rejects_mismatched_operands():
    with pytest.raises(StructureError):
        compose(identity_element(1, 1), identity_element(2, 1))
    with pytest.raises(StructureError):
        compose(identity_element(2, 1), identity_element(2, 2))


def test_point_part_must_be_unimodular_and_finite_order():
    with pytest.raises(StructureError):
        AffineElement(((2, 0), (0, 1)), (0, 0), 1)
    with pytest.raises(StructureError):
        AffineElement(((1, 1), (0, 1)), (0, 0), 1)  # infinite order shear


def random_unimodular(rng, n):
    """A product of random elementary row operations and sign flips."""
    m = [list(row) for row in im.identity(n)]
    for _ in range(8):
        i, j, q = rng.randrange(n), rng.randrange(n), rng.randint(-2, 2)
        if i != j:
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i] = [-x for x in m[i]]
    return tuple(map(tuple, m))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_inverse_through_the_hermite_form_matches_the_adjugate(n):
    rng = random.Random(19 + n)
    for _ in range(30):
        point = random_unimodular(rng, n)
        d = det(point)
        assert d in (1, -1)
        scaled = tuple(rng.randint(-9, 9) for _ in range(n))
        g = affine._element(point, scaled, 3)  # unchecked: most have infinite order
        inv = g.inverse()
        assert inv.point == tuple(tuple(d * x for x in row) for row in adjugate(point))
        assert compose(g, inv) == compose(inv, g) == affine._element(im.identity(n), (0,) * n, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_point_check_reads_the_cofactor_determinant(n):
    rng = random.Random(23 + n)
    for _ in range(60):
        point = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n))
        d = abs(det(point))
        if d == 1:
            # unimodular: only the order bound can refuse it
            try:
                affine._check_point(point)
            except StructureError as exc:
                assert "order exceeds" in str(exc)
        else:
            with pytest.raises(StructureError, match=rf"unimodular, got \|determinant\| {d}$"):
                affine._check_point(point)


# ---------------------------------------------------------------- HNF

def test_hnf_bonding_matrix_already_canonical():
    lat = hermite_normal_form(((3, 0), (0, 35)))
    assert lat.basis == ((3, 0), (0, 35))
    assert lat.index() == 105


def test_hnf_permutation_basis_is_unit_lattice():
    assert hermite_normal_form(((0, 1), (1, 0))).basis == ((1, 0), (0, 1))


def test_hnf_same_lattice_by_box_enumeration():
    m = ((2, 2), (0, 4))
    lat = hermite_normal_form(m)
    want = {
        p
        for p in lattice_points_by_combination([(2, 0), (2, 4)], 8)
        if all(abs(x) <= 8 for x in p)
    }
    got = {
        p
        for p in lattice_points_by_combination(columns(lat), 8)
        if all(abs(x) <= 8 for x in p)
    }
    assert want == got


def test_hnf_rejects_singular_matrix():
    with pytest.raises(StructureError):
        hermite_normal_form(((1, 2), (2, 4)))


def test_hnf_idempotent_on_random_matrices():
    rng = random.Random(11)
    count = 0
    while count < 40:
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(2)) for _ in range(2))
        if det(m) == 0:
            continue
        count += 1
        lat = hermite_normal_form(m)
        assert hermite_normal_form(lat.basis) == lat
        assert lat.index() == abs(det(m))


def test_membership_agreement_hnf_vs_adjugate():
    rng = random.Random(13)
    count = 0
    while count < 50:
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(2))
        d = det(m)
        if d == 0 or abs(d) > 12:
            continue
        count += 1
        lat = hermite_normal_form(m)
        for _ in range(20):
            v = (rng.randint(-20, 20), rng.randint(-20, 20))
            assert lat.contains(v) == in_lattice_by_adjugate(m, v)


def test_reduce_gives_canonical_coset_representative():
    lat = hermite_normal_form(((3, 0), (0, 35)))
    red = lat.reduce((F(7), F(-3)))
    assert red == (1, 32)
    assert lat.contains((7 - 1, -3 - 32))
    # fractional vectors reduce too
    red2 = lat.reduce((F(7, 2), F(1, 2)))
    assert red2 == (F(1, 2), F(1, 2))


# ------------------------------------------------------ lattice intersection

def lattice_intersect(l1, l2):
    """The lattice of the intersection of the two translation subgroups."""
    n = l1.dimension
    h1, h2 = (subgroup_from_parts(l, [identity_element(n)]) for l in (l1, l2))
    return subgroup_intersect(h1, h2).lattice

def test_intersect_coprime_scalings():
    l1 = hermite_normal_form(((2, 0), (0, 2)))
    l2 = hermite_normal_form(((3, 0), (0, 3)))
    assert lattice_intersect(l1, l2).basis == ((6, 0), (0, 6))


def test_intersect_contained_lattice():
    a = hermite_normal_form(((3, 0), (0, 35)))
    z = hermite_normal_form(((1, 0), (0, 1)))
    assert lattice_intersect(a, z) == a
    assert lattice_intersect(z, a) == a


def test_intersect_random_lattices_by_box_enumeration():
    rng = random.Random(17)
    done = 0
    while done < 25:
        ms = []
        while len(ms) < 2:
            m = tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2))
            d = det(m)
            if d != 0 and abs(d) <= 6:
                ms.append(m)
        l1, l2 = (hermite_normal_form(m) for m in ms)
        got = lattice_intersect(l1, l2)
        box = 36
        pts1 = {
            p
            for p in lattice_points_by_combination(columns(l1), box)
            if all(abs(x) <= box for x in p)
        }
        pts2 = {
            p
            for p in lattice_points_by_combination(columns(l2), box)
            if all(abs(x) <= box for x in p)
        }
        want = pts1 & pts2
        have = {
            p
            for p in lattice_points_by_combination(columns(got), box)
            if all(abs(x) <= box for x in p)
        }
        assert want == have
        # index multiplicativity bounds
        assert got.index() % l1.index() == 0
        assert got.index() % l2.index() == 0
        assert got.index() <= l1.index() * l2.index()
        done += 1


# ---------------------------------------------------------------- contains

def test_contains_even_translations_in_one_dimension():
    h = subgroup_from_parts(
        hermite_normal_form(((2,),)), [identity_element(1, 1)]
    )
    assert contains(h, translation((4,), 1))
    assert not contains(h, translation((3,), 1))


def test_contains_on_fo_level_one():
    h1 = fo_level(1)
    assert not contains(h1, translation((0, 1), 2))
    assert contains(h1, AffineElement(D, (F(3, 2), 0), 2))
    assert contains(h1, AffineElement(D, (F(3, 2) + 3, 35), 2))
    assert not contains(h1, AffineElement(D, (F(1, 2), 0), 2))


# ---------------------------------------------------------------- conjugate

def test_conjugate_by_identity_is_identity_map():
    h1 = fo_level(1)
    assert conjugate(identity_element(2, 2), h1) == h1


def test_conjugate_fo_level_shifts_glide_class():
    h1 = fo_level(1)
    got = conjugate(translation((0, 1), 2), h1)
    assert got.lattice == h1.lattice
    glide = got.reps[1]
    assert glide.point == D
    assert glide.trans == (F(3, 2), 33)  # (3/2, -2) reduced modulo 35 in row 2
    # element-wise oracle: conjugating every short element of H1 lands in got
    g = translation((0, 1), 2)
    gi = g.inverse()
    for h in subgroup_elements_in_box(h1, 2):
        assert contains(got, compose(compose(gi, h), g))


def test_conjugate_of_normal_subgroup_is_itself():
    G = klein_group()
    lat = hermite_normal_form(((3, 0), (0, 35)))
    h = subgroup_from_parts(lat, [identity_element(2, 2)])
    for _, gen in G.generators:
        assert conjugate(gen, h) == h


def test_conjugation_preserves_index():
    G = klein_group()
    h1 = fo_level(1)
    for _, gen in G.generators:
        assert G.index_of(conjugate(gen, h1)) == G.index_of(h1)


# ---------------------------------------------------------------- is_normal

def test_normality_in_abelian_group():
    G = AffineGroup.from_generators([("t", translation((1,), 1))])
    h = subgroup_from_parts(hermite_normal_form(((2,),)), [identity_element(1, 1)])
    assert is_normal(G, h).normal


def test_fo_level_not_normal_with_vertical_witness():
    G = klein_group()
    v = is_normal(G, fo_level(1))
    assert not v.normal
    assert v.witness_name == "t2"
    assert v.witness == translation((0, 1), 2)


def test_pure_bonding_lattice_is_normal_in_klein_group():
    G = klein_group()
    h = subgroup_from_parts(
        hermite_normal_form(((3, 0), (0, 35))), [identity_element(2, 2)]
    )
    assert is_normal(G, h).normal


# ---------------------------------------------------------------- core

def test_core_in_abelian_group_is_the_subgroup():
    G = AffineGroup.from_generators([("t", translation((1,), 1))])
    h = subgroup_from_parts(hermite_normal_form(((2,),)), [identity_element(1, 1)])
    assert normal_core(G, h) == h


def test_core_of_fo_level_one_drops_the_glide():
    G = klein_group()
    core = normal_core(G, fo_level(1))
    assert core.lattice.basis == ((3, 0), (0, 35))
    assert len(core.reps) == 1
    # oracle: every element of the core box-enumeration is fixed by conjugation
    # into H1, and the glide itself is not in the core
    assert not contains(core, AffineElement(D, (F(3, 2), 0), 2))
    assert is_normal(G, core).normal


def test_core_of_normal_subgroup_is_itself():
    G = klein_group()
    h = subgroup_from_parts(
        hermite_normal_form(((2, 0), (0, 2))), [identity_element(2, 2)]
    )
    assert is_normal(G, h).normal
    assert normal_core(G, h) == h


def test_core_properties_on_gallery_and_random_subgroups():
    G = klein_group()
    rng = random.Random(23)
    subgroups = [fo_level(1), fo_level(1, (3, 5)), fo_level(2, (3, 5))]
    while len(subgroups) < 53:  # gallery plus 50 randomized
        gens = []
        for _ in range(2):
            v = (rng.randint(1, 4), 0)
            w = (0, rng.randint(1, 4))
            gens.append(translation(v, 2))
            gens.append(translation(w, 2))
        if rng.random() < 0.5:
            k = rng.randint(0, 2)
            gens.append(AffineElement(D, (F(2 * k + 1, 2), rng.randint(-2, 2)), 2))
        try:
            h = subgroup_from_generators(2, 2, gens)
        except StructureError:
            continue
        if not G.contains_subgroup(h):
            continue
        if G.index_of(h) > 600:
            continue
        subgroups.append(h)
    for h in subgroups:
        core = normal_core(G, h)
        assert subgroup_le(core, h)
        assert is_normal(G, core).normal
        assert (core == h) == is_normal(G, h).normal


def test_core_matches_brute_force_oracle_on_random_subgroups():
    G = klein_group()
    rng = random.Random(2010)
    checked = 0
    while checked < 8:
        gens = [
            translation((rng.randint(1, 6), rng.randint(0, 6)), 2),
            translation((rng.randint(0, 6), rng.randint(1, 6)), 2),
            AffineElement(
                D, (F(2 * rng.randint(0, 3) + 1, 2), rng.randint(-3, 3)), 2
            ),
        ]
        try:
            h = subgroup_from_generators(2, 2, gens)
        except StructureError:
            continue
        if G.index_of(h) > 400:
            continue
        assert normal_core(G, h) == brute_force_core(coset_space(G, h)), h
        checked += 1


# ---------------------------------------------------------------- cosets

def test_coset_space_of_even_integers():
    G = AffineGroup.from_generators([("t", translation((1,), 1))])
    h = subgroup_from_parts(hermite_normal_form(((2,),)), [identity_element(1, 1)])
    cs = coset_space(G, h)
    assert cs.index == 2
    assert cs.gen_perms["t"] == (1, 0)


def test_coset_space_fo_level_one_has_105_cosets():
    G = klein_group()
    cs = coset_space(G, fo_level(1))
    assert cs.index == 105
    for perm in cs.gen_perms.values():
        assert sorted(perm) == list(range(105))


def test_coset_space_of_pure_bonding_lattice():
    G2 = AffineGroup.from_generators(
        [("t1", translation((1, 0), 1)), ("t2", translation((0, 1), 1))]
    )
    h = subgroup_from_parts(
        hermite_normal_form(((3, 0), (0, 35))), [identity_element(2, 1)]
    )
    assert coset_space(G2, h).index == 105


def test_coset_permutations_compose_homomorphically():
    G = klein_group()
    cs = coset_space(G, fo_level(1, (3, 5)))
    gens = dict(G.generators)
    for a in gens:
        for b in gens:
            pa = cs.gen_perms[a]
            pb = cs.gen_perms[b]
            composed = tuple(pa[pb[i]] for i in range(cs.index))
            assert composed == permutation_of(cs, compose(gens[a], gens[b]))


COSET_CASES = ["klein_fo_level_1", "small_fo_variant_level_2"]


def coset_case(case):
    if case == "klein_fo_level_1":
        return klein_group(), fo_level(1)
    chain = small_fo_variant(2)
    return chain.group, chain.levels[1]


@pytest.mark.parametrize("case", COSET_CASES)
def test_coset_space_computes_one_key_per_generator_image(monkeypatch, case):
    # one step of the step table keys the identity coset, and one more keys
    # each generator image
    group, h = coset_case(case)
    steps = count_calls(monkeypatch, affine, "_step")
    cs = coset_space(group, h)
    monkeypatch.undo()
    assert cs.index == group.index_of(h)
    assert len(steps) == cs.index * len(group.generators) + 1
    # the tables recorded during the walk agree with fresh key lookups
    for name, g in group.generators:
        assert cs.gen_perms[name] == permutation_of(cs, g)
    assert [index_of(cs, rep) for rep in coset_reps(cs)] == list(range(cs.index))


@pytest.mark.parametrize("case", COSET_CASES)
def test_coset_space_scales_each_translation_once(monkeypatch, case):
    # each translation is scaled once, by the validating constructor: the coset
    # keys and their reduction data are built from `scaled`, with no element
    group, h = coset_case(case)
    calls = {"built": 0}
    original = AffineElement.__new__  # the validating constructor

    def counted(cls, *args):
        calls["built"] += 1
        return original(cls, *args)

    monkeypatch.setattr(AffineElement, "__new__", counted)
    cs = coset_space(group, h)
    monkeypatch.undo()
    assert cs.index == group.index_of(h)
    assert calls["built"] == 0


def test_coset_space_respects_index_cap(monkeypatch):
    G = klein_group()
    monkeypatch.setenv("CANTORDYN_INDEX_CAP", "10")
    with pytest.raises(ResourceLimitError):
        coset_space(G, fo_level(1))


def test_subgroup_index_in_nested_levels():
    h1, h2 = fo_level(1), fo_level(2)
    assert subgroup_le(h2, h1)
    assert subgroup_index_in(h2, h1) == 105


def test_closure_from_generators_matches_direct_construction():
    gens = [
        translation((3, 0), 2),
        translation((0, 35), 2),
        AffineElement(D, (F(3, 2), 0), 2),
    ]
    built = subgroup_from_generators(2, 2, gens)
    assert built == fo_level(1)


def test_closure_discovers_hidden_lattice_vectors():
    # the glide squared is a translation the generator list never states
    g = AffineElement(D, (F(1, 2), 0), 2)
    t2 = translation((0, 1), 2)
    h = subgroup_from_generators(2, 2, [g, t2])
    assert contains(h, translation((1, 0), 2))
    assert h.lattice.basis == ((1, 0), (0, 1))


def test_core_is_the_kernel_of_the_coset_representation():
    # independent characterization: the core is exactly the set of elements
    # acting trivially by left multiplication on the coset space
    G = klein_group()
    for h in (fo_level(1, (3, 5)), fo_level(1)):
        core = normal_core(G, h)
        cs = coset_space(G, h)
        identity_perm = tuple(range(cs.index))
        for el in core.generator_elements():
            assert permutation_of(cs, el) == identity_perm
        # the glide class representative of H lies outside the core
        glide = h.reps[1]
        assert permutation_of(cs, glide) != identity_perm
        assert not contains(core, glide)


def test_subgroup_intersection_matches_box_oracle():
    h1 = fo_level(1)
    h1_shift = conjugate(translation((0, 1), 2), h1)
    got = subgroup_intersect(h1, h1_shift)
    box = 6
    want = {
        e.key()
        for e in subgroup_elements_in_box(h1, box)
        if contains(h1_shift, e)
    }
    have = {e.key() for e in subgroup_elements_in_box(got, box)}
    assert want == have
