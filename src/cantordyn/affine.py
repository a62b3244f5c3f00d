"""Exact algebra of affine crystallographic groups over the integers.

Elements are pairs (A, v): x -> A x + v with A an integer matrix of
determinant +-1 and finite order, and v a rational vector whose entries have
denominators dividing a group-wide integer d.  An element stores v scaled by
d, as integers (`scaled`); `trans` reads v back as Fractions.  The public
constructor validates once, at the boundary; products, inverses and lattice
reductions of validated elements keep det +-1 and the denominator, so they
are built unchecked.  Generated groups are closed by a breadth-first walk
over point classes whose Schreier generators span the translation lattice.
Finite-index subgroups are stored as a translation lattice in canonical
Hermite form together with one affine representative per point-part class.
All arithmetic is exact; there is no floating point anywhere in this module.
"""

from collections import namedtuple
from fractions import Fraction
from operator import mul

from . import _intmat as im
from .errors import ResourceLimitError, StructureError
from .limits import CLASS_CAP, check_index_cap, index_cap

DEFAULT_ORDER_BOUND = 12


def _point_key(a):
    return tuple(x for row in a for x in row)


def _square_hnf(rows):
    """The square Hermite basis of the columns of `rows`, canonical
    upper-triangular; None below full rank."""
    h, pivots = im.column_hnf(rows)
    n = len(rows)
    return tuple(row[:n] for row in h) if len(pivots) == n else None


def _check_point(point):
    """A point part is unimodular when its columns span Z^n: full rank, and a
    Hermite diagonal of product |det| = 1."""
    basis = _square_hnf(point)
    size = IntegerLattice(basis).index() if basis else 0
    if size != 1:
        raise StructureError(f"point part must be unimodular, got |determinant| {size}")
    if im.matrix_order(point, DEFAULT_ORDER_BOUND) is None:
        raise StructureError(
            f"point part order exceeds the bound {DEFAULT_ORDER_BOUND}"
        )


class AffineElement(namedtuple("AffineElement", "point scaled denom")):
    """An affine map x -> point @ x + scaled / denom, exact.

    The public constructor takes the translation as rationals and validates."""

    __slots__ = ()

    def __new__(cls, point, trans, denom):
        point = tuple(tuple(int(x) for x in row) for row in point)
        trans = tuple(Fraction(x) for x in trans)
        n = len(point)
        if any(len(row) != n for row in point) or len(trans) != n:
            raise StructureError("point part must be square and match the translation length")
        if denom < 1:
            raise StructureError("denominator must be a positive integer")
        _check_point(point)
        for t in trans:
            if (t * denom).denominator != 1:
                raise StructureError(f"translation entry {t} is not a multiple of 1/{denom}")
        return _element(point, tuple(int(t * denom) for t in trans), denom)

    @property
    def trans(self):
        return tuple(Fraction(x, self.denom) for x in self.scaled)

    @property
    def dimension(self):
        return len(self.point)

    def is_identity(self):
        return self.point == im.identity(self.dimension) and not any(self.scaled)

    def inverse(self):
        # the point part's Hermite form is I = A U, so its transform U is A^-1
        inv = im.column_hnf(self.point, with_transform=True)[2]
        v = tuple(-x for x in im.mat_vec(inv, self.scaled))
        return _element(inv, v, self.denom)

    def key(self):
        return (_point_key(self.point), self.scaled)

    def __repr__(self):
        return f"AffineElement(point={self.point!r}, trans={self.trans!r}, denom={self.denom})"

    def __str__(self):
        rows = ";".join(",".join(str(x) for x in row) for row in self.point)
        vec = ",".join(str(t) for t in self.trans)
        return f"[{rows}]|({vec})"


def _element(point, scaled, denom):
    """The element (point, scaled / denom), unchecked: only for products,
    inverses and lattice reductions of validated elements."""
    return tuple.__new__(AffineElement, (point, scaled, denom))


def identity_element(n, denom=1):
    return AffineElement(im.identity(n), (0,) * n, denom)


def translation(v, denom=1):
    return AffineElement(im.identity(len(v)), v, denom)


def compose(a, b):
    """Group law: (A,v)(B,w) = (AB, v + A w); apply b first, then a."""
    if a.dimension != b.dimension:
        raise StructureError("dimension mismatch in composition")
    if a.denom != b.denom:
        raise StructureError("denominator mismatch in composition")
    point = im.mat_mul(a.point, b.point)
    return _element(point, im.vec_add(a.scaled, im.mat_vec(a.point, b.scaled)), a.denom)


class IntegerLattice(namedtuple("IntegerLattice", "basis")):
    """Full-rank sublattice of Z^n with canonical upper-triangular HNF basis.

    The basis is taken as given: every lattice the package builds comes out
    of `column_hnf` (through `hermite_normal_form` or `lattice_from_columns`,
    which refuse a singular or rank-deficient input), or is a positive
    multiple (`scale`) or an exact quotient of one, which stays canonical."""

    __slots__ = ()

    def __new__(cls, basis):
        return super().__new__(cls, tuple(map(tuple, basis)))

    @property
    def dimension(self):
        return len(self.basis)

    def index(self):
        """Index of the lattice in Z^n: the product of the diagonal."""
        p = 1
        for i in range(self.dimension):
            p *= self.basis[i][i]
        return p

    def _pivots(self):
        return tuple(range(self.dimension))

    def contains(self, v):
        return not any(self.reduce(v))

    def reduce(self, v):
        """Canonical representative of v + L in the fundamental box."""
        return im.echelon_divmod(self.basis, self._pivots(), v)[1]

    def transform(self, a):
        """The lattice A * L for an integer matrix A with det != 0."""
        return hermite_normal_form(im.mat_mul(a, self.basis))

    def scale(self, c):
        """The lattice c * L for a positive integer c: c times a canonical
        basis is canonical."""
        return IntegerLattice(tuple(tuple(c * x for x in row) for row in self.basis))

    def contains_lattice(self, other):
        n = self.dimension
        return all(
            self.contains(tuple(other.basis[i][j] for i in range(n))) for j in range(n)
        )

    def column(self, j):
        return tuple(self.basis[i][j] for i in range(self.dimension))

    def __str__(self):
        return "[" + ";".join(",".join(str(x) for x in row) for row in self.basis) + "]"


def hermite_normal_form(m):
    """Canonical HNF lattice spanned by the columns of a nonsingular matrix."""
    basis = _square_hnf(tuple(tuple(int(x) for x in row) for row in m))
    if basis is None:
        raise StructureError("degenerate lattice: matrix is singular")
    return IntegerLattice(basis)


def lattice_from_columns(n, cols):
    """The lattice spanned by integer columns of length n, which must have rank n."""
    basis = _square_hnf(tuple(tuple(c[i] for c in cols) for i in range(n)))
    if basis is None:
        raise StructureError(
            "translation lattice is not full rank; the subgroup has infinite index"
        )
    return IntegerLattice(basis)


def _stacked_hnf(l1, l2):
    """Column HNF H = [B1 | -B2] U of two lattice bases, and L1 & L2.

    A solution z of H z = t gives (x, y) = U z with B1 x - B2 y = t.  The
    last n columns of U span the kernel B1 x = B2 y, so B1 times their x
    parts spans the intersection.
    """
    if l1.dimension != l2.dimension:
        raise StructureError("dimension mismatch in lattice intersection")
    n = l1.dimension
    rows = tuple(r1 + tuple(-x for x in r2) for r1, r2 in zip(l1.basis, l2.basis))
    h, pivots, u = im.column_hnf(rows, with_transform=True)
    kernel_x = tuple(row[n:] for row in u[:n])
    return h, pivots, u, hermite_normal_form(im.mat_mul(l1.basis, kernel_x))


class FiniteIndexSubgroup(namedtuple("FiniteIndexSubgroup", "lattice reps")):
    """Translation lattice plus one affine representative per point class.

    The group is the union over representatives r of the cosets r * T(lattice).
    Invariants: the representative list is closed under composition modulo
    lattice translations, the lattice is stable under every representative's
    point part, the identity-point representative comes first, and all
    translation parts are reduced modulo the lattice.
    """

    __slots__ = ()

    def __new__(cls, lattice, reps):
        if not reps:
            raise StructureError("subgroup needs at least one representative")
        return super().__new__(cls, lattice, tuple(reps))

    @property
    def dimension(self):
        return self.reps[0].dimension

    @property
    def denom(self):
        return self.reps[0].denom

    def point_parts(self):
        return [r.point for r in self.reps]

    def rep_for_point(self, point):
        for r in self.reps:
            if r.point == point:
                return r
        return None

    def num_classes(self):
        return len(self.reps)

    def lattice_elements(self):
        """The lattice basis vectors as translation elements."""
        d, n = self.denom, self.dimension
        return [
            _element(im.identity(n), tuple(d * x for x in self.lattice.column(j)), d)
            for j in range(n)
        ]

    def generator_elements(self):
        """Representatives plus lattice translations: a generating set."""
        return [r for r in self.reps if not r.is_identity()] + self.lattice_elements()

    def __str__(self):
        reps = ", ".join(str(r) for r in self.reps)
        return f"<lattice={self.lattice} reps=[{reps}]>"


def _canonical_reps(lattice, reps):
    n = reps[0].dimension
    denom = reps[0].denom
    scaled = lattice.scale(denom)
    by_point = {r.point: _element(r.point, scaled.reduce(r.scaled), denom) for r in reps}
    ident = im.identity(n)
    if any(by_point[ident].scaled):
        raise StructureError("identity point class does not contain the identity")
    rest = sorted(
        (r for p, r in by_point.items() if p != ident), key=AffineElement.key
    )
    return tuple([by_point[ident]] + rest)


def subgroup_from_parts(lattice, reps, *, validate=True):
    """Build a canonical FiniteIndexSubgroup from a lattice and class reps."""
    reps = list(reps)
    n = reps[0].dimension
    ident = im.identity(n)
    if all(r.point != ident for r in reps):
        reps.append(_element(ident, (0,) * n, reps[0].denom))
    canon = _canonical_reps(lattice, reps)
    h = FiniteIndexSubgroup(lattice, canon)
    if validate:
        _validate_subgroup(h)
    return h


def _validate_subgroup(h):
    # lattice stable under every point part
    for r in h.reps:
        if h.lattice.transform(r.point) != h.lattice:
            raise StructureError(
                f"lattice is not stable under point part of {r}"
            )
    # closure: product of any two reps lands in a known class modulo the lattice
    for a in h.reps:
        for b in h.reps:
            prod = compose(a, b)
            if not contains(h, prod):
                raise StructureError(
                    f"representatives not closed: {a} * {b} leaves the subgroup"
                )
    # inverses stay inside
    for a in h.reps:
        if not contains(h, a.inverse()):
            raise StructureError(f"representative inverse {a} leaves the subgroup")


def contains(h, g):
    """Exact membership: g = r * t_v for a class rep r and lattice vector v."""
    if g.dimension != h.dimension:
        raise StructureError("dimension mismatch in membership test")
    if g.denom != h.denom:
        raise StructureError("denominator mismatch in membership test")
    r = h.rep_for_point(g.point)
    if r is None:
        return False
    d = h.denom
    diff = im.vec_sub(g.scaled, r.scaled)
    if any(x % d for x in diff):
        return False
    return h.lattice.contains(tuple(x // d for x in diff))


def subgroup_from_generators(n, denom, generators):
    """Closure of a finite generating set into lattice + class-rep normal form.

    A breadth-first walk over point classes keeps the first scaled translation
    of each class, the translation of its transversal element r_c.  Each new
    class's point is checked once, as the constructor checks a point part.  By
    Schreier's lemma the translations of r_c s r_cs^-1, for classes c and
    generators s, generate the translation subgroup: each is the difference
    between the translation of r_c s and the one kept for its class.
    """
    gens = list(generators)
    for g in gens:
        if g.dimension != n or g.denom != denom:
            raise StructureError("generator dimension/denominator mismatch")
    ident = im.identity(n)
    classes = {ident: (0,) * n}  # point matrix -> scaled translation of r_c
    schreier = []  # the nonzero scaled translations of r_c s r_cs^-1
    queue = [ident]  # grows while walked
    for point in queue:
        tr = classes[point]
        for g in gens:
            new_point = im.mat_mul(point, g.point)
            new_tr = im.vec_add(tr, im.mat_vec(point, g.scaled))
            old = classes.get(new_point)
            if old is None:
                if len(classes) >= CLASS_CAP:
                    raise ResourceLimitError(
                        f"point class count exceeded the cap {CLASS_CAP}"
                    )
                _check_point(new_point)
                classes[new_point] = new_tr
                queue.append(new_point)
            elif new_tr != old:
                schreier.append(im.vec_sub(new_tr, old))

    scaled = lattice_from_columns(n, schreier)
    if any(x % denom for row in scaled.basis for x in row):
        raise StructureError(
            "translation lattice has fractional entries; rescale coordinates "
            "so identity-point translations are integral"
        )
    lattice = IntegerLattice(tuple(tuple(x // denom for x in row) for row in scaled.basis))
    reps = [_element(p, t, denom) for p, t in classes.items()]
    return subgroup_from_parts(lattice, reps, validate=False)


def conjugate(g, h):
    """Canonical form of g^{-1} H g."""
    ginv = g.inverse()
    lattice = h.lattice.transform(ginv.point)
    reps = [compose(compose(ginv, r), g) for r in h.reps]
    return subgroup_from_parts(lattice, reps, validate=False)


def subgroup_intersect(h1, h2):
    """Intersection of two finite-index subgroups of a common ambient group."""
    if h1.dimension != h2.dimension or h1.denom != h2.denom:
        raise StructureError("subgroup intersection: incompatible operands")
    n, d = h1.dimension, h1.denom
    b1 = h1.lattice.basis
    hh, pivots, u, lat = _stacked_hnf(h1.lattice, h2.lattice)
    reps = []
    for r1 in h1.reps:
        r2 = h2.rep_for_point(r1.point)
        if r2 is None:
            continue
        diff = im.vec_sub(r2.scaled, r1.scaled)
        if any(x % d for x in diff):
            continue
        # solve B1 x - B2 y = diff / d over the integers
        y, rem = im.echelon_divmod(hh, pivots, tuple(x // d for x in diff))
        if any(rem):
            continue
        shift = im.mat_vec(b1, im.mat_vec(u, y)[:n])
        w = im.vec_add(r1.scaled, tuple(d * x for x in shift))
        reps.append(_element(r1.point, w, d))
    return subgroup_from_parts(lat, reps, validate=False)  # an intersection of subgroups is one


def subgroup_le(h1, h2):
    """True iff H1 is contained in H2 (as subgroups of a common group)."""
    if not h2.lattice.contains_lattice(h1.lattice):
        return False
    return all(contains(h2, r) for r in h1.reps)


def element_not_in(h1, h2):
    """Some element of H1 outside H2, or None when H1 <= H2."""
    for t in h1.lattice_elements():
        if not contains(h2, t):
            return t
    for r in h1.reps:
        if not contains(h2, r):
            return r
    return None


class AffineGroup(namedtuple("AffineGroup", "dimension denom generators normal_form")):
    """A fixed-dimension affine presentation: named generators plus denominator.

    `generators` is a tuple of (name, AffineElement); `normal_form` is the
    FiniteIndexSubgroup they generate."""

    __slots__ = ()

    @classmethod
    def from_generators(cls, named_generators, *, denom=None):
        named = tuple((str(name), g) for name, g in named_generators)
        if not named:
            raise StructureError("a group needs at least one generator")
        n = named[0][1].dimension
        d = denom if denom is not None else named[0][1].denom
        nf = subgroup_from_generators(n, d, [g for _, g in named])
        return cls(n, d, named, nf)

    def point_class_order(self):
        """Deterministic point-class ids: identity first, then sorted."""
        ident = im.identity(self.dimension)
        pts = [r.point for r in self.normal_form.reps]
        rest = sorted((p for p in pts if p != ident), key=_point_key)
        ordered = [ident] + rest
        return {p: i for i, p in enumerate(ordered)}

    def contains_subgroup(self, h):
        return subgroup_le(h, self.normal_form)

    def index_of(self, h):
        """Index [G : H]."""
        return subgroup_index_in(h, self.normal_form)

    def __str__(self):
        gens = ", ".join(f"{n}={g}" for n, g in self.generators)
        return f"AffineGroup(n={self.dimension}, d={self.denom}, {gens})"


def subgroup_index_in(h_small, h_big):
    """Index [H_big : H_small] for nested subgroups, via lattice
    determinants and class counts."""
    lat_ratio, rem = divmod(h_small.lattice.index(), h_big.lattice.index())
    if rem:
        raise StructureError("lattices are not nested")
    total, rem = divmod(lat_ratio * h_big.num_classes(), h_small.num_classes())
    if rem:
        raise StructureError("class counts are not nested")
    return total


NormalityVerdict = namedtuple(
    "NormalityVerdict", "normal witness_name witness", defaults=(None, None)
)


def is_normal(g, h):
    """True iff every generator conjugate of H equals H; witness on failure."""
    for name, gen in g.generators:
        if conjugate(gen, h) != h:
            return NormalityVerdict(False, name, gen)
    return NormalityVerdict(True)


def normal_core(g, h):
    """Largest subgroup of H normal in G, by witness-driven intersection.

    Start from K = H; while some generator x has x^-1 K x != K, replace K by
    K & x^-1 K x.  The core of H stays inside K, each step shrinks K strictly
    and the core has finite index, so the loop ends; a normal K inside H lies
    inside the core, so the final K is the core.  No coset space is built.
    """
    core = h
    while True:
        verdict = is_normal(g, core)
        if verdict.normal:
            return core
        core = subgroup_intersect(core, conjugate(verdict.witness, core))


class CosetSpace:
    """Left cosets of H in G in canonical order, with the generator action.

    Coset i is held by its canonical key `keys[i]` = (point class id, reduced
    scaled translation, point): the coset of the element (point, reduced / d).
    `gen_perms` maps each generator name to its left-multiplication
    permutation of the coset indices.
    """

    __slots__ = ("group", "subgroup", "keys", "gen_perms", "index", "_red_data", "_key_index")

    def __init__(self, group, subgroup, keys, gen_perms, red_data, key_index):
        self.group = group
        self.subgroup = subgroup
        self.keys = keys
        self.gen_perms = gen_perms
        self.index = len(keys)
        # per point part the identity's step row; key -> index
        self._red_data = red_data
        self._key_index = key_index

    def index_of_scaled(self, point, scaled_tr):
        """Index of the coset of the element (point, scaled_tr / d)."""
        try:
            return self._key_index[_step(self._red_data[point], scaled_tr)]
        except KeyError:
            raise StructureError("element does not lie in the enumerated coset space")

    def orbit(self, elements):
        """The orbit of the identity coset (the least key, so index 0) under
        left multiplication by `elements`, as indices in breadth-first order,
        and each orbit coset's row of images, one index per element, through
        their step table; the space is finite, so inverses add nothing."""
        table = _step_table(self.group, self._red_data, [(g.point, g.scaled) for g in elements])
        seen, queue, rows = {0}, [0], []  # the queue grows while walked
        for i in queue:
            cid, red, _ = self.keys[i]
            rows.append([self._key_index[_step(step, red)] for step in table[cid]])
            for j in rows[-1]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return queue, rows


def _coset_reduction_data(group, subgroup):
    """Per point part A of G, the identity's step row there: for the rep (B, w)
    of H whose AB has the least class id, A * w scaled, the columns of the
    scaled HNF of A * L_H, that id and AB.  Distinct reps have distinct B, so
    distinct class ids: a coset's key, its elements of least class id reduced
    modulo their lattice, sorts by (class id, reduced translation)."""
    class_ids = group.point_class_order()
    ident = im.identity(group.dimension)
    data = {}
    for p in group.normal_form.point_parts():
        basis = subgroup.lattice.transform(p).scale(group.denom).basis
        by_id = {class_ids[im.mat_mul(p, b.point)]: b for b in subgroup.reps}
        cid = min(by_id)
        b = by_id[cid]
        cols = tuple(  # bottom-up: (pivot row t, pivot, the entries above it)
            (t, basis[t][t], tuple(basis[i][t] for i in range(t)))
            for t in reversed(range(len(basis)))
        )
        data[p] = (ident, im.mat_vec(p, b.scaled), cols, cid, im.mat_mul(p, b.point))
    return data


def _step_table(group, red_data, elements):
    """The coset step kernel: for the class id of each point part p of G, the
    step row of each element (gp, gt), read once off the identity's row at
    gp p: gp, gt plus that row's offset, and its columns, class id and point."""
    table = [None] * len(red_data)
    for p, cid in group.point_class_order().items():
        rows = table[cid] = []
        for gp, gt in elements:
            _, offset, cols, ncid, c = red_data[im.mat_mul(gp, p)]
            rows.append((gp, im.vec_add(gt, offset), cols, ncid, c))
    return table


def _step(row, red):
    """The key of the row's element times the coset (cid, red, p), the row
    taken at cid: one mat-vec, then a bottom-up floor reduction (the basis is
    a full-rank Hermite form, so pivot t sits on row t)."""
    gp, offset, cols, cid, c = row
    v = [sum(map(mul, r, red), o) for r, o in zip(gp, offset)]
    for t, pivot, above in cols:
        q, v[t] = divmod(v[t], pivot)
        if q:
            for i, x in enumerate(above):
                v[i] -= q * x
    return cid, tuple(v), c


def quotient_word_keys(group, normal):
    """(tokens, identity, compose) for `ball._word_ball` on G/N, N normal:
    a word's value is its element's coset key, so two words share a key
    exactly when they act alike on G/H for any H with core N.  Tokens are
    each generator then its inverse, carrying their step-table column; one
    applied after a word left-multiplies its key, well defined as N is normal."""
    red_data = _coset_reduction_data(group, normal)
    signed = [
        ((name, s), e) for name, g in group.generators for s, e in ((1, g), (-1, g.inverse()))
    ]
    table = _step_table(group, red_data, [(e.point, e.scaled) for _, e in signed])
    tokens = [(token, j) for j, (token, _) in enumerate(signed)]

    def compose(key):
        cid, red, _ = key
        rows = table[cid]
        return lambda j: _step(rows[j], red)

    n = group.dimension
    return tokens, _step(red_data[im.identity(n)], (0,) * n), compose


def coset_space(group, subgroup):
    """Enumerate G/H with a deterministic canonical order and generator tables.

    G/H is finite, so the orbit of the identity coset under the generators
    alone (no inverses) is all of G/H.  One breadth-first pass steps each
    coset once per generator through the step table and records the image's
    discovery id; sorting the keys gives the canonical order and the tables.
    """
    cap = index_cap()
    expected = group.index_of(subgroup)
    check_index_cap(expected)
    red_data = _coset_reduction_data(group, subgroup)
    table = _step_table(group, red_data, [(g.point, g.scaled) for _, g in group.generators])

    start = _step(red_data[im.identity(group.dimension)], (0,) * group.dimension)
    keys = [start]  # by discovery id; grows while walked, as the BFS queue
    found = {start: 0}
    images = []  # images[i][g]: discovery id of generator g times coset i
    for cid, red, _ in keys:
        row = []
        for step in table[cid]:
            nkey = _step(step, red)
            j = found.get(nkey)
            if j is None:
                if len(keys) >= cap:
                    raise ResourceLimitError(f"coset enumeration exceeded the cap {cap}")
                j = found[nkey] = len(keys)
                keys.append(nkey)
            row.append(j)
        images.append(row)

    if len(keys) != expected:
        raise StructureError(
            f"coset enumeration found {len(keys)} cosets, expected {expected}"
        )

    canonical = tuple(sorted(keys))
    key_index = dict(zip(canonical, range(len(keys))))
    order = list(map(found.__getitem__, canonical))  # discovery ids, canonically
    position = list(map(key_index.__getitem__, keys))

    gen_perms = {}
    for g, (name, _) in enumerate(group.generators):
        perm = tuple(position[images[old][g]] for old in order)
        if sorted(perm) != list(range(len(keys))):
            raise StructureError(f"generator {name} does not act bijectively")
        gen_perms[name] = perm

    return CosetSpace(group, subgroup, canonical, gen_perms, red_data, key_index)


def coarser_cosets(group, subgroup, keys):
    """The cosets of `subgroup` that the cosets with canonical `keys`, of a
    subgroup of it, lie in: their keys in canonical order, and the index
    among them of each fine coset's image.  Fine keys that cover G give
    every coarse key, in the order `coset_space` gives them."""
    red_data = _coset_reduction_data(group, subgroup)
    images = [_step(red_data[point], red) for _, red, point in keys]
    coarse = sorted(set(images))
    index = {key: i for i, key in enumerate(coarse)}
    return coarse, tuple(map(index.__getitem__, images))
