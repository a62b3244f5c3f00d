"""Small exact integer matrix helpers.

Matrices are tuples of row tuples.  Everything here is exact: entries are
Python ints, never floats (affine translations reach here scaled to integers
over the group's denominator).  There is one elimination, the column Hermite
form, and one back-substitution against it: ranks, determinants up to sign,
inverses, memberships and reductions are all read off the two.
"""


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def mat_vec(a, v):
    return tuple(sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a)))


def vec_add(u, v):
    return tuple(x + y for x, y in zip(u, v))


def vec_sub(u, v):
    return tuple(x - y for x, y in zip(u, v))


def matrix_order(a, bound):
    """Multiplicative order of an integer matrix, or None if it exceeds bound."""
    n = len(a)
    ident = identity(n)
    p = a
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = mat_mul(p, a)
    return None


def _columns_of(rows):
    n = len(rows)
    k = len(rows[0]) if n else 0
    return [[rows[i][j] for i in range(n)] for j in range(k)]


def _rows_of(cols, n):
    return tuple(tuple(col[i] for col in cols) for i in range(n))


def column_hnf(rows, *, with_transform=False):
    """Column-style Hermite form of an n x k integer matrix.

    Returns (H, pivots) or (H, pivots, U) with H = M @ U, U unimodular k x k.
    Pivot columns come first in ascending pivot-row order; column t has its
    positive pivot at row pivots[t] and zeros below it, with the pivot-row
    entries of later columns reduced into [0, pivot).  Remaining columns are
    zero.  A full-rank square input yields the canonical upper-triangular
    basis with positive diagonal and above-diagonal entries in [0, diagonal).
    """
    n = len(rows)
    cols = _columns_of(rows)
    k = len(cols)
    trans = _columns_of(identity(k)) if with_transform else None

    def colop_sub(j, p, q):
        # col_j -= q * col_p
        cj, cp = cols[j], cols[p]
        for i in range(n):
            cj[i] -= q * cp[i]
        if trans is not None:
            tj, tp = trans[j], trans[p]
            for i in range(k):
                tj[i] -= q * tp[i]

    def colswap(a, b):
        if a == b:
            return
        cols[a], cols[b] = cols[b], cols[a]
        if trans is not None:
            trans[a], trans[b] = trans[b], trans[a]

    def colneg(j):
        cols[j] = [-x for x in cols[j]]
        if trans is not None:
            trans[j] = [-x for x in trans[j]]

    # Assign pivots from the bottom row up, parking pivot columns on the right.
    pc = k - 1
    pivot_rows = []  # rows in the order assigned (descending)
    for row in range(n - 1, -1, -1):
        nz = [j for j in range(pc + 1) if cols[j][row] != 0]
        if not nz:
            continue
        while len(nz) > 1:
            nz.sort(key=lambda j: abs(cols[j][row]))
            p = nz[0]
            for j in nz[1:]:
                q = cols[j][row] // cols[p][row]
                colop_sub(j, p, q)
            nz = [j for j in nz if cols[j][row] != 0]
        colswap(pc, nz[0])
        if cols[pc][row] < 0:
            colneg(pc)
        pivot_rows.append(row)
        pc -= 1

    r = len(pivot_rows)
    # Move pivot columns to the front in ascending pivot-row order.  Position
    # k-1 holds the bottom-row pivot and position pc+1 the top-row pivot.
    perm = list(range(pc + 1, k)) + list(range(pc + 1))
    cols = [cols[j] for j in perm]
    if trans is not None:
        trans = [trans[j] for j in perm]
    pivots = tuple(reversed(pivot_rows))

    # Reduce the pivot-row entries of later columns into [0, pivot).
    for j in range(1, r):
        for t in range(j - 1, -1, -1):
            rt = pivots[t]
            piv = cols[t][rt]
            q = cols[j][rt] // piv
            if q:
                colop_sub(j, t, q)

    h = _rows_of(cols, n)
    if with_transform:
        u = _rows_of(trans, k)
        return h, pivots, u
    return h, pivots


def echelon_divmod(h, pivots, v):
    """(y, rem) with v = H y + rem for a column-echelon H, as `column_hnf` gives.

    Pivot rows are processed bottom-up with floor division, leaving each
    pivot-row coordinate of rem in [0, pivot): rem is v's canonical
    representative modulo the column lattice of H, zero exactly when v lies
    in it, and then H y = v.  y has zeros in non-pivot positions.
    """
    n = len(h)
    rem = list(v)
    y = [0] * len(h[0])
    for t in range(len(pivots) - 1, -1, -1):
        r = pivots[t]
        q = y[t] = rem[r] // h[r][t]
        if q:
            for i in range(n):
                rem[i] -= q * h[i][t]
    return tuple(y), tuple(rem)
