"""The tree-metric modulus engine, kept as a test oracle.

The package computes a modulus table only on the rank route
(`action.modulus_table`).  Its one tree model is a chain's boundary action,
whose table `code` and `classify` read off the chain: one row (lam^j, lam^j)
per split level, which the descent gate of `tower.boundary_action` makes true.  The
cylinder engine here computes the table of any tree model from its
permutations, and is itself checked against `helpers.brute_force_modulus_rows`
through `helpers.engine_answers`.  Needs no test helpers.
"""

from cantordyn.action import common_prefix, modulus_table
from cantordyn.ball import ModulusTable
from cantordyn.coding import DEFAULT_WORD_BOUND, ActionWindow, code_window


def cylinder_modulus_rows(action):
    """The pairs within lam^j are the pairs inside one depth-j cylinder, so
    kappa(lam^j) is lam to the least common-prefix length of a depth-j
    cylinder's image under a token, over cylinders with two or more members;
    one row per level j at which some cylinder splits."""
    model = action.model
    addrs = model.addresses
    # the addresses in lexicographic order, and the common-prefix length of
    # each neighbouring pair there: a depth-j cylinder is a run of the order
    # that no split below j cuts
    order = sorted(range(len(addrs)), key=addrs.__getitem__)
    split = [common_prefix(addrs[i], addrs[k]) for i, k in zip(order, order[1:])]
    position = [0] * len(order)
    for t, i in enumerate(order):
        position[i] = t
    # images[g][t]: lexicographic position of token g's image of the t-th address
    images = []
    for name, sign in action.signed_tokens():
        perm = action.token_perm(name, sign)
        images.append([position[perm[i]] for i in order])
    lam = model.metric.lam
    rows = []
    for j in sorted(set(split)):
        cuts = [0] + [t + 1 for t, s in enumerate(split) if s < j] + [len(order)]
        runs = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if hi - lo > 1]
        least = min(
            common_prefix(addrs[order[min(img[lo:hi])]], addrs[order[max(img[lo:hi])]])
            for img in images
            for lo, hi in runs
        )
        rows.append((lam ** j, lam ** least))
    return tuple(rows)


def modulus_table_of(action):
    """The action's modulus table: the cylinder oracle on a tree model, the
    package's rank route on any other."""
    if action.model.is_tree:
        return ModulusTable(cylinder_modulus_rows(action))
    return modulus_table(action)


def coding_chain_of(action, window=None, word_bound=DEFAULT_WORD_BOUND):
    """`code_window` on a window of the action (`ActionWindow`, by default
    `default_window`) with the table of `modulus_table_of`."""
    return code_window(ActionWindow(action, window), modulus_table_of(action), word_bound)
