"""Every resource cap and budget of the package.  A cap refuses work before it
starts (ResourceLimitError, exit 3); a budget stops a word ball layer-atomically.
Cells are stored entries: pair ranks, ball permutation entries, window images."""

import os

from .errors import ResourceLimitError, StructureError

DEFAULT_INDEX_CAP = 10 ** 6  # cosets of one coset space
INDEX_CAP_ENV = "CANTORDYN_INDEX_CAP"
CLASS_CAP = 4096  # point classes of one subgroup's closure
CELL_CAP = 16_000_000  # 4000 ** 2
SCHREIER_SIZE_CAP = 1024  # addresses of an orbit graph whose diameter is computed
BALL_BUDGET = 20000  # word-ball permutations, before the coding chain escalates
CODING_BUDGET = 200000  # the coding chain's largest escalated ball budget


def index_cap():
    raw = os.environ.get(INDEX_CAP_ENV)
    if raw is None:
        return DEFAULT_INDEX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise StructureError(f"{INDEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise StructureError(f"{INDEX_CAP_ENV} must be positive")
    return cap


def check_index_cap(index):
    """Refuse a coset space of more than index_cap() cosets."""
    cap = index_cap()
    if index > cap:
        raise ResourceLimitError(f"coset index {index} exceeds the cap {cap}")


def check_cells(count, what):
    """Refuse work that would store more than CELL_CAP cells."""
    if count > CELL_CAP:
        raise ResourceLimitError(
            f"{what} need {count} cells but the cell cap is {CELL_CAP}"
        )


def ball_cap(budget, n):
    """The most permutations of n addresses a word ball may hold: the budget,
    clamped to CELL_CAP cells.  A layer that could pass the cap is counted
    by hashes before any of its keys is stored, so, true hash collisions
    aside, the ball never holds more keys than this, even in a layer it
    cuts."""
    return min(budget, CELL_CAP // n)
