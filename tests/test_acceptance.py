"""Acceptance suite: one test per criterion, each timed against its budget.

Every expected value here is either trivially forced, verified against the
source construction, or computed by an independent oracle (conjugate
enumeration, orbit search, exact pushforward).  Tolerances do not exist:
every comparison is exact.
"""

import contextlib
import io
import pathlib
import random
import time

import pytest

import cases
from cantordyn import cli
from cantordyn.action import germinal_holonomy, invariant_measure, modulus_table
from cantordyn.affine import contains, coset_space, is_normal, normal_core, translation
from cantordyn.config import parse_config, serialize_config
from cantordyn.report import strip_timing
from cantordyn.tower import interleave, mccord_verdict

from conftest import record_criterion
from helpers import (
    brute_force_core,
    brute_force_pushforward_invariant,
    check_coding_laws,
    reference_action_ball,
)
from modulus_oracle import coding_chain_of, modulus_table_of
from tower_oracle import subgroup_cylinder

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def timed(number, label, budget):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.start
            skipped = exc_type is not None and issubclass(exc_type, pytest.skip.Exception)
            status = "SKIP" if skipped else "FAIL" if exc_type else "PASS"
            record_criterion(number, label, elapsed, status)
            if exc_type is None:
                assert elapsed < budget, (
                    f"criterion {number} took {elapsed:.2f} s, budget {budget} s"
                )
            return False

    return _Timer()


GALLERY_ACTIONS = (
    "vietoris_2_3",
    "vietoris_3_2",
    "vietoris_5_2",
    "fokkink_oversteegen_1",
    "rogers_tollefson_3",
    "small_fo_variant_2",
    "warp_3_2",
    "warp_fiber_only_3_2",
)


def test_criterion_1_positive_control_vietoris():
    with timed(1, "vietoris positive control", 1.0):
        for name in ("vietoris2.cfg", "vietoris3.cfg", "vietoris5.cfg"):
            rc, out = run_cli("classify", str(CONFIG_DIR / name))
            assert rc == 0
            assert "minimal: true" in out
            assert "compatible_up_to_depth: true" in out
            for level in (1, 2, 3, 4):
                assert f"level {level}: normal true" in out
                assert f"level {level}: cofinal_at {level} " in out


def test_criterion_2_negative_control_fokkink_oversteegen():
    with timed(2, "non-homogeneous control at depth 2", 60.0):
        chain = cases.chain("fokkink_oversteegen_2")
        assert chain.levels[0].lattice.basis == ((3, 0), (0, 35))
        assert chain.levels[1].lattice.basis == ((9, 0), (0, 1225))
        witness_expected = translation((0, 1), 2)
        for ell, expected_index in ((1, 105), (2, 11025)):
            level = chain.levels[ell - 1]
            verdict = is_normal(chain.group, level)
            assert not verdict.normal
            assert verdict.witness == witness_expected
            cosets = coset_space(chain.group, level)
            assert cosets.index == expected_index
            core = normal_core(chain.group, level)
            # oracle: the core found by conjugating every coset representative
            assert core == brute_force_core(cosets)
            assert core.lattice == level.lattice  # A^l Z^2
            assert len(core.reps) == 1  # no glide class survives
            assert is_normal(chain.group, core).normal
        mccord = mccord_verdict(chain)
        assert not mccord.compatible
        for rec in mccord.records:
            assert not rec.cofinal
            # re-verify the witness by independent membership calls
            assert contains(chain.levels[-1], rec.witness)
            assert not contains(rec.core, rec.witness)
            assert rec.witness.point == ((1, 0), (0, -1))  # a glide


def test_criterion_3_coding_core_oracle_equivalence():
    with timed(3, "coding blocks equal normal-core cylinders", 30.0):
        for name in (
            "vietoris_2_2",
            "vietoris_2_3",
            "vietoris_2_4",
            "small_fo_variant_3",
            "fokkink_oversteegen_1",
        ):
            chain, tower, action = cases.chain(name), cases.tower(name), cases.action(name)
            result = coding_chain_of(action)
            assert result.levels, chain.label
            for lv in result.levels:
                core = normal_core(
                    chain.group, chain.levels[lv.cylinder_depth - 1]
                )
                cylinder = subgroup_cylinder(tower, core)
                assert lv.v == cylinder, (
                    f"{chain.label} level {lv.level}: coding block differs "
                    f"from the core cylinder at chain level {lv.cylinder_depth}"
                )


def test_criterion_4_coding_laws_zero_violations():
    with timed(4, "coding laws over gallery and random actions", 120.0):
        rng = random.Random(20260810)
        total_checks = 0
        for action in map(cases.action, GALLERY_ACTIONS):
            result = coding_chain_of(action)
            tree = not action.label.startswith("warp")
            total_checks += check_coding_laws(
                action, result, rng=rng, tree_model=tree
            )
        for seed in range(25):
            action = cases.action(f"random_tree_{seed}")
            result = coding_chain_of(action)
            total_checks += check_coding_laws(action, result, rng=rng)
        assert total_checks > 0


def test_criterion_5_equicontinuity_shadow():
    with timed(5, "modulus tables are exact isometry tables", 10.0):
        boundary_chains = (
            "vietoris_2_4",
            "vietoris_3_4",
            "vietoris_5_4",
            "fokkink_oversteegen_1",
            "rogers_tollefson_3",
            "small_fo_variant_2",
        )
        for name in boundary_chains:
            table = modulus_table_of(cases.action(name))
            assert table.is_exact_isometry_table(), name
        # the warp fiber generators are exact isometries of the warp metric
        table = modulus_table(cases.action("warp_fiber_only_3_2"))
        assert table.is_exact_isometry_table()
        for tbl in [table] + [modulus_table_of(cases.action(c)) for c in boundary_chains]:
            rows = tbl.rows
            for (r1, k1), (r2, k2) in zip(rows, rows[1:]):
                assert r1 > r2 and k1 >= k2
            assert rows[-1][1] == min(k for _, k in rows)


def test_criterion_6_invariant_measures_verify_exactly():
    with timed(6, "exact pushforward invariance of returned measures", 5.0):
        for action in map(cases.action, GALLERY_ACTIONS):
            mu = invariant_measure(action)
            assert brute_force_pushforward_invariant(action, mu)  # and total mass 1
        fiber_only = cases.action("warp_fiber_only_3_2")
        mu = invariant_measure(fiber_only)
        assert (mu.support, mu.weight) == ({fiber_only.basepoint}, 1)
        assert brute_force_pushforward_invariant(fiber_only, mu)


def test_criterion_7_holonomy_dichotomy():
    with timed(7, "germ dichotomy: warp fiber vs odometer", 30.0):
        deep = cases.action("warp_6_2")
        verdict = germinal_holonomy(deep, (("g1", 1),), deep.basepoint)
        assert not verdict.trivial
        assert verdict.depth == 6
        action = cases.action("vietoris_2_4")
        words, completed = reference_action_ball(action, 8, 200000)
        assert completed == 8
        for word, perm in words:
            for i in range(len(action.model)):
                if perm[i] == i:
                    germ = germinal_holonomy(action, word, i)
                    assert germ.trivial and germ.depth <= 4


def test_criterion_8_interleaving_criterion():
    with timed(8, "interleaving verdicts with maps and witnesses", 1.0):
        rc, out = run_cli(
            "compare",
            str(CONFIG_DIR / "vietoris2.cfg"),
            str(CONFIG_DIR / "quads.cfg"),
        )
        assert rc == 0
        assert "success: true" in out
        assert "map_a_to_b: 1 1 2 2" in out
        assert "map_b_to_a: 2 4" in out
        rc, out = run_cli(
            "compare",
            str(CONFIG_DIR / "vietoris2.cfg"),
            str(CONFIG_DIR / "triadic.cfg"),
        )
        assert rc == 0
        assert "success: false" in out
        verdict = interleave(cases.chain("vietoris_2_2"), cases.chain("vietoris_3_2"))
        assert verdict.witness.trans[0] % 2 == 1  # odd-element witness
        for name in ("vietoris_2_4", "fokkink_oversteegen_2", "small_fo_variant_2"):
            chain = cases.chain(name)
            self_verdict = interleave(chain, chain)
            assert self_verdict.success
            assert self_verdict.map_ab == tuple(range(1, chain.depth + 1))


def test_criterion_9_determinism_and_round_trips():
    with timed(9, "byte-identical reports and config fixed points", 120.0):
        invocations = [
            ("classify", str(CONFIG_DIR / "vietoris2.cfg")),
            ("classify", str(CONFIG_DIR / "vietoris3.cfg")),
            ("classify", str(CONFIG_DIR / "vietoris5.cfg")),
            ("classify", str(CONFIG_DIR / "fo.cfg"), "--depth", "1"),
            ("classify", str(CONFIG_DIR / "small_fo.cfg"), "--depth", "2"),
            ("classify", str(CONFIG_DIR / "warp.cfg")),
            ("classify", str(CONFIG_DIR / "warp_fiber_only.cfg")),
            ("compare", str(CONFIG_DIR / "vietoris2.cfg"), str(CONFIG_DIR / "quads.cfg")),
            ("compare", str(CONFIG_DIR / "vietoris2.cfg"), str(CONFIG_DIR / "triadic.cfg")),
            ("code", str(CONFIG_DIR / "vietoris2.cfg")),
            ("code", str(CONFIG_DIR / "small_fo.cfg"), "--depth", "2"),
            ("code", str(CONFIG_DIR / "warp.cfg")),
            ("holonomy", str(CONFIG_DIR / "warp.cfg"), "--word", "g1", "--at", "w0"),
            ("measure", str(CONFIG_DIR / "warp_fiber_only.cfg")),
        ]
        for argv in invocations:
            rc1, out1 = run_cli(*argv)
            rc2, out2 = run_cli(*argv)
            assert rc1 == rc2 == 0, argv
            assert strip_timing(out1) == strip_timing(out2), argv
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            cfg = parse_config(path.read_text())
            canon = serialize_config(cfg)
            assert parse_config(canon) == cfg
            assert serialize_config(parse_config(canon)) == canon
