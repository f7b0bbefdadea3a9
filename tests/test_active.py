import tracemalloc
import weakref

import numpy as np
import pytest

import saptkit.active as active
from saptkit.active import (
    SpacePartition,
    renormalize_electrostatic,
    renormalize_exchange,
    renormalize_vp,
)
from saptkit.errors import PartitionError
from saptkit.fock import (
    FockSpace,
    assemble_electrostatic,
    assemble_exchange,
    assemble_majorana,
    assemble_vp_excitation,
    embed_with_core,
)
from saptkit.tensors import MixedTensors, _Buckets, build_majorana_coefficients
from .conftest import random_dimer, random_sector_state


def embedding_pair(rng, part, space_full, space_act):
    psi_a = random_sector_state(space_act, "A", part.n_act_elec_A, rng)
    psi_b = random_sector_state(space_act, "B", part.n_act_elec_B, rng)
    emb_a = embed_with_core(space_full, "A", list(part.core_A), list(part.active_A), psi_a)
    emb_b = embed_with_core(space_full, "B", list(part.core_B), list(part.active_B), psi_b)
    return (psi_a, psi_b), (emb_a, emb_b)


PARTS = [
    SpacePartition.from_counts([0], [1, 2], [2], [0, 1], 4, 4),
    SpacePartition.from_counts([1], [0, 2], [0], [1, 2], 4, 4),
    SpacePartition.from_counts([2], [0, 1], [1], [2, 0], 3, 4),
]


class TestPartition:
    def test_overlap_rejected(self):
        with pytest.raises(PartitionError):
            SpacePartition((0,), (0, 1), (), (0,), 2, 2)

    def test_electron_budget(self):
        with pytest.raises(PartitionError):
            SpacePartition.from_counts([0, 1], [2], [], [0], 2, 2)

    def test_counts_from_closed_shell_cores(self):
        part = SpacePartition.from_counts([0], [1, 2], [], [0, 1], 6, 2)
        assert part.n_act_elec_A == 4 and part.n_act_elec_B == 2


class TestEmbeddingEquality:
    @pytest.mark.parametrize("part", PARTS)
    def test_frozen_core_expectations(self, rng, part):
        v, s = random_dimer(rng, 3, 3)
        space_full, space_act = FockSpace(3, 3), FockSpace(2, 2)
        (psi_a, psi_b), (emb_a, emb_b) = embedding_pair(rng, part, space_full, space_act)

        full_ops = {
            "V": assemble_electrostatic(space_full, v),
            "P": assemble_exchange(space_full, s),
            "VPs": assemble_vp_excitation(space_full, v, s),
        }
        act_ops = {
            "V": assemble_majorana(space_act, renormalize_electrostatic(v, part)),
            "P": assemble_majorana(space_act, renormalize_exchange(s, part)),
            "VPs": assemble_majorana(space_act, renormalize_vp(v, s, part)),
        }
        tol = {"V": 1e-10, "P": 1e-10, "VPs": 1e-9}
        for kind in full_ops:
            full_val = full_ops[kind].expectation_product(emb_a, emb_b).real
            act_val = act_ops[kind].expectation_product(psi_a, psi_b).real
            assert abs(full_val - act_val) < tol[kind], kind

    def test_active_operators_hermitian(self, rng):
        v, s = random_dimer(rng, 3, 3)
        part = PARTS[0]
        space_act = FockSpace(2, 2)
        for coeffs in (
            renormalize_electrostatic(v, part),
            renormalize_exchange(s, part),
            renormalize_vp(v, s, part),
        ):
            m = assemble_majorana(space_act, coeffs).to_dense()
            assert np.abs(m - m.conj().T).max() < 1e-12


class TestEmptyCoreIdentity:
    def test_blocks_bit_for_bit(self, rng):
        v, s = random_dimer(rng, 2, 3)
        part = SpacePartition.from_counts([], range(2), [], range(3), 2, 4)
        full = build_majorana_coefficients(v, s)["VPs"]
        act = renormalize_vp(v, s, part)
        assert act.constant == full.constant
        assert np.array_equal(act.one_body_A, full.one_body_A)
        assert np.array_equal(act.one_body_B, full.one_body_B)
        for key, block in full.two_body_blocks.items():
            assert np.array_equal(act.two_body_blocks[key], block), key
        assert "2r" not in act.two_body_blocks and "3r" not in act.two_body_blocks

    def test_exchange_and_electrostatic_reduce(self, rng):
        v, s = random_dimer(rng, 2, 2)
        part = SpacePartition.from_counts([], range(2), [], range(2), 2, 2)
        full = build_majorana_coefficients(v, s)
        act_v = renormalize_electrostatic(v, part)
        full_v = full["V"]
        assert np.array_equal(act_v.two_body_blocks["v"], full_v.two_body_blocks["v"])
        act_p = renormalize_exchange(s, part)
        full_p = full["P"]
        assert act_p.constant == full_p.constant
        assert np.array_equal(act_p.one_body_A, full_p.one_body_A)
        # every array, the overlap too, bit for bit
        for act, ref in ((act_v, full_v), (act_p, full_p)):
            want, have = arrays(ref), arrays(act)
            assert set(have) == set(want), ref.observable
            for key, x in want.items():
                assert np.array_equal(have[key], x), (ref.observable, key)


FROZEN_A = SpacePartition.from_counts([0, 1, 2], [], [0], [1, 2], 6, 4)


class TestElectrostaticOverlap:
    @pytest.mark.parametrize("part", [None, *PARTS, FROZEN_A])
    def test_v_set_holds_no_overlap(self, rng, part):
        # S enters P and VPs only; the V set carries none, full or cored
        v, s = random_dimer(rng, 3, 3)
        if part is None:
            assert build_majorana_coefficients(v, s)["V"].overlap is None
        else:
            assert renormalize_electrostatic(v, part).overlap is None


class TestDegenerateCases:
    def test_fully_frozen_is_scalar(self, rng):
        v, _ = random_dimer(rng, 2, 2)
        part = SpacePartition.from_counts([0, 1], [], [0, 1], [], 4, 4)
        coeffs = renormalize_electrostatic(v, part)
        expected = 4.0 * np.einsum("iijj->", v)
        assert coeffs.constant == pytest.approx(expected)

    def test_empty_active_shell_rejected_for_fold(self, rng):
        v, _ = random_dimer(rng, 2, 2)
        part = SpacePartition.from_counts([0], [1], [0], [1], 2, 2)
        with pytest.raises(PartitionError):
            renormalize_electrostatic(v, part)

    def test_hybrid_blocks_refused_with_a_core(self, rng):
        # the core contractions have no hybrid terms
        v, s = random_dimer(rng, 3, 3)
        mixed = MixedTensors(*(np.zeros((3, 3, 3, 3)) for _ in range(3)))
        v, s, part = active.active_order(v, s, PARTS[0])
        with pytest.raises(PartitionError):
            active.coefficient_sets(v, s, part, "active", mixed)

    def test_zero_overlap_gives_zero_active_exchange(self, rng):
        v, _ = random_dimer(rng, 3, 3)
        s = np.zeros((3, 3))
        part = PARTS[0]
        space_act = FockSpace(2, 2)
        p_op = assemble_majorana(space_act, renormalize_exchange(s, part))
        vp_op = assemble_majorana(space_act, renormalize_vp(v, s, part))
        assert p_op.norm_estimate(rng) < 1e-14
        assert vp_op.norm_estimate(rng) < 1e-14


# block label -> label of its mirror when the monomers swap roles
MIRROR_LABELS = {"A2": "B2", "B2": "A2", "2": "3", "3": "2", "2r": "3r", "3r": "2r"}


def mirrored(c):
    """Arrays of a coefficient set, relabelled as if the monomers swapped roles."""
    out = {"constant": np.array(c.constant), "one_body_A": c.one_body_B,
           "one_body_B": c.one_body_A}
    if c.overlap is not None:
        out["overlap"] = c.overlap.T
    if c.vp4_one_body_A is not None:
        out["vp4_one_body_A"], out["vp4_one_body_B"] = c.vp4_one_body_B, c.vp4_one_body_A
    for label, block in c.two_body_blocks.items():
        swapped = block if label in ("A2", "B2") else block.transpose(2, 3, 0, 1)
        out[MIRROR_LABELS.get(label, label)] = swapped
    return out


def arrays(c):
    out = {"constant": np.array(c.constant), "one_body_A": c.one_body_A,
           "one_body_B": c.one_body_B, **c.two_body_blocks}
    if c.overlap is not None:
        out["overlap"] = c.overlap
    if c.vp4_one_body_A is not None:
        out["vp4_one_body_A"], out["vp4_one_body_B"] = c.vp4_one_body_A, c.vp4_one_body_B
    return out


class TestSwapCovariance:
    """Exchanging the monomers, (v, S) -> (v[q,q,p,p], S.T), mirrors every coefficient set."""

    CORES = {"none": ([], []), "A": ([1], []), "B": ([], [0, 2]), "both": ([1], [0, 2])}

    @pytest.mark.parametrize("cores", ["full", *CORES])
    def test_swapped_dimer_gives_mirrored_coefficients(self, rng, cores):
        v, s = random_dimer(rng, 3, 4)
        v_sw, s_sw = v.transpose(2, 3, 0, 1), s.T
        if cores == "full":
            pairs = zip(build_majorana_coefficients(v, s).values(),
                        build_majorana_coefficients(v_sw, s_sw).values())
        else:
            core_a, core_b = self.CORES[cores]
            # keep one orbital of B virtual so that active and total ranges differ
            act_a = [p for p in range(3) if p not in core_a]
            act_b = [q for q in range(3) if q not in core_b]
            part = SpacePartition.from_counts(core_a, act_a, core_b, act_b, 2 * len(core_a) + 1,
                                              2 * len(core_b) + 2)
            part_sw = SpacePartition.from_counts(core_b, act_b, core_a, act_a, 2 * len(core_b) + 2,
                                                 2 * len(core_a) + 1)
            pairs = [
                (renormalize_electrostatic(v, part), renormalize_electrostatic(v_sw, part_sw)),
                (renormalize_exchange(s, part), renormalize_exchange(s_sw, part_sw)),
                (renormalize_vp(v, s, part), renormalize_vp(v_sw, s_sw, part_sw)),
            ]
        for ref, got in pairs:
            want, have = mirrored(ref), arrays(got)
            assert set(have) == set(want), ref.observable
            scale = max(np.abs(x).max(initial=0.0) for x in want.values())
            for key, x in want.items():
                diff = np.abs(have[key] - x).max(initial=0.0)
                assert diff <= 1e-13 * scale, (ref.observable, key)
        if cores == "both":
            assert {"2r", "3r"} <= set(ref.two_body_blocks)


class TestDressedLifetimes:
    """The frozen-core build holds one dressed tensor at a time, as the
    full-space build does: nu1 once, nu2 and nu3 once for their active slices
    and again for the core terms."""

    CORED = SpacePartition.from_counts([0, 1, 2], range(3, 12), [0, 1], range(2, 10), 10, 8)

    def test_each_dressed_tensor_freed_before_the_next(self, rng, monkeypatch):
        # with no core there are no core terms, so nu2 and nu3 are computed once
        v, s = random_dimer(rng, 12, 10)
        no_core = SpacePartition.from_counts([], range(12), [], range(10), 4, 4)
        refs, dressed = [], active._dressed

        def tracked(k, *args):
            assert all(ref() is None for _, ref in refs), [k for k, ref in refs if ref()]
            nu = dressed(k, *args)
            refs.append((k, weakref.ref(nu)))
            return nu

        monkeypatch.setattr(active, "_dressed", tracked)
        for part, calls in ((self.CORED, [1, 2, 3, 2, 3]), (no_core, [1, 2, 3])):
            refs.clear()
            renormalize_vp(v, s, part)
            assert [k for k, _ in refs] == calls
            assert all(ref() is None for _, ref in refs)

    def test_traced_peak_below_three_dressed_tensors(self, rng):
        # beyond its buckets (the returned blocks) and its reordered copy of v,
        # the build needs the dressed tensor being computed (the contraction and
        # its C-contiguous copy) and one reduction's temporaries; holding nu1,
        # nu2 and nu3 together as well, as it once did, exceeds three tensors
        v, s = random_dimer(rng, 12, 10)
        renormalize_vp(v, s, self.CORED)  # cached contraction paths, imports
        n_a, n_b = s.shape
        nta, ntb = len(self.CORED.active_A), len(self.CORED.active_B)
        buckets = sum(x.nbytes for x in vars(_Buckets.zeros(nta, ntb)).values())
        dressed = 8 * max(n_a * n_b * n_b * n_a, n_a**3 * n_b, n_a * n_b**3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            renormalize_vp(v, s, self.CORED)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < buckets + v.nbytes + 3 * dressed

    def test_build_in_order_makes_no_reordered_copy(self, rng):
        # on tensors already in active-then-core order the build reads them as
        # given: the bound of the reordered build, without room for its copy of v
        v, s = random_dimer(rng, 12, 10)
        ia, ib = active._order(self.CORED, *s.shape)
        v, s = v[np.ix_(ia, ia, ib, ib)], s[np.ix_(ia, ib)]
        part = SpacePartition.from_counts(range(9, 12), range(9), range(8, 10), range(8), 10, 8)
        renormalize_vp(v, s, part)
        n_a, n_b = s.shape
        buckets = sum(x.nbytes for x in vars(_Buckets.zeros(9, 8)).values())
        dressed = 8 * max(n_a * n_b * n_b * n_a, n_a**3 * n_b, n_a * n_b**3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            renormalize_vp(v, s, part)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < buckets + 3 * dressed


class TestInputsUntouched:
    """The renormalized sets only read their tensors, in any orbital order:
    a reordered build reads a gathered copy, one in order the arrays as given."""

    ORDERS = {
        "cores first": SpacePartition.from_counts([0, 1], range(2, 5), [0], range(1, 4), 6, 4),
        "core inside": SpacePartition.from_counts([2], [0, 1, 3, 4], [1], [0, 2, 3], 6, 4),
        "in order": SpacePartition.from_counts([3, 4], range(3), [3], range(3), 6, 4),
        "no core": SpacePartition.from_counts([], range(5), [], range(4), 2, 2),
    }

    @pytest.mark.parametrize("order", ORDERS)
    def test_inputs_unmodified(self, rng, order):
        v, s = random_dimer(rng, 5, 4)
        want = v.tobytes(), s.tobytes()
        for x in (v, s):
            x.flags.writeable = False  # an in-place write raises
        part = self.ORDERS[order]
        sets = [renormalize_electrostatic(v, part), renormalize_exchange(s, part),
                renormalize_vp(v, s, part)]
        assert (v.tobytes(), s.tobytes()) == want
        assert all(not np.shares_memory(block, v) for c in sets for block in arrays(c).values())
