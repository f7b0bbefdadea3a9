import itertools
import weakref

import numpy as np
import pytest

from saptkit import active, factorize, fock, tensors
from saptkit.active import SpacePartition, renormalize_electrostatic
from saptkit.errors import ShapeError, SymmetryError
from saptkit.fock import FockSpace, PairSum, one_body_matrix
from saptkit.tensors import (
    MixedTensors,
    build_dressed_nu,
    build_majorana_coefficients,
    one_body_f,
    sym_joint,
    sym_v4,
    symmetrize_v,
    validate_overlap,
)
from .conftest import random_dimer


class TestSymmetrize:
    def test_sym_v4_is_permutation_average(self, rng):
        v = rng.normal(size=(2, 2, 2, 2))
        got = sym_v4(v)
        for idx in itertools.product(range(2), repeat=4):
            p1, p2, q1, q2 = idx
            expected = 0.25 * (
                v[p1, p2, q1, q2] + v[p2, p1, q1, q2] + v[p1, p2, q2, q1] + v[p2, p1, q2, q1]
            )
            assert got[idx] == pytest.approx(expected, abs=1e-15)

    def test_sym_idempotent(self, rng):
        v = rng.normal(size=(3, 3, 2, 2))
        once = sym_v4(v)
        assert np.array_equal(sym_v4(once), once)

    def test_symmetric_input_unchanged(self, rng):
        v, _ = random_dimer(rng, 3, 2)
        assert np.allclose(sym_v4(v), v, atol=1e-15)

    def test_load_projection_tolerance(self, rng):
        v, _ = random_dimer(rng, 2, 2)
        noisy = v + 1e-12 * rng.normal(size=v.shape)
        cleaned = symmetrize_v(noisy)
        assert np.allclose(cleaned, sym_v4(noisy), atol=1e-15)
        with pytest.raises(SymmetryError):
            symmetrize_v(v + 1e-3 * rng.normal(size=v.shape))

    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_asymmetry_rejected_at_any_scale(self, rng, scale):
        # the norms of v overflow from |v| ~ 1e154; the test must not switch off there
        v, _ = random_dimer(rng, 3, 2)
        v[0, 1, 0, 0] += 1.0  # breaks p1 <-> p2
        with pytest.raises(SymmetryError):
            symmetrize_v(scale * v)
        assert np.array_equal(symmetrize_v(scale * sym_v4(v)), sym_v4(scale * sym_v4(v)))

    def test_shape_checks(self):
        with pytest.raises(ShapeError):
            symmetrize_v(np.zeros((2, 3, 2, 2)))
        with pytest.raises(SymmetryError):
            validate_overlap(np.full((2, 2), 1.5))


class TestDressed:
    def test_zero_overlap_gives_bare_blocks(self, rng):
        v, _ = random_dimer(rng, 2, 3)
        s = np.zeros((2, 3))
        assert not any(nu.any() for nu in build_dressed_nu(v, s))
        mixed = MixedTensors(
            m1=rng.normal(size=(2, 3, 3, 2)),
            m2=rng.normal(size=(2, 2, 3, 2)),
            m3=rng.normal(size=(2, 3, 3, 3)),
        )
        for nu, m in zip(build_dressed_nu(v, s, mixed), (mixed.m1, mixed.m2, mixed.m3)):
            assert np.array_equal(nu, m)

    def test_zero_coulomb_gives_zero(self, rng):
        _, s = random_dimer(rng, 2, 2)
        for arr in build_dressed_nu(np.zeros((2, 2, 2, 2)), s):
            assert not arr.any()

    def test_against_index_loop_reference(self, rng):
        v, s = random_dimer(rng, 2, 2)
        nu1, nu2, nu3 = build_dressed_nu(v, s)
        n = 2
        for p1, q2, q1, p2 in itertools.product(range(n), repeat=4):
            ref = sum(
                v[p1, p3, q1, q3] * s[p3, q2] * s[p2, q3]
                for p3 in range(n)
                for q3 in range(n)
            )
            assert nu1[p1, q2, q1, p2] == pytest.approx(ref, abs=1e-13)
        for p1, p2, q1, p4 in itertools.product(range(n), repeat=4):
            ref = -sum(v[p1, p2, q1, q3] * s[p4, q3] for q3 in range(n))
            assert nu2[p1, p2, q1, p4] == pytest.approx(ref, abs=1e-13)
        for p1, q4, q1, q2 in itertools.product(range(n), repeat=4):
            ref = -sum(v[p1, p3, q1, q2] * s[p3, q4] for p3 in range(n))
            assert nu3[p1, q4, q1, q2] == pytest.approx(ref, abs=1e-13)

    @pytest.mark.parametrize("dims", [(2, 3), (5, 4)])
    def test_absent_hybrid_blocks_equal_zero_ones(self, rng, dims):
        n_a, n_b = dims
        v, s = random_dimer(rng, n_a, n_b)
        zeros = MixedTensors(
            m1=np.zeros((n_a, n_b, n_b, n_a)),
            m2=np.zeros((n_a, n_a, n_b, n_a)),
            m3=np.zeros((n_a, n_b, n_b, n_b)),
        )
        got = list(build_dressed_nu(v, s))
        for nu, ref in zip(got, build_dressed_nu(v, s, zeros), strict=True):
            assert nu.flags.c_contiguous
            assert nu.shape == ref.shape and nu.tobytes() == ref.tobytes()


class TestCoefficients:
    def test_zero_inputs_give_zero_coefficients(self):
        coeffs = build_majorana_coefficients(np.zeros((2, 2, 2, 2)), np.zeros((2, 2)))
        for c in coeffs.values():
            assert c.constant == 0.0
            assert not c.one_body_A.any() and not c.one_body_B.any()
            for block in c.two_body_blocks.values():
                assert not block.any()

    def test_one_orbital_reduction(self):
        c = 0.7
        v = np.full((1, 1, 1, 1), c)
        coeffs = build_majorana_coefficients(v, np.zeros((1, 1)))["V"]
        assert coeffs.constant == pytest.approx(c)
        assert coeffs.one_body_A[0, 0] == pytest.approx(c)
        assert coeffs.one_body_B[0, 0] == pytest.approx(c)

    def test_coulomb_traces(self, rng):
        v, _ = random_dimer(rng, 3, 2)
        f_a, f_b = one_body_f(v)
        assert f_a.shape == (3, 3) and f_b.shape == (2, 2)
        assert np.allclose(f_a, f_a.T) and np.allclose(f_b, f_b.T)

    def test_block_symmetries(self, rng):
        v, s = random_dimer(rng, 3, 2)
        blocks = build_majorana_coefficients(v, s)["VPs"].two_body_blocks
        t = blocks["1m"]
        assert np.allclose(t, t.transpose(1, 0, 2, 3), atol=1e-12)
        assert np.allclose(t, t.transpose(0, 1, 3, 2), atol=1e-12)
        t = blocks["1l"]
        assert np.allclose(t, sym_joint(t), atol=1e-12)
        c = build_majorana_coefficients(v, s)["VPs"]
        assert np.allclose(c.one_body_A, c.one_body_A.T)
        assert np.allclose(c.one_body_B, c.one_body_B.T)


class TestSharedV:
    def test_v_and_vps_hold_one_projected_array(self, rng):
        v, s = random_dimer(rng, 3, 2)
        raw = v + 1e-13 * rng.normal(size=v.shape)
        coeffs = build_majorana_coefficients(raw, s)
        block = coeffs["V"].two_body_blocks["v"]
        assert block is coeffs["VPs"].two_body_blocks["v"]
        assert np.array_equal(block, symmetrize_v(raw))
        # the other VPs blocks are arrays of their own (scaled in place)
        others = [b for label, b in coeffs["VPs"].two_body_blocks.items() if label != "v"]
        for i, a in enumerate(others):
            assert not any(np.shares_memory(a, b) for b in others[i + 1 :] + [block])

    def test_projected_v_is_held_uncopied(self, rng):
        v, s = random_dimer(rng, 3, 2)
        projected = symmetrize_v(v + 1e-13 * rng.normal(size=v.shape))
        assert symmetrize_v(projected) is projected
        assert build_majorana_coefficients(projected, s)["VPs"].two_body_blocks["v"] is projected

    def test_each_dressed_tensor_freed_before_its_converter(self, rng, monkeypatch):
        v, s = random_dimer(rng, 3, 2)
        refs, dressed = [], active._dressed

        def tracked(*args):
            nu = dressed(*args)
            refs.append(weakref.ref(nu))
            return nu

        convert, families = tensors.convert, []

        def checked(bk, family, *args):
            # only the negated copy of the tensor being converted is alive
            assert len(refs) > 0 and all(ref() is None for ref in refs[:-1])
            families.append(family)
            return convert(bk, family, *args)

        monkeypatch.setattr(active, "_dressed", tracked)
        for module in (active, tensors):  # the lock family is reduced in one, g2 in the other
            monkeypatch.setattr(module, "convert", checked)
        build_majorana_coefficients(v, s)
        assert len(refs) == 3 and all(ref() is None for ref in refs)
        assert families == ["lock", "g2", "g2"]

    def test_electrostatic_alone_projects_raw_v(self, rng):
        raw = rng.normal(size=(3, 3, 2, 2))
        all_active = SpacePartition.from_counts([], range(3), [], range(2), 2, 2)
        coeffs = renormalize_electrostatic(raw, all_active)
        assert np.array_equal(coeffs.two_body_blocks["v"], sym_v4(raw))
        f_a, f_b = one_body_f(raw)
        assert np.array_equal(coeffs.one_body_A, f_a) and np.array_equal(coeffs.one_body_B, f_b)

    def test_shared_blocks_factorizes_the_shared_array_once(self, rng, monkeypatch):
        v, s = random_dimer(rng, 3, 2)
        coeffs = build_majorana_coefficients(v, s)
        made, compared = [], []
        factorize_block, array_equal = factorize.factorize_block, np.array_equal

        def counted(block, label, *args):
            made.append(label)
            return factorize_block(block, label, *args)

        monkeypatch.setattr(factorize, "factorize_block", counted)
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        shared = factorize.shared_blocks([coeffs["V"], coeffs["VPs"]])
        assert list(shared) == ["v"] and made == ["v"]
        assert compared == []  # identical objects need no comparison


# coefficient shapes of each family convert reduces, in orbitals of monomer a or b
FAMILY_SHAPES = {
    "one_a": "aa", "lock": "aabb", "dir": "aabb", "aa": "aaaa", "bb": "bbbb",
    "g2": "aaba", "g2r": "aaba", "g3": "abbb", "g3r": "abbb", "t3a": "aabb",
}


def bucket_operator(space, bk, S):
    """The w-basis operator of filled buckets: const I, the one-body terms and
    each two-body bucket as its family."""
    op = PairSum(space).add_scalar(float(bk.const))
    op.add_monomer("A", one_body_matrix(space, "A", bk.h_a, "w"))
    op.add_monomer("B", one_body_matrix(space, "B", bk.h_b, "w"))
    for name, block in (("lock", bk.lock), ("dir", bk.dir), ("aa", bk.aa), ("bb", bk.bb)):
        op = op + fock.family(space, name, [block], "w")
    for name in ("g2", "g2r", "g3", "g3r"):
        op = op + fock.family(space, name, [getattr(bk, name), S], "w")
    return op


class TestFamilyReduction:
    """Each family's E-basis operator equals the w-basis assembly of the buckets
    that convert fills from zeros (plus t3a's all-w term, which it leaves out)."""

    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("family", [*FAMILY_SHAPES, "g2 swapped"])
    def test_buckets_reassemble_the_family(self, rng, family, n_a, n_b):
        space = FockSpace(n_a, n_b)
        name = "g3" if family == "g2 swapped" else family
        T = rng.normal(size=[n_a if c == "a" else n_b for c in FAMILY_SHAPES[name]])
        S = rng.normal(size=(n_a, n_b))
        args = [T]
        if name.startswith("g"):
            args.append(S)
        elif name == "t3a":
            args.append(rng.normal(size=(n_a, n_a)))
        bk = tensors._Buckets.zeros(n_a, n_b)
        if family == "g2 swapped":  # the g3 family, reduced as g2 on the swapped view
            tensors.convert(bk.swapped(), "g2", tensors._swap(T), S.T)
        else:
            tensors.convert(bk, name, *args)
        if name == "one_a":
            ref = PairSum(space).add_monomer("A", one_body_matrix(space, "A", T, "E"))
        else:
            ref = fock.family(space, name, args, "E")
        op = bucket_operator(space, bk, S)
        if name == "t3a":
            op = op + fock.family(space, "t3a", args, "w")
        ref = ref.to_dense()
        assert np.abs(op.to_dense() - ref).max() <= 1e-13 * np.abs(ref).max()
