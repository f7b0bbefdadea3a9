import itertools

import numpy as np
import pytest

from saptkit import factorize
from saptkit.errors import ShapeError, SymmetryError
from saptkit.tensors import (
    MixedTensors,
    build_dressed_nu,
    build_electrostatic_coefficients,
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
        d = build_dressed_nu(v, s)
        assert not d.nu1.any() and not d.nu2.any() and not d.nu3.any()
        mixed = MixedTensors(
            m1=rng.normal(size=(2, 3, 3, 2)),
            m2=rng.normal(size=(2, 2, 3, 2)),
            m3=rng.normal(size=(2, 3, 3, 3)),
        )
        d = build_dressed_nu(v, s, mixed)
        assert np.array_equal(d.nu1, mixed.m1)
        assert np.array_equal(d.nu2, mixed.m2)
        assert np.array_equal(d.nu3, mixed.m3)

    def test_zero_coulomb_gives_zero(self, rng):
        _, s = random_dimer(rng, 2, 2)
        d = build_dressed_nu(np.zeros((2, 2, 2, 2)), s)
        for arr in (d.nu1, d.nu2, d.nu3):
            assert not arr.any()

    def test_against_index_loop_reference(self, rng):
        v, s = random_dimer(rng, 2, 2)
        d = build_dressed_nu(v, s)
        n = 2
        for p1, q2, q1, p2 in itertools.product(range(n), repeat=4):
            ref = sum(
                v[p1, p3, q1, q3] * s[p3, q2] * s[p2, q3]
                for p3 in range(n)
                for q3 in range(n)
            )
            assert d.nu1[p1, q2, q1, p2] == pytest.approx(ref, abs=1e-13)
        for p1, p2, q1, p4 in itertools.product(range(n), repeat=4):
            ref = -sum(v[p1, p2, q1, q3] * s[p4, q3] for q3 in range(n))
            assert d.nu2[p1, p2, q1, p4] == pytest.approx(ref, abs=1e-13)
        for p1, q4, q1, q2 in itertools.product(range(n), repeat=4):
            ref = -sum(v[p1, p3, q1, q2] * s[p3, q4] for p3 in range(n))
            assert d.nu3[p1, q4, q1, q2] == pytest.approx(ref, abs=1e-13)


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

    def test_electrostatic_alone_projects_raw_v(self, rng):
        raw = rng.normal(size=(3, 3, 2, 2))
        coeffs = build_electrostatic_coefficients(raw, np.zeros((3, 2)))
        assert np.array_equal(coeffs.two_body_blocks["v"], sym_v4(raw))
        f_a, f_b = one_body_f(raw)
        assert np.array_equal(coeffs.one_body_A, f_a) and np.array_equal(coeffs.one_body_B, f_b)

    def test_shared_blocks_factorizes_the_shared_array_once(self, rng, monkeypatch):
        v, s = random_dimer(rng, 3, 2)
        coeffs = build_majorana_coefficients(v, s)
        made, compared = [], []
        factorize_block, array_equal = factorize.factorize_block, np.array_equal

        def counted(block, label):
            made.append(label)
            return factorize_block(block, label)

        monkeypatch.setattr(factorize, "factorize_block", counted)
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        shared = factorize.shared_blocks([coeffs["V"], coeffs["VPs"]])
        assert list(shared) == ["v"] and made == ["v"]
        assert compared == []  # identical objects need no comparison
