import itertools

import numpy as np
import pytest

from saptkit.active import (
    SpacePartition,
    renormalize_electrostatic,
    renormalize_exchange,
    renormalize_vp,
)
from saptkit.factorize import decompose_matrix, factorize_block, factorize_coefficients
from saptkit.norms import (
    block_factor_sum,
    df_hamiltonian_norm,
    factorize_monomer_hamiltonian,
    format_table,
    sparse_norms,
    tf_norm,
    tf_norms,
)
from saptkit.tensors import build_majorana_coefficients, sym_v4
from .conftest import random_dimer


class TestSparse:
    def test_all_zero(self):
        coeffs = build_majorana_coefficients(np.zeros((2, 2, 2, 2)), np.zeros((2, 2)))
        for c in coeffs.values():
            assert sparse_norms(c).total == 0.0

    def test_single_entry_electrostatic(self):
        c = -0.4
        v = np.full((1, 1, 1, 1), c)
        rep = sparse_norms(build_majorana_coefficients(v, np.zeros((1, 1)))["V"])
        assert rep.total == pytest.approx(3 * abs(c))

    def test_matches_loop_oracle(self, rng):
        v, s = random_dimer(rng, 2, 2)
        coeffs = build_majorana_coefficients(v, s)["V"]
        rep = sparse_norms(coeffs)
        f_a = np.einsum("abqq->ab", v)
        f_b = np.einsum("ppab->ab", v)
        ref = sum(
            abs(f_a[i, j]) + abs(f_b[i, j]) for i, j in itertools.product(range(2), repeat=2)
        ) + sum(abs(v[i]) for i in np.ndindex(2, 2, 2, 2))
        assert rep.total == pytest.approx(ref, rel=1e-12)

    def test_components_nonnegative_and_additive(self, rng):
        v, s = random_dimer(rng, 3, 2)
        for c in build_majorana_coefficients(v, s).values():
            rep = sparse_norms(c)
            assert all(val >= 0 for val in rep.components.values())
            assert rep.total == pytest.approx(sum(rep.components.values()))


class TestTensorFactorized:
    def test_exchange_hand_value(self):
        s = np.diag([1.0, 0.5])
        coeffs = build_majorana_coefficients(np.zeros((2, 2, 2, 2)), s)["P"]
        rep = tf_norm(factorize_coefficients(coeffs))
        assert rep.total == pytest.approx(2.375)
        assert rep.lambda_s == pytest.approx(1.5)

    def test_zero_factors(self):
        coeffs = build_majorana_coefficients(np.zeros((2, 2, 2, 2)), np.zeros((2, 2)))
        for c in coeffs.values():
            assert tf_norm(factorize_coefficients(c)).total == 0.0

    def test_fullspace_exchange_identity(self, rng):
        # the general one-body form collapses to the overlap-square form
        _, s = random_dimer(rng, 3, 4)
        coeffs = build_majorana_coefficients(np.zeros((3, 3, 4, 4)), s)["P"]
        rep = tf_norm(factorize_coefficients(coeffs))
        s_n = np.linalg.svd(s, compute_uv=False)
        main_text = 0.5 * s_n.sum() ** 2 + (s_n**2).sum()
        assert rep.total == pytest.approx(main_text, rel=1e-12)

    def test_trace_norm_inequality_all_blocks(self, rng):
        v, s = random_dimer(rng, 3, 3)
        coeffs = build_majorana_coefficients(v, s)
        for c in coeffs.values():
            fop = factorize_coefficients(c)
            for label, bf in fop.blocks.items():
                entrywise = np.abs(c.two_body_blocks[label]).sum()
                assert np.abs(bf.outer.values).sum() <= entrywise + 1e-10, label

    def test_scaling_linear_in_coulomb(self, rng):
        v, s = random_dimer(rng, 2, 2)
        base = tf_norm(factorize_coefficients(build_majorana_coefficients(v, s)["V"]))
        scaled = tf_norm(factorize_coefficients(build_majorana_coefficients(3.0 * v, s)["V"]))
        assert scaled.total == pytest.approx(3.0 * base.total, rel=1e-10)

    def test_exchange_scales_quadratically(self, rng):
        _, s = random_dimer(rng, 2, 2, s_scale=0.3)
        zero_v = np.zeros((2, 2, 2, 2))
        base = tf_norm(factorize_coefficients(build_majorana_coefficients(zero_v, s)["P"]))
        scaled = tf_norm(
            factorize_coefficients(build_majorana_coefficients(zero_v, 2.0 * s)["P"])
        )
        assert scaled.total == pytest.approx(4.0 * base.total, rel=1e-10)

    def test_vp4_composition(self, rng):
        v, s = random_dimer(rng, 2, 2)
        fop = factorize_coefficients(build_majorana_coefficients(v, s)["VPs"])
        rep = tf_norm(fop)
        lam_p = (
            0.5 * np.abs(fop.one_body["p_A"].values).sum()
            + 0.5 * np.abs(fop.one_body["p_B"].values).sum()
            + 0.5 * fop.lambda_s**2
        )
        assert rep.components["VP_4"] == lam_p * block_factor_sum(fop.blocks["v"])

    def test_both_totals_exposed(self, rng):
        v, s = random_dimer(rng, 2, 2)
        rep = tf_norm(factorize_coefficients(build_majorana_coefficients(v, s)["VPs"]))
        assert set(rep.excluded) == {"VP_2", "VP_3"}
        assert rep.total_with_excluded >= rep.total

    @pytest.mark.parametrize("dropped", [("2",), ("3",), ("2", "3")])
    def test_excluded_component_without_its_blocks_is_left_out(self, rng, dropped):
        v, s = random_dimer(rng, 2, 2)
        coeffs = build_majorana_coefficients(v, s)["VPs"]
        full = tf_norm(factorize_coefficients(coeffs))
        for k in dropped:
            del coeffs.two_body_blocks[k]
        rep = tf_norm(factorize_coefficients(coeffs))
        gone = {f"VP_{k}" for k in dropped}
        assert set(rep.excluded) == {"VP_2", "VP_3"} - gone
        assert rep.components == full.components and rep.total == full.total
        assert {k: full.excluded[k] for k in rep.excluded} == rep.excluded
        assert ("excluded_components" in rep.to_dict()) == (len(gone) < 2)

    def test_mapping_api(self, rng):
        v, s = random_dimer(rng, 2, 2)
        fops = {
            k: factorize_coefficients(c) for k, c in build_majorana_coefficients(v, s).items()
        }
        reports = tf_norms(fops)
        assert set(reports) == {"V", "P", "VPs"}
        table = format_table(list(reports.values()))
        assert "tensor_factorized" in table


class TestRepresentationParity:
    """Both representations read one formula: same components, same exclusions."""

    @pytest.mark.parametrize("frozen", [False, True])
    def test_same_component_and_excluded_keys(self, rng, frozen):
        v, s = random_dimer(rng, 3, 3)
        if frozen:
            part = SpacePartition.from_counts([0], [1, 2], [2], [0, 1], 4, 4)
            sets = {
                "V": renormalize_electrostatic(v, part),
                "P": renormalize_exchange(s, part),
                "VPs": renormalize_vp(v, s, part),
            }
            assert {"2r", "3r"} <= set(sets["VPs"].two_body_blocks)
        else:
            sets = build_majorana_coefficients(v, s)
        for obs, coeffs in sets.items():
            sparse, tf = sparse_norms(coeffs), tf_norm(factorize_coefficients(coeffs))
            assert list(sparse.components) == list(tf.components), obs
            assert list(sparse.excluded) == list(tf.excluded), obs
        assert list(tf.excluded) == ["VP_2", "VP_3"]


class TestDfHamiltonian:
    def test_zero(self):
        assert df_hamiltonian_norm(np.zeros(3), []) == 0.0

    def test_one_body_only(self):
        assert df_hamiltonian_norm(np.array([2.0, -2.0]), []) == pytest.approx(2.0)

    def test_two_body_square(self):
        lam = df_hamiltonian_norm(np.zeros(1), [(2.0, np.array([1.0, -1.0]))])
        assert lam == pytest.approx(0.25 * 2.0 * 4.0)

    def test_factorized_hamiltonian(self, rng):
        h1 = rng.normal(size=(3, 3))
        h1 = 0.5 * (h1 + h1.T)
        eri = sym_v4(rng.normal(size=(3, 3, 3, 3)))
        eri = 0.5 * (eri + eri.transpose(2, 3, 0, 1))
        eigs, factors = factorize_monomer_hamiltonian(h1, eri)
        lam = df_hamiltonian_norm(eigs, factors)
        assert lam > 0
        t_eff = h1 - 0.5 * np.einsum("prrq->pq", eri) + np.einsum("pqrr->pq", eri)
        assert 0.5 * np.abs(eigs).sum() == pytest.approx(
            np.abs(np.linalg.eigvalsh(t_eff)).sum()
        )


def df_norm_reference(h1, eri):
    """lambda_DF from the full nested factorization of eri, inner vectors and all."""
    t_eff = h1 - 0.5 * np.einsum("prrq->pq", eri) + np.einsum("pqrr->pq", eri)
    bf = factorize_block(eri, "A2")
    pairs = [(s_t, f.values) for s_t, f in zip(bf.outer.values, bf.inner_left)]
    return df_hamiltonian_norm(decompose_matrix(2.0 * t_eff, symmetric=True).values, pairs), bf


def grouped_sum(n, mats, weights):
    """eri with grouped matrix sum_t w_t vec(M_t) vec(M_t)^T over Frobenius-orthonormal M_t."""
    q, _ = np.linalg.qr(np.stack([m.ravel() for m in mats], axis=1))
    return np.einsum("t,it,jt->ij", weights, q, q).reshape(n, n, n, n)


class TestDfSpectra:
    """factorize_monomer_hamiltonian reads inner spectra only; lambda must not move."""

    def check(self, rng, eri):
        h1 = rng.normal(size=eri.shape[:2])
        h1 = 0.5 * (h1 + h1.T)
        eigs, pairs = factorize_monomer_hamiltonian(h1, eri)
        want, bf = df_norm_reference(h1, eri)
        assert [len(alphas) for _, alphas in pairs] == [f.rank for f in bf.inner_left]
        assert df_hamiltonian_norm(eigs, pairs) == pytest.approx(want, rel=1e-12, abs=0)
        # the DF two-body term is the nested factor sum of eri as an A2 block
        a2 = 0.5 * np.abs(eigs).sum() + 0.25 * block_factor_sum(factorize_block(eri, "A2"))
        assert df_hamiltonian_norm(eigs, pairs) == pytest.approx(a2, rel=1e-12, abs=0)
        return bf

    def test_random_eightfold_eri(self, rng):
        eri = sym_v4(rng.normal(size=(5, 5, 5, 5)))
        bf = self.check(rng, 0.5 * (eri + eri.transpose(2, 3, 0, 1)))
        assert all(f.symmetric for f in bf.inner_left)

    def test_asymmetric_slices_take_the_svd_branch(self, rng):
        n = 4
        sym, anti = (rng.normal(size=(2, n, n)) for _ in range(2))
        mats = [*(sym + sym.transpose(0, 2, 1)), *(anti - anti.transpose(0, 2, 1))]
        bf = self.check(rng, grouped_sum(n, mats, [3.0, -2.0, 1.5, 0.5]))
        assert {f.symmetric for f in bf.inner_left} == {True, False}

    def test_rank_deficient_eri_hits_the_cutoff(self, rng):
        n = 6
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
        # orthogonal rank-2 slices whose small value sits well above the cutoff
        mats = [np.outer(u[:, t], u[:, t]) + 1e-8 * np.outer(u[:, 3 + t], u[:, 3 + t])
                for t in range(3)]
        bf = self.check(rng, grouped_sum(n, mats, [2.0, 1.0, -0.5]))
        assert bf.outer.rank == 3 and all(f.rank == 2 for f in bf.inner_left)

    def test_zero_eri(self, rng):
        assert self.check(rng, np.zeros((3, 3, 3, 3))).outer.rank == 0
