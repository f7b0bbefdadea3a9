import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from saptkit import fock
from saptkit.errors import ShapeError
from saptkit.fock import (
    FockSpace,
    PairSum,
    assemble_electrostatic,
    assemble_exchange,
    assemble_majorana,
    assemble_modified_factors,
    assemble_vp_excitation,
    assemble_vp_majorana_families,
    build_operator_matrix,
    embed_with_core,
    first_order_energy,
    one_body_matrix,
    shared_span_tensors,
    verify_complete_basis,
)
from saptkit.tensors import build_majorana_coefficients
from .conftest import half_weighted_dressing, random_dimer, random_sector_state


def dense_ops(space, v, s, mixed=None):
    coeffs = build_majorana_coefficients(v, s, mixed)
    out = {}
    for kind in ("V", "P", "VPs"):
        exc = build_operator_matrix(space, kind, (v, s), form="excitation", mixed=mixed)
        maj = build_operator_matrix(space, kind, coeffs[kind], form="majorana")
        out[kind] = (exc, maj)
    return out


class TestEquivalence:
    @pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 2), (2, 2)])
    def test_majorana_matches_excitation_dense(self, rng, n_a, n_b):
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        for kind, (exc, maj) in dense_ops(space, v, s).items():
            de, dm = exc.to_dense(), maj.to_dense()
            assert np.abs(de - dm).max() < 1e-12, kind
            assert np.abs(de - de.conj().T).max() < 1e-12, kind

    def test_majorana_matches_excitation_probes(self, rng):
        v, s = random_dimer(rng, 3, 3)
        space = FockSpace(3, 3)
        for kind, (exc, maj) in dense_ops(space, v, s).items():
            diff = (exc + maj.scaled(-1.0)).norm_estimate(rng)
            assert diff < 1e-12, kind

    def test_with_hybrid_blocks(self, rng):
        v, s, mixed = shared_span_tensors(2, rng)
        space = FockSpace(2, 2)
        for kind, (exc, maj) in dense_ops(space, v, s, mixed).items():
            assert np.abs(exc.to_dense() - maj.to_dense()).max() < 1e-12, kind

    def test_number_conservation(self, rng):
        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        num_a = space.monomer("A").number
        num_b = space.monomer("B").number
        n_op = PairSum(space).add_monomer("A", num_a) + PairSum(space).add_monomer("B", num_b)
        for kind, (exc, _) in dense_ops(space, v, s).items():
            comm = (exc @ n_op) + (n_op @ exc).scaled(-1.0)
            assert comm.norm_estimate(rng) < 1e-12, kind

    def test_zero_overlap_kills_exchange_operators(self, rng):
        v, _ = random_dimer(rng, 2, 2)
        s = np.zeros((2, 2))
        space = FockSpace(2, 2)
        assert assemble_exchange(space, s).norm_estimate(rng) == 0.0
        assert assemble_vp_excitation(space, v, s).norm_estimate(rng) < 1e-14


class TestHandCases:
    def test_electrostatic_is_density_product(self):
        c = 0.37
        v = np.full((1, 1, 1, 1), c)
        space = FockSpace(1, 1)
        op = assemble_electrostatic(space, v).to_dense()
        num_a = space.monomer("A").number
        num_b = space.monomer("B").number
        assert np.abs(op - c * np.kron(num_a, num_b)).max() < 1e-13

    def test_exchange_expectation_identical_orbitals(self):
        # two aligned-spin single-electron monomers with the same orbital
        space = FockSpace(1, 1)
        op = assemble_exchange(space, np.eye(1))
        psi_a = np.zeros(4, dtype=complex)
        psi_a[space.sector_indices("A", 1, sz=0.5)[0]] = 1.0
        psi_b = psi_a.copy()
        assert op.expectation_product(psi_a, psi_b).real == pytest.approx(-1.0)
        # opposite spins exchange into an orthogonal state
        psi_b = np.zeros(4, dtype=complex)
        psi_b[space.sector_indices("B", 1, sz=-0.5)[0]] = 1.0
        assert op.expectation_product(psi_a, psi_b).real == pytest.approx(0.0)

    def test_vp4_is_symmetric_product(self, rng):
        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        coeffs = build_majorana_coefficients(v, s)["VPs"]
        fams = assemble_vp_majorana_families(space, coeffs)
        v_mod, p_mod = assemble_modified_factors(space, coeffs)
        vm, pm = v_mod.to_dense(), p_mod.to_dense()
        ref = 0.5 * (vm @ pm + pm @ vm)
        got = fams["VP_4"].to_dense()
        assert np.abs(got - ref).max() < 1e-12


class TestDressingVariant:
    def test_plain_dressing_is_canonical(self, rng):
        # the half-weighted (barred) dressing does not reproduce the
        # product-ordered operator; the plain dressing does by construction
        from saptkit.fock import family_lock, family_g2, family_g3
        from saptkit.tensors import build_dressed_nu

        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        d = build_dressed_nu(v, s)
        nubar_lock, nubar_dir = half_weighted_dressing(v, s)
        canonical = assemble_vp_excitation(space, v, s)

        t_bar = nubar_lock.transpose(0, 3, 2, 1)
        variant = (
            family_lock(space, t_bar, "E").scaled(-1.0)
            + family_dir_tensor(space, nubar_dir)
            + family_g2(space, d.nu2, s, "E").scaled(-1.0)
            + family_g3(space, d.nu3, s, "E").scaled(-1.0)
            + (assemble_electrostatic(space, v) @ assemble_exchange(space, s))
        ).hermitized()
        diff = (canonical + variant.scaled(-1.0)).norm_estimate(rng)
        assert diff > 1e-3

    def test_kind_dispatch(self, rng):
        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        coeffs = build_majorana_coefficients(v, s)["VPs"]
        vp4 = build_operator_matrix(space, "VP_4", coeffs)
        total = build_operator_matrix(space, "VPs", coeffs, form="majorana")
        assert vp4.norm_estimate(rng) <= total.norm_estimate(rng) + 1e-9
        h1 = np.eye(2)
        eri = np.zeros((2, 2, 2, 2))
        h_op = build_operator_matrix(space, "H_A", (h1, eri))
        num_a = space.monomer("A").number
        assert np.abs(h_op.pairs[0][0] - num_a).max() < 1e-12


def family_dir_tensor(space, tensor):
    from saptkit.fock import family_dir

    return family_dir(space, tensor, "E").scaled(-1.0)


def _terms(name, T, S, na, nb):
    """(coefficient, factors) of every term of one family, by brute-force loops.

    A factor (monomer, spin, p, q) stands for X^spin_monomer(p q); the factors
    of one term multiply in the listed order.
    """
    ra, rb, r2 = range(na), range(nb), range(2)
    prod = itertools.product
    if name == "lock":
        for s, a, b, q, r in prod(r2, ra, ra, rb, rb):
            yield T[a, b, q, r], [("A", s, a, b), ("B", s, q, r)]
    elif name == "dir":
        for s, t, a, b, q, r in prod(r2, r2, ra, ra, rb, rb):
            yield T[a, b, q, r], [("A", s, a, b), ("B", t, q, r)]
    elif name in ("intra_A", "intra_B"):
        m = name[-1]
        rm = ra if m == "A" else rb
        for s, t, a, b, c, d in prod(r2, r2, rm, rm, rm, rm):
            yield T[a, b, c, d], [(m, s, a, b), (m, t, c, d)]
    elif name in ("g2", "g2r"):
        for s, t, a, b, c, d, q, r in prod(r2, r2, ra, ra, ra, ra, rb, rb):
            coef = T[a, b, q, d] * S[c, r] if name == "g2" else T[a, b, r, c] * S[d, q]
            yield coef, [("A", s, a, b), ("A", t, c, d), ("B", t, q, r)]
    else:  # g3, g3r
        for s, t, a, b, q, r, c, d in prod(r2, r2, ra, ra, rb, rb, rb, rb):
            coef = T[a, d, q, r] * S[b, c] if name == "g3" else T[b, c, q, r] * S[a, d]
            yield coef, [("A", t, a, b), ("B", s, q, r), ("B", t, c, d)]


def dense_family_reference(space, name, T, S, basis):
    """Dense dimer matrix of one family from factors lifted by np.kron."""
    eye = {"A": np.eye(space.dim_A), "B": np.eye(space.dim_B)}
    lifted = {}
    for m in "AB":
        table = getattr(space.monomer(m), basis)
        for s, p, q in np.ndindex(table.shape[:3]):
            x = table[s, p, q]
            mat = np.kron(x, eye["B"]) if m == "A" else np.kron(eye["A"], x)
            lifted[m, s, p, q] = sparse.csr_matrix(mat)
    out = sparse.csr_matrix((space.dim, space.dim), dtype=complex)
    for coef, factors in _terms(name, T, S, space.n_orb_A, space.n_orb_B):
        term = sparse.identity(space.dim, dtype=complex, format="csr")
        for f in factors:
            term = term @ lifted[f]
        out = out + coef * term
    return out.toarray()


FAMILY_SHAPES = {
    "lock": "aabb", "dir": "aabb", "intra_A": "aaaa", "intra_B": "bbbb",
    "g2": "aaba", "g2r": "aaba", "g3": "abbb", "g3r": "abbb",
}


class TestFamilyReference:
    @pytest.mark.parametrize("basis", ["E", "w"])
    @pytest.mark.parametrize("n_a,n_b", [(1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("name", list(FAMILY_SHAPES))
    def test_matches_dense_loops(self, rng, name, n_a, n_b, basis):
        space = FockSpace(n_a, n_b)
        T = rng.normal(size=[n_a if c == "a" else n_b for c in FAMILY_SHAPES[name]])
        S = rng.normal(size=(n_a, n_b))
        if name.startswith("intra"):
            op = fock.family_intra(space, name[-1], T, basis)
        elif name in ("lock", "dir"):
            op = getattr(fock, f"family_{name}")(space, T, basis)
        else:
            op = getattr(fock, f"family_{name}")(space, T, S, basis)
        ref = dense_family_reference(space, name, T, S, basis)
        assert np.abs(op.to_dense() - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())
        # pairs are keyed by the one-body basis of the monomer with one factor
        n_key = n_a if name in ("g3", "g3r") else n_b
        expected = 1 if name.startswith("intra") else 2 * n_key**2
        assert len(op.pairs) == expected


class TestRealOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_match_majorana_reference(self, n):
        ops = fock._monomer_ops(n)
        for table in (ops.adag, ops.E, ops.w, ops.number):
            assert table.dtype == np.float64
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        z = np.diag([1.0, -1.0]).astype(complex)
        for m in range(2 * n):
            ref = np.ones((1, 1), dtype=complex)
            for f in [z] * m + [(x - 1j * y) / 2] + [np.eye(2)] * (2 * n - m - 1):
                ref = np.kron(ref, f)
            assert not ref.imag.any()
            assert np.array_equal(ops.adag[m], ref.real)

    def test_assembled_pairs_and_probes_are_real(self, rng, monkeypatch):
        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        probe_dtypes = []
        apply_block = PairSum.apply_block

        def recording_apply(op, vecs):
            probe_dtypes.append(vecs.dtype)
            return apply_block(op, vecs)

        monkeypatch.setattr(PairSum, "apply_block", recording_apply)
        for kind, (exc, maj) in dense_ops(space, v, s).items():
            for op in (exc, maj):
                assert all(a.dtype == b.dtype == np.float64 for a, b in op.pairs), kind
                op.norm_estimate(rng)
        assert probe_dtypes and set(probe_dtypes) == {np.dtype(np.float64)}


class TestSizeGuard:
    def test_oversized_monomer_rejected_before_allocation(self):
        misses = fock._monomer_ops.cache_info().misses
        with pytest.raises(ShapeError):
            FockSpace(1, 7)
        assert fock._monomer_ops.cache_info().misses == misses

    def test_dimer_cap_rejects_5x4(self):
        misses = fock._monomer_ops.cache_info().misses
        with pytest.raises(ShapeError):
            FockSpace(5, 4)
        assert fock._monomer_ops.cache_info().misses == misses

    def test_largest_allowed_dimer_constructs(self):
        assert FockSpace(5, 3).dim == 2**16


class TestCompleteBasis:
    def test_shared_span_cancellation(self):
        residual = verify_complete_basis(2, np.random.default_rng(7))
        assert residual < 1e-10

    def test_perturbation_sensitivity(self):
        residual = verify_complete_basis(2, np.random.default_rng(7), s_perturbation=1e-3)
        assert residual > 1e-4


class TestStatesAndEnergies:
    def test_energy_zero_operators(self, rng):
        space = FockSpace(1, 1)
        zero = {k: PairSum(space) for k in ("V", "P", "VPs")}
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        res = first_order_energy(zero, psi, psi)
        assert res == {"E_pol": 0.0, "E_exch": 0.0, "E_int": 0.0}

    def test_zero_overlap_energy_is_polarization(self, rng):
        v, _ = random_dimer(rng, 2, 2)
        s = np.zeros((2, 2))
        space = FockSpace(2, 2)
        ops = {
            "V": assemble_electrostatic(space, v),
            "P": assemble_exchange(space, s),
            "VPs": assemble_vp_excitation(space, v, s),
        }
        psi_a = random_sector_state(space, "A", 2, rng)
        psi_b = random_sector_state(space, "B", 2, rng)
        res = first_order_energy(ops, psi_a, psi_b)
        assert res["E_exch"] == pytest.approx(0.0, abs=1e-12)
        assert res["E_int"] == pytest.approx(res["E_pol"])

    def test_rotation_covariance(self, rng):
        n = 2
        v, s = random_dimer(rng, n, n)
        space = FockSpace(n, n)
        k_a = rng.normal(size=(n, n))
        k_a = 0.1 * (k_a - k_a.T)
        k_b = rng.normal(size=(n, n))
        k_b = 0.1 * (k_b - k_b.T)
        o_a, o_b = expm(k_a), expm(k_b)
        v_rot = np.einsum("abcd,ap,bq,cr,ds->pqrs", v, o_a, o_a, o_b, o_b, optimize=True)
        s_rot = o_a.T @ s @ o_b
        g_a = expm(one_body_matrix(space, "A", k_a, "E"))
        g_b = expm(one_body_matrix(space, "B", k_b, "E"))

        def ops(vv, ss):
            return {
                "V": assemble_electrostatic(space, vv),
                "P": assemble_exchange(space, ss),
                "VPs": assemble_vp_excitation(space, vv, ss),
            }

        psi_a = random_sector_state(space, "A", 2, rng)
        psi_b = random_sector_state(space, "B", 2, rng)
        res_rot = first_order_energy(ops(v_rot, s_rot), psi_a, psi_b)
        res_ref = first_order_energy(ops(v, s), g_a @ psi_a, g_b @ psi_b)
        for key in res_ref:
            assert res_rot[key] == pytest.approx(res_ref[key], abs=1e-10)


class TestEmbedding:
    def test_embedding_preserves_norm_and_counts(self, rng):
        space_full = FockSpace(3, 2)
        space_act = FockSpace(2, 2)
        psi = random_sector_state(space_act, "A", 2, rng)
        emb = embed_with_core(space_full, "A", [0], [1, 2], psi)
        assert np.linalg.norm(emb) == pytest.approx(1.0)
        num = space_full.monomer("A").number
        assert (emb.conj() @ num @ emb).real == pytest.approx(4.0)
