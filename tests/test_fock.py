import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from saptkit import fock
from saptkit.active import (
    SpacePartition,
    renormalize_electrostatic,
    renormalize_exchange,
    renormalize_vp,
)
from saptkit.archive import demo_archive
from saptkit.errors import DomainError, ShapeError
from saptkit.fock import (
    FockSpace,
    PairSum,
    assemble_electrostatic,
    assemble_exchange,
    assemble_majorana,
    assemble_modified_factors,
    assemble_monomer_hamiltonian,
    assemble_vp_excitation,
    assemble_vp_majorana_families,
    embed_with_core,
    first_order_energy,
    one_body_matrix,
    sector_operator,
    shared_span_tensors,
    verify_complete_basis,
)
from saptkit.factorize import factorize_coefficients
from saptkit.norms import sparse_norms, tf_norm
from saptkit.tensors import build_majorana_coefficients
from saptkit.verify import run_verification
from .conftest import half_weighted_dressing, jw_reference, random_dimer, random_sector_state


SECTOR_WEIGHTS = np.sqrt([1.0, 2.0, 3.0, 5.0])


def reference_counts(space, weights):
    """weights . (N_Aalpha, N_Abeta, N_Balpha, N_Bbeta) from the Pauli-string
    reference tables."""
    op, weights = PairSum(space), iter(weights)
    for m in "AB":
        for count in np.einsum("sppij->sij", jw_reference(space.n_orb(m)).E):
            op.add_monomer(m, next(weights) * count)
    return op


def commutator_norm(op, n_op, rng):
    return ((op @ n_op) + (n_op @ op).scaled(-1.0)).norm_estimate(rng)


def monomer_matrix(f):
    """A pair factor as a dense monomer matrix: a SpinFactor lifted by np.kron."""
    if not isinstance(f, fock.SpinFactor):
        return f
    eye = np.eye(len(f.mat))
    return np.kron(f.mat, eye) if f.spin == 0 else np.kron(eye, f.mat)


def excitation_ops(space, v, s, mixed=None):
    """V, P and VPs assembled from the raw tensors (excitation-operator form)."""
    return {
        "V": assemble_electrostatic(space, v),
        "P": assemble_exchange(space, s),
        "VPs": assemble_vp_excitation(space, v, s, mixed),
    }


def dense_ops(space, v, s, mixed=None):
    coeffs = build_majorana_coefficients(v, s, mixed)
    return {
        kind: (exc, assemble_majorana(space, coeffs[kind]))
        for kind, exc in excitation_ops(space, v, s, mixed).items()
    }


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
        n_op = sector_operator(space)
        for kind, (exc, _) in dense_ops(space, v, s).items():
            assert commutator_norm(exc, n_op, rng) < 1e-12, kind

    @pytest.mark.parametrize("move", ["hop", "spin flip"])
    def test_moved_electron_fails_the_sector_check(self, rng, move):
        space = FockSpace(2, 2)
        adag = jw_reference(2).adag
        if move == "hop":  # a^dag(A, 0 alpha) a(B, 0 alpha) + h.c.
            op = PairSum(space).add(adag[0], adag[0].T)
        else:  # a^dag(A, 0 beta) a(A, 0 alpha) + h.c.
            op = PairSum(space).add_monomer("A", adag[2] @ adag[0].T)
        op = op + op.dagger()
        assert commutator_norm(op, sector_operator(space), rng) > 0.1
        # N_A + N_B, the check it replaces, cannot see either move
        assert commutator_norm(op, reference_counts(space, np.ones(4)), rng) < 1e-12

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
        num = jw_reference(1).number
        assert np.abs(op - c * np.kron(num, num)).max() < 1e-13

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
        from saptkit.fock import family
        from saptkit.tensors import build_dressed_nu

        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        _, nu2, nu3 = build_dressed_nu(v, s)
        nubar_lock, nubar_dir = half_weighted_dressing(v, s)
        canonical = assemble_vp_excitation(space, v, s)

        t_bar = nubar_lock.transpose(0, 3, 2, 1)
        variant = (
            family(space, "lock", [t_bar], "E").scaled(-1.0)
            + family_dir_tensor(space, nubar_dir)
            + family(space, "g2", [nu2, s], "E").scaled(-1.0)
            + family(space, "g3", [nu3, s], "E").scaled(-1.0)
            + (assemble_electrostatic(space, v) @ assemble_exchange(space, s))
        ).hermitized()
        diff = (canonical + variant.scaled(-1.0)).norm_estimate(rng)
        assert diff > 1e-3

    def test_kind_dispatch(self, rng):
        v, s = random_dimer(rng, 2, 2)
        space = FockSpace(2, 2)
        coeffs = build_majorana_coefficients(v, s)["VPs"]
        vp4 = assemble_vp_majorana_families(space, coeffs)["VP_4"]
        total = assemble_majorana(space, coeffs)
        assert vp4.norm_estimate(rng) <= total.norm_estimate(rng) + 1e-9
        h1 = np.eye(2)
        eri = np.zeros((2, 2, 2, 2))
        h_op = assemble_monomer_hamiltonian(space, "A", h1, eri)
        assert np.abs(h_op.pairs[0][0] - jw_reference(2).number).max() < 1e-12


def family_dir_tensor(space, tensor):
    from saptkit.fock import family

    return family(space, "dir", [tensor], "E").scaled(-1.0)


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
    """Dense dimer matrix of one family from reference factors lifted by np.kron."""
    eye = {"A": np.eye(space.dim_A), "B": np.eye(space.dim_B)}
    lifted = {}
    for m in "AB":
        table = getattr(jw_reference(space.n_orb(m)), basis)
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
            op = fock.family(space, "aa" if name[-1] == "A" else "bb", [T], basis)
        elif name in ("lock", "dir"):
            op = fock.family(space, name, [T], basis)
        else:
            op = fock.family(space, name, [T, S], basis)
        ref = dense_family_reference(space, name, T, S, basis)
        assert np.abs(op.to_dense() - ref).max() < 1e-13 * max(1.0, np.abs(ref).max())
        # one pair per one-body basis element of the monomer with one factor
        n_key = n_a if name in ("g3", "g3r") else n_b
        expected = 1 if name.startswith("intra") else 2 * n_key**2
        assert len(op.pairs) == expected


class TestRealOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tables_match_majorana_reference(self, n):
        tables = fock._spin_tables(n)
        for table in tables:
            assert table.dtype == np.float64
        ref, eye = jw_reference(n).adag, np.eye(2**n)
        for p in range(n):
            assert np.array_equal(ref[p], np.kron(tables.adag[p], eye))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_monomer_tables_are_spin_kronecker_products(self, rng, n):
        ref, tables, eye = jw_reference(n), fock._spin_tables(n), np.eye(2**n)
        for basis in ("E", "w"):
            want, got = getattr(ref, basis), getattr(tables, basis)
            for p, q in np.ndindex(n, n):
                assert np.array_equal(want[0, p, q], np.kron(got[p, q], eye)), (basis, p, q)
                assert np.array_equal(want[1, p, q], np.kron(eye, got[p, q])), (basis, p, q)
            h = rng.normal(size=(n, n))
            dense = one_body_matrix(FockSpace(n, 1), "A", h, basis)
            assert np.abs(dense - np.einsum("ab,sabij->ij", h, want)).max() < 1e-13 * np.abs(h).sum()
        space = FockSpace(n, 1)
        assert np.array_equal(one_body_matrix(space, "A", np.eye(n), "E"), ref.number)
        want = kron_dense(reference_counts(space, SECTOR_WEIGHTS))
        assert np.array_equal(kron_dense(sector_operator(space)), want)

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


def kron_dense(op):
    """Dense matrix of an operator from its structure alone: the Kronecker
    product of every pair, and the dense product of every chain's factors.

    The pairs' products come from ``scipy.sparse.kron`` (np.kron's product,
    summed as one COO matrix): at dimension 1024 that is several times faster
    than summing dense np.kron matrices, and exactly equal to it.
    """
    dim = op.space.dim
    kron = [
        sparse.kron(sparse.coo_matrix(monomer_matrix(a)), sparse.coo_matrix(monomer_matrix(b)), format="coo")
        for a, b in op.pairs
    ]
    out = np.zeros((dim, dim))
    if kron:
        entries = [np.concatenate(x) for x in zip(*((k.data, k.row, k.col) for k in kron))]
        out += sparse.coo_matrix((entries[0], (entries[1], entries[2])), shape=(dim, dim)).toarray()
    for c, factors in op.chains:
        out += c * functools.reduce(np.matmul, [kron_dense(f) for f in factors])
    return out


# every size whose dimer dimension is at most 1024; to_dense, which applies each pair
# to the identity, is checked up to dimension 256 (at 1024 it takes seconds per operator)
KRON_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2), (1, 4), (4, 1)]
DENSE_DIM = 256


class TestOperatorAlgebra:
    @pytest.mark.parametrize("n_a,n_b", KRON_SIZES)
    def test_routes_and_difference_match_kron(self, rng, n_a, n_b):
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        vecs = rng.normal(size=(space.dim, 3))
        for kind, (exc, maj) in dense_ops(space, v, s).items():
            ref_exc, ref_maj = kron_dense(exc), kron_dense(maj)
            scale = np.abs(ref_exc).max()  # not that of exc - maj, which is zero up to rounding
            for op, ref in ((exc, ref_exc), (maj, ref_maj), (exc + maj.scaled(-1.0), ref_exc - ref_maj)):
                assert np.abs(op.apply_block(vecs) - ref @ vecs).max() <= 1e-13 * scale, kind
                if space.dim <= DENSE_DIM:
                    assert np.abs(op.to_dense() - ref).max() <= 1e-13 * scale, kind
            assert np.abs(ref_exc - ref_maj).max() <= 1e-12 * max(1.0, scale), kind

    @pytest.mark.parametrize("n_a,n_b", KRON_SIZES)
    def test_products_adjoints_and_scaling(self, rng, n_a, n_b):
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        ops = excitation_ops(space, v, s)
        n_op = reference_counts(space, SECTOR_WEIGHTS)
        dense = {kind: kron_dense(op) for kind, op in ops.items()}
        vp = ops["V"] @ ops["P"]
        vp_ref = dense["V"] @ dense["P"]
        cases = [
            (vp, vp_ref),
            (ops["VPs"] @ n_op, dense["VPs"] @ kron_dense(n_op)),
            (vp.dagger(), vp_ref.T),
            (vp.scaled(-0.3), -0.3 * vp_ref),
            (vp.scaled(-0.3).dagger(), -0.3 * vp_ref.T),
            (vp.hermitized(), 0.5 * (vp_ref + vp_ref.T)),
        ]
        vecs = rng.normal(size=(space.dim, 3))
        for op, ref in cases:
            scale = np.abs(ref).max()
            assert np.abs(op.apply_block(vecs) - ref @ vecs).max() <= 1e-13 * scale
            if space.dim <= DENSE_DIM:
                assert np.abs(op.to_dense() - ref).max() <= 1e-13 * scale

    @pytest.mark.parametrize("n_a,n_b", KRON_SIZES)
    def test_expectation_and_energy_through_a_chain(self, rng, n_a, n_b):
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        ops = excitation_ops(space, v, s)
        assert ops["VPs"].chains  # the V P term stays a product
        psi_a = random_sector_state(space, "A", n_a, rng)
        psi_b = random_sector_state(space, "B", n_b, rng)
        psi = np.kron(psi_a, psi_b)
        ev = {kind: (psi.conj() @ kron_dense(op) @ psi).real for kind, op in ops.items()}
        for kind, op in ops.items():
            assert op.expectation_product(psi_a, psi_b).real == pytest.approx(ev[kind], abs=1e-12)
        res = first_order_energy(ops, psi_a, psi_b)
        assert res["E_pol"] == pytest.approx(ev["V"], abs=1e-12)
        assert res["E_exch"] == pytest.approx(ev["VPs"] - ev["V"] * ev["P"], abs=1e-12)

    def test_product_holds_its_factors(self, rng):
        v, s = random_dimer(rng, 2, 1)
        space = FockSpace(2, 1)
        x, y = assemble_electrostatic(space, v), assemble_exchange(space, s)
        xy = x @ y
        assert xy.pairs == [] and len(xy.chains) == 1
        c, factors = xy.chains[0]
        assert c == 1.0 and len(factors) == 2 and factors[0] is x and factors[1] is y



class TestCompaction:
    @pytest.mark.parametrize("n_a,n_b", [(4, 1), (1, 4)])
    @pytest.mark.parametrize("c", [-1.0, 0.5])
    def test_scaled_keeps_keys_and_copies_one_side(self, rng, n_a, n_b, c):
        """scaled() keeps the pairs in order, shares each larger factor and scales a copy of the smaller."""
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        x = assemble_electrostatic(space, v)
        y = assemble_majorana(space, build_majorana_coefficients(v, s)["V"])
        y_c = y.scaled(c)
        assert len(y_c.pairs) == len(y.pairs) and y_c.chains == y.chains == []
        for (a, b), (a_c, b_c) in zip(y.pairs, y_c.pairs):
            big, small, big_c, small_c = (a, b, a_c, b_c) if a.size > b.size else (b, a, b_c, a_c)
            assert big_c is big and type(small_c) is type(small)
            assert np.array_equal(monomer_matrix(small_c), c * monomer_matrix(small))
        vecs = rng.normal(size=(space.dim, 3))
        want = x.apply_block(vecs) + c * y.apply_block(vecs)
        scale = np.abs(x.apply_block(vecs)).max()  # x - y is zero up to rounding
        assert np.abs((x + y_c).apply_block(vecs) - want).max() <= 1e-15 * scale


class TestFamilyRepeat:
    def test_two_calls_give_bit_equal_pairs(self, rng):
        space = FockSpace(2, 2)
        lam, S = rng.normal(size=(2, 2, 2, 2)), rng.normal(size=(2, 2))
        first = fock.family(space, "g2", [lam, S], "w")
        second = fock.family(space, "g2", [lam, S], "w")
        assert first.pairs and len(second.pairs) == len(first.pairs)
        for (a, b), (a0, b0) in zip(second.pairs, first.pairs):
            assert np.array_equal(monomer_matrix(a), monomer_matrix(a0))
            assert np.array_equal(monomer_matrix(b), monomer_matrix(b0))


class TestSizeGuard:
    def test_oversized_monomer_rejected_before_allocation(self):
        misses = fock._spin_tables.cache_info().misses
        with pytest.raises(ShapeError):
            FockSpace(1, 7)
        assert fock._spin_tables.cache_info().misses == misses

    def test_dimer_cap_rejects_5x4(self):
        misses = fock._spin_tables.cache_info().misses
        with pytest.raises(ShapeError):
            FockSpace(5, 4)
        assert fock._spin_tables.cache_info().misses == misses

    def test_admission_follows_the_model(self):
        for n_a, n_b in itertools.product(range(1, 9), repeat=2):
            over = fock.oracle_bytes(n_a, n_b) > fock.ORACLE_BUDGET
            misses = fock._spin_tables.cache_info().misses
            try:
                FockSpace(n_a, n_b)
            except ShapeError:
                assert over, (n_a, n_b)
                assert fock._spin_tables.cache_info().misses == misses
            else:
                assert not over, (n_a, n_b)
            for bigger in ((n_a + 1, n_b), (n_a, n_b + 1)):
                assert fock.oracle_bytes(*bigger) >= fock.oracle_bytes(n_a, n_b)

    def test_admission_table_and_refusal_message(self):
        admitted = [(a, b) for a in range(1, 5) for b in range(1, 5)] + [(5, 1), (1, 5), (5, 2), (2, 5)]
        refused = [(1, 7), (7, 1), (6, 1), (1, 6), (5, 3), (3, 5), (5, 4), (4, 5), (5, 5)]
        for n_a, n_b in admitted:
            FockSpace(n_a, n_b)
        for n_a, n_b in refused:
            need = f"needs up to {fock.oracle_bytes(n_a, n_b) / 2**30:.2f} GiB, over its 1 GiB"
            with pytest.raises(ShapeError, match=need):
                FockSpace(n_a, n_b)

    # 2x3 is where the model is tightest over the traced peak (about 1.25x, 4x2 1.5x,
    # 5x1 2.0x); there the fixed-size embedding check sets the peak, not the archive
    @pytest.mark.parametrize("n_a, n_b", [(3, 3), (4, 1), (2, 3), (2, 4), (4, 2), (5, 1), (1, 5)])
    def test_model_bounds_traced_verify_peak(self, n_a, n_b, capsys):
        archive = demo_archive(n_a, n_b)
        fock._spin_tables.cache_clear()  # the run builds, and is charged for, its tables
        tracemalloc.start()
        try:
            assert run_verification(archive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "built-in dimer" not in capsys.readouterr().out
        assert peak <= fock.oracle_bytes(n_a, n_b)
        if (n_a, n_b) == (3, 3):
            assert peak < 95 * 2**20
        if (n_a, n_b) == (4, 1):
            assert peak < 36 * 2**20  # half the 72.6 MiB of dense monomer tables


class TestLambdaBound:
    """An LCU's norm is at most its l1 weight: half the spectral width of each
    observable is at most its lambda with the excluded components."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(size=st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]), seed=st.integers(0, 2**32 - 1))
    def test_half_spectral_width_below_lambda(self, size, seed):
        v, s = random_dimer(np.random.default_rng(seed), *size)
        space = FockSpace(*size)
        for kind, c in build_majorana_coefficients(v, s).items():
            eig = np.linalg.eigvalsh(assemble_majorana(space, c).to_dense())
            half_width = 0.5 * (eig[-1] - eig[0])
            for lam in (tf_norm(factorize_coefficients(c)), sparse_norms(c)):
                assert half_width <= lam.total_with_excluded * (1 + 1e-12), (kind, lam.representation)

    # the frozen-core sets are the only ones whose VPs reduction runs the aa,
    # t3a and g2r families; dimers of 2x2 to 3x3 orbitals with one or two cores,
    # at most two active orbitals per monomer
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        size_cores=st.sampled_from([
            ((2, 2), (1, 0)), ((2, 2), (0, 1)), ((2, 2), (1, 1)), ((2, 3), (0, 1)),
            ((3, 2), (1, 0)), ((2, 3), (1, 1)), ((3, 2), (1, 1)), ((3, 3), (1, 1)),
        ]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_half_spectral_width_below_lambda_with_frozen_cores(self, size_cores, seed):
        size, cores = size_cores
        rng = np.random.default_rng(seed)
        v, s = random_dimer(rng, *size)
        core_a, core_b = (list(rng.permutation(n)[:c]) for n, c in zip(size, cores))
        active_a, active_b = (
            [p for p in range(n) if p not in core] for n, core in zip(size, (core_a, core_b))
        )
        n_elec_a, n_elec_b = (
            2 * len(core) + int(rng.integers(1, 2 * len(active) + 1))
            for core, active in ((core_a, active_a), (core_b, active_b))
        )
        part = SpacePartition.from_counts(core_a, active_a, core_b, active_b, n_elec_a, n_elec_b)
        space = FockSpace(len(active_a), len(active_b))
        sets = {
            "V": renormalize_electrostatic(v, part),
            "P": renormalize_exchange(s, part),
            "VPs": renormalize_vp(v, s, part),
        }
        blocks = sets["VPs"].two_body_blocks  # the row-coupled blocks of the g2r reductions
        assert ("2r" in blocks, "3r" in blocks) == (bool(core_b), bool(core_a))
        for kind, c in sets.items():
            eig = np.linalg.eigvalsh(assemble_majorana(space, c).to_dense())
            half_width = 0.5 * (eig[-1] - eig[0])
            for lam in (tf_norm(factorize_coefficients(c)), sparse_norms(c)):
                assert half_width <= lam.total_with_excluded * (1 + 1e-12), (kind, lam.representation)


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
        num = jw_reference(3).number
        assert (emb.conj() @ num @ emb).real == pytest.approx(4.0)

    def test_embedding_matches_creation_strings(self, rng):
        # every core set and every order of both lists up to 3 orbitals, cores
        # between actives included
        for n_full in (1, 2, 3):
            for n_core in range(n_full + 1):
                for core in itertools.permutations(range(n_full), n_core):
                    rest = [p for p in range(n_full) if p not in core]
                    for active in itertools.permutations(rest):
                        dim = 4 ** len(active)
                        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
                        got = embed_with_core(FockSpace(n_full, 1), "A", list(core), list(active), psi)
                        assert np.array_equal(got, reference_embedding(n_full, core, active, psi))

    @pytest.mark.parametrize("core, active", [([0], [0, 1]), ([], [1, 1]), ([0, 0], [1])])
    def test_shared_orbital_is_refused(self, core, active):
        # the scatter would collide two active states on one full state
        with pytest.raises(DomainError, match="distinct"):
            embed_with_core(FockSpace(2, 1), "A", core, active, np.ones(4 ** len(active)))


def creation_string(adag, modes):
    """a^dag_{m_1} ... a^dag_{m_k} on the vacuum."""
    vac = np.eye(len(adag[0]) if len(adag) else 1)[0]
    return functools.reduce(np.matmul, [adag[m] for m in modes], np.eye(len(vac))) @ vac


def reference_embedding(n_full, core, active, psi):
    """Each active state b, signed as its ascending creation string, lifted to
    the creation string of the cores, then the mapped actives, from the
    Pauli-string tables."""
    n_act = len(active)
    act = jw_reference(n_act).adag if n_act else []
    full = jw_reference(n_full).adag
    out = np.zeros(4**n_full, dtype=complex)
    for b in range(len(psi)):
        modes = [m for m in range(2 * n_act) if b >> (2 * n_act - 1 - m) & 1]
        string = [s * n_full + p for s in range(2) for p in core]
        string += [(m // n_act) * n_full + active[m % n_act] for m in modes]
        sign = creation_string(act, modes)[b]
        out += psi[b] * sign * creation_string(full, string)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sector_indices_match_reference_counts(n):
    n_alpha, n_beta = (np.einsum("ppii->i", e) for e in jw_reference(n).E)
    space = FockSpace(n, 1)
    for n_elec in range(2 * n + 1):
        for sz in [None] + [k / 2 for k in range(-n, n + 1)]:
            mask = n_alpha + n_beta == n_elec
            if sz is not None:
                mask &= np.isclose(0.5 * (n_alpha - n_beta), sz)
            assert np.array_equal(space.sector_indices("A", n_elec, sz), np.flatnonzero(mask))
