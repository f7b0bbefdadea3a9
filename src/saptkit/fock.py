"""Brute-force Fock-space oracle for tiny dimers.

Monomer A and monomer B carry independent fermion algebras; the dimer space
is their tensor product, so operators of different monomers commute exactly.
Spin-orbital ordering inside a monomer is spatial-orbital-minor with the
alpha block before the beta block; Jordan-Wigner strings stay inside each
monomer.  The creation operator of mode m is the real Kronecker chain
Z^(x)m (x) sigma+ (x) I (x) ... (x) I with sigma+ = |1><0|, so every table
and every assembled operator is float64; states handed in may be complex.

Two size limits are checked before anything is allocated: the dimer may hold
at most ``MAX_SPIN_ORBITALS`` spin orbitals, which bounds the dimer operators
(products such as V P) the oracle builds, and each monomer at most
``MAX_MONOMER_ORBITALS`` orbitals, which bounds its cached tables.

Operators are held as sums of Kronecker pairs ``sum_i A_i (x) B_i``.  Every
coefficient family has the form sum_spins C * prod_k X^{sigma_k}(p_k q_k),
with X the excitation operators E or the traceless quadratics w = E - delta/2,
and one einsum-driven assembler builds them all.  Its pairs are keyed by the
basis element X^sigma(p q) of the monomer carrying a single factor (B when
both do), so spin sums accumulate into one pair per element; a family on one
monomer is a single monomer pair.

Two assembly routes exist for every observable: the ``excitation`` form
contracts the dressed tensors against excitation-operator products, and the
``majorana`` form assembles the coefficient-set families in the w basis.
Their agreement to 1e-12 is the ground truth the rest of the package leans on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError
from .tensors import (
    MixedTensors,
    SaptCoefficients,
    build_dressed_nu,
)

MAX_SPIN_ORBITALS = 16
# the cached tables of one monomer take 38 MB at 4 orbitals, 0.93 GB at 5 and 21 GB at 6
MAX_MONOMER_ORBITALS = 5


# ---------------------------------------------------------------------------
# single-monomer algebra


class MonomerOps(NamedTuple):
    """Jordan-Wigner tables of one monomer.

    ``adag`` has shape (2n, dim, dim); ``E`` and ``w`` have shape
    (2, n, n, dim, dim) indexed by [spin, p1, p2] with
    E[s, p1, p2] = a^dag_{p1 s} a_{p2 s} and w = E - delta/2.
    """

    adag: np.ndarray
    E: np.ndarray
    w: np.ndarray
    number: np.ndarray
    dim: int


@lru_cache(maxsize=16)
def _monomer_ops(n_orb: int) -> MonomerOps:
    """Jordan-Wigner matrices and derived one-body operators for one monomer."""
    n_modes = 2 * n_orb
    dim = 2**n_modes
    z = np.diag([1.0, -1.0])
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|

    def chain(mats):
        out = np.ones((1, 1))
        for m in mats:
            out = np.kron(out, m)
        return out

    adag = np.stack(
        [chain([z] * m + [sigma_plus] + [np.eye(2)] * (n_modes - m - 1)) for m in range(n_modes)]
    )
    a = adag.transpose(0, 2, 1)
    E = adag.reshape(2, n_orb, 1, dim, dim) @ a.reshape(2, 1, n_orb, dim, dim)
    w = E.copy()
    diag = np.arange(n_orb)
    w[:, diag, diag] -= 0.5 * np.eye(dim)
    number = np.einsum("sppij->ij", E)
    return MonomerOps(adag, E, w, number, dim)


@dataclass(frozen=True)
class FockSpace:
    """Dimer Fock space with per-monomer sector bookkeeping."""

    n_orb_A: int
    n_orb_B: int

    def __post_init__(self):
        n_a, n_b = self.n_orb_A, self.n_orb_B
        if 2 * (n_a + n_b) > MAX_SPIN_ORBITALS or max(n_a, n_b) > MAX_MONOMER_ORBITALS:
            raise ShapeError(
                f"oracle capped at {MAX_SPIN_ORBITALS} spin orbitals and {MAX_MONOMER_ORBITALS} "
                f"orbitals per monomer; got {n_a}x{n_b} orbitals"
            )

    @property
    def dim_A(self) -> int:
        return 2 ** (2 * self.n_orb_A)

    @property
    def dim_B(self) -> int:
        return 2 ** (2 * self.n_orb_B)

    @property
    def dim(self) -> int:
        return self.dim_A * self.dim_B

    def n_orb(self, which: str) -> int:
        return self.n_orb_A if which == "A" else self.n_orb_B

    def monomer(self, which: str) -> MonomerOps:
        return _monomer_ops(self.n_orb(which))

    def occupations(self, which: str) -> np.ndarray:
        """Mode occupations of one monomer's basis states (mode 0 = MSB)."""
        n_modes = 2 * self.n_orb(which)
        dim = 2**n_modes
        occ = np.zeros((dim, n_modes), dtype=int)
        for state in range(dim):
            for m in range(n_modes):
                occ[state, m] = (state >> (n_modes - 1 - m)) & 1
        return occ

    def sector_indices(self, which: str, n_elec: int, sz: float | None = None) -> np.ndarray:
        occ = self.occupations(which)
        n = self.n_orb(which)
        mask = occ.sum(axis=1) == n_elec
        if sz is not None:
            sz_vals = 0.5 * (occ[:, :n].sum(axis=1) - occ[:, n:].sum(axis=1))
            mask &= np.isclose(sz_vals, sz)
        return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# dimer operators as sums of Kronecker pairs


class PairSum:
    """Operator sum_i A_i (x) B_i on the dimer space."""

    def __init__(self, space: FockSpace):
        self.space = space
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, a_mat, b_mat) -> "PairSum":
        self.pairs.append((np.asarray(a_mat, dtype=float), np.asarray(b_mat, dtype=float)))
        return self

    def add_scalar(self, c) -> "PairSum":
        if c != 0.0:
            self.add(c * np.eye(self.space.dim_A), np.eye(self.space.dim_B))
        return self

    def add_monomer(self, which: str, mat) -> "PairSum":
        if which == "A":
            self.add(mat, np.eye(self.space.dim_B))
        else:
            self.add(np.eye(self.space.dim_A), mat)
        return self

    def __add__(self, other: "PairSum") -> "PairSum":
        out = PairSum(self.space)
        out.pairs = self.pairs + other.pairs
        return out

    def scaled(self, c) -> "PairSum":
        out = PairSum(self.space)
        out.pairs = [(c * a, b) for a, b in self.pairs]
        return out

    def dagger(self) -> "PairSum":
        out = PairSum(self.space)
        out.pairs = [(a.T, b.T) for a, b in self.pairs]
        return out

    def __matmul__(self, other: "PairSum") -> "PairSum":
        out = PairSum(self.space)
        for a1, b1 in self.pairs:
            for a2, b2 in other.pairs:
                out.add(a1 @ a2, b1 @ b2)
        return out

    def hermitized(self) -> "PairSum":
        return (self + self.dagger()).scaled(0.5)

    def to_dense(self) -> np.ndarray:
        da, db = self.space.dim_A, self.space.dim_B
        if not self.pairs:
            return np.zeros((da * db, da * db))
        stack_a = np.stack([a for a, _ in self.pairs]).reshape(len(self.pairs), da * da)
        stack_b = np.stack([b for _, b in self.pairs]).reshape(len(self.pairs), db * db)
        m = stack_a.T @ stack_b
        return m.reshape(da, da, db, db).transpose(0, 2, 1, 3).reshape(da * db, da * db)

    def apply_block(self, vecs: np.ndarray) -> np.ndarray:
        """Apply to several state vectors at once (columns of ``vecs``)."""
        da, db = self.space.dim_A, self.space.dim_B
        k = vecs.shape[1]
        # [da, db, k] -> contract A on the left, then B on the middle axis
        psi = np.ascontiguousarray(vecs.reshape(da, db, k))
        flat = psi.reshape(da, db * k)
        out = np.zeros((da * k, db), dtype=np.result_type(vecs, float))
        for a, b in self.pairs:
            tmp = (a @ flat).reshape(da, db, k).transpose(0, 2, 1)
            out += tmp.reshape(da * k, db) @ b.T
        return out.reshape(da, k, db).transpose(0, 2, 1).reshape(da * db, k)

    def expectation_product(self, psi_a: np.ndarray, psi_b: np.ndarray) -> float | complex:
        val = 0.0
        for a, b in self.pairs:
            val += (psi_a.conj() @ a @ psi_a) * (psi_b.conj() @ b @ psi_b)
        return val

    def norm_estimate(self, rng: np.random.Generator, probes: int = 6) -> float:
        """Max |O psi| over random unit probes; zero iff the operator is zero."""
        vecs = rng.normal(size=(self.space.dim, probes))
        vecs /= np.linalg.norm(vecs, axis=0)
        if not self.pairs:
            return 0.0
        return float(np.linalg.norm(self.apply_block(vecs), axis=0).max())


# ---------------------------------------------------------------------------
# family assembly (shared by the excitation and majorana routes)


def _mats(space: FockSpace, which: str, basis: str):
    ops = space.monomer(which)
    return ops.E if basis == "E" else ops.w


def one_body_matrix(space: FockSpace, which: str, h: np.ndarray, basis: str) -> np.ndarray:
    """sum_sigma sum_{p1 p2} h[p1, p2] X^sigma_{p1 p2} on one monomer."""
    mats = _mats(space, which, basis)
    return np.einsum("ab,sabij->ij", h, mats, optimize=True)


def _family(space: FockSpace, spec: str, tensors, factors, basis: str) -> PairSum:
    """sum_spins einsum(spec, *tensors) * prod_k X^{spin_k}_{monomer_k}(pair_k).

    ``factors`` lists (monomer, spin label, index pair) in product order, the
    index pairs in the letters of ``spec``; each distinct spin label is summed
    over both spins.  Pairs are keyed as the module docstring describes.
    """
    mats = {m: _mats(space, m, basis) for m in {m for m, _, _ in factors}}
    singles = {f[0]: f for f in factors if sum(g[0] == f[0] for g in factors) == 1}
    key = singles.get("B", singles.get("A"))
    rest = [f for f in factors if f is not key]
    labels = sorted({s for _, s, _ in factors})
    chain = "IJKLMN"  # matrix-product indices of the non-keyed monomer
    subs = [pq + chain[k : k + 2] for k, (_, _, pq) in enumerate(rest)]
    expr = ",".join([spec, *subs]) + "->" + (key[2] if key else "") + chain[0] + chain[len(rest)]
    acc = {}
    for spins in itertools.product(range(2), repeat=len(labels)):
        spin = dict(zip(labels, spins))
        tables = [mats[m][spin[s]] for m, s, _ in rest]
        # the greedy path contracts the overlap last, several times the work at 4x1
        term = np.einsum(expr, *tensors, *tables, optimize="optimal")
        k = spin[key[1]] if key else 0
        acc[k] = acc.get(k, 0) + term
    out = PairSum(space)
    if key is None:
        return out.add_monomer(rest[0][0], acc[0])
    which = key[0]
    for s, block in acc.items():
        for p, q in np.ndindex(block.shape[:2]):
            if block[p, q].any():
                pair = (mats[which][s, p, q], block[p, q])
                out.add(*(pair[::-1] if which == "B" else pair))
    return out


def family_lock(space: FockSpace, T: np.ndarray, basis: str) -> PairSum:
    """sum_sigma T[p1,p2,q1,q2] X^sigma_A(p1 p2) X^sigma_B(q1 q2)."""
    return _family(space, "abqr", [T], [("A", "s", "ab"), ("B", "s", "qr")], basis)


def family_dir(space: FockSpace, T: np.ndarray, basis: str) -> PairSum:
    """sum_{sigma tau} T[p1,p2,q1,q2] X^sigma_A X^tau_B."""
    return _family(space, "abqr", [T], [("A", "s", "ab"), ("B", "t", "qr")], basis)


def family_intra(space: FockSpace, which: str, T: np.ndarray, basis: str) -> PairSum:
    """sum_{sigma tau} T[a,b,c,d] X^sigma(a b) X^tau(c d), both on one monomer."""
    return _family(space, "abcd", [T], [(which, "s", "ab"), (which, "t", "cd")], basis)


# X^{s1}_A(p1 p2) X^{s2}_A(p3 p4) X^{s2}_B(q1 q2) and its mirror image
_G2_FACTORS = [("A", "s", "ab"), ("A", "t", "cd"), ("B", "t", "qr")]
_G3_FACTORS = [("A", "t", "ab"), ("B", "s", "qr"), ("B", "t", "cd")]


def family_g2(space: FockSpace, lam: np.ndarray, S: np.ndarray, basis: str) -> PairSum:
    """Monomer-A pair with a locked monomer-B factor.

    sum_{s1 s2} lam[p1,p2,q1,p4] S[p3,q2]
        X^{s1}_A(p1 p2) X^{s2}_A(p3 p4) X^{s2}_B(q1 q2)
    """
    return _family(space, "abqd,cr", [lam, S], _G2_FACTORS, basis)


def family_g3(space: FockSpace, lam: np.ndarray, S: np.ndarray, basis: str) -> PairSum:
    """Monomer-B pair with a locked monomer-A factor (mirror of family_g2).

    sum_{s1 s2} lam[p1,q4,q1,q2] S[p2,q3]
        X^{s2}_A(p1 p2) X^{s1}_B(q1 q2) X^{s2}_B(q3 q4)
    """
    return _family(space, "adqr,bc", [lam, S], _G3_FACTORS, basis)


def family_g2r(space: FockSpace, lam: np.ndarray, S: np.ndarray, basis: str) -> PairSum:
    """Row-coupled variant of family_g2.

    sum_{s1 s2} lam[p1,p2,q2,p3] S[p4,q1]
        X^{s1}_A(p1 p2) X^{s2}_A(p3 p4) X^{s2}_B(q1 q2)
    """
    return _family(space, "abrc,dq", [lam, S], _G2_FACTORS, basis)


def family_g3r(space: FockSpace, lam: np.ndarray, S: np.ndarray, basis: str) -> PairSum:
    """Row-coupled variant of family_g3.

    sum_{s1 s2} lam[p2,q3,q1,q2] S[p1,q4]
        X^{s2}_A(p1 p2) X^{s1}_B(q1 q2) X^{s2}_B(q3 q4)
    """
    return _family(space, "bcqr,ad", [lam, S], _G3_FACTORS, basis)


# ---------------------------------------------------------------------------
# observable assembly


def assemble_electrostatic(space: FockSpace, v: np.ndarray) -> PairSum:
    return family_dir(space, v, "E")


def assemble_exchange(space: FockSpace, S: np.ndarray) -> PairSum:
    t_ss = np.einsum("ad,bc->abcd", S, S)
    return family_lock(space, t_ss, "E").scaled(-1.0)


def assemble_vp_excitation(
    space: FockSpace,
    v: np.ndarray,
    S: np.ndarray,
    mixed: MixedTensors | None = None,
    symmetrize: bool = True,
) -> PairSum:
    """Four-term excitation form of the electrostatic-exchange observable.

    With ``symmetrize=False`` this is the bare product-ordered operator whose
    deviation from V P vanishes in the complete-basis construction.
    """
    dressed = build_dressed_nu(v, S, mixed)
    t1 = dressed.nu1.transpose(0, 3, 2, 1)
    x = (
        family_lock(space, t1, "E").scaled(-1.0)
        + family_g2(space, dressed.nu2, S, "E").scaled(-1.0)
        + family_g3(space, dressed.nu3, S, "E").scaled(-1.0)
        + assemble_electrostatic(space, v) @ assemble_exchange(space, S)
    )
    return x.hermitized() if symmetrize else x


def _one_body_pairsum(space: FockSpace, which: str, h: np.ndarray, basis: str) -> PairSum:
    return PairSum(space).add_monomer(which, one_body_matrix(space, which, h, basis))


def _exchange_form(space: FockSpace, p_a, p_b, S: np.ndarray) -> PairSum:
    """-1/2 p_A - 1/2 p_B minus the spin-locked overlap pair, in the w basis."""
    t_ss = np.einsum("ad,bc->abcd", S, S)
    return (
        _one_body_pairsum(space, "A", -0.5 * p_a, "w")
        + _one_body_pairsum(space, "B", -0.5 * p_b, "w")
        + family_lock(space, t_ss, "w").scaled(-1.0)
    )


def assemble_modified_factors(space: FockSpace, coeffs: SaptCoefficients) -> tuple[PairSum, PairSum]:
    """Pure two-body electrostatic factor and constant-free exchange factor."""
    v_mod = family_dir(space, coeffs.two_body_blocks["v"], "w")
    p_mod = _exchange_form(space, coeffs.vp4_one_body_A, coeffs.vp4_one_body_B, coeffs.overlap)
    return v_mod, p_mod


def assemble_vp_majorana_families(space: FockSpace, coeffs: SaptCoefficients) -> dict[str, PairSum]:
    """Per-term assembly of the seven-block coefficient form (each Hermitian)."""
    blocks = coeffs.two_body_blocks
    S = coeffs.overlap
    v_mod, p_mod = assemble_modified_factors(space, coeffs)
    fams = {
        "VP_A": family_intra(space, "A", blocks["A2"], "w").scaled(-0.5),
        "VP_B": family_intra(space, "B", blocks["B2"], "w").scaled(-0.5),
        "VP_1m": family_dir(space, blocks["1m"], "w").scaled(-0.5),
        "VP_1l": family_lock(space, blocks["1l"], "w").scaled(-1.0),
        "VP_2": family_g2(space, blocks["2"], S, "w").scaled(-0.5),
        "VP_3": family_g3(space, blocks["3"], S, "w").scaled(-0.5),
        "VP_4": v_mod @ p_mod,
    }
    if "2r" in blocks:
        fams["VP_2"] = fams["VP_2"] + family_g2r(space, blocks["2r"], S, "w").scaled(-0.5)
    if "3r" in blocks:
        fams["VP_3"] = fams["VP_3"] + family_g3r(space, blocks["3r"], S, "w").scaled(-0.5)
    out = {name: fam.hermitized() for name, fam in fams.items()}
    out["VP_A"] = out["VP_A"] + _one_body_pairsum(space, "A", -0.5 * coeffs.one_body_A, "w")
    out["VP_B"] = out["VP_B"] + _one_body_pairsum(space, "B", -0.5 * coeffs.one_body_B, "w")
    return out


def assemble_majorana(space: FockSpace, coeffs: SaptCoefficients) -> PairSum:
    """Operator matrix from a coefficient set (Majorana-representation route)."""
    op = PairSum(space).add_scalar(coeffs.constant)
    if coeffs.observable == "V":
        op = op + _one_body_pairsum(space, "A", coeffs.one_body_A, "w")
        op = op + _one_body_pairsum(space, "B", coeffs.one_body_B, "w")
        return op + family_dir(space, coeffs.two_body_blocks["v"], "w")
    if coeffs.observable == "P":
        return op + _exchange_form(space, coeffs.one_body_A, coeffs.one_body_B, coeffs.overlap)
    if coeffs.observable == "VPs":
        for fam in assemble_vp_majorana_families(space, coeffs).values():
            op = op + fam
        return op
    raise DomainError(f"unknown observable {coeffs.observable!r}")


def build_operator_matrix(
    space: FockSpace,
    kind: str,
    source,
    form: str = "excitation",
    mixed: MixedTensors | None = None,
) -> PairSum:
    """Assemble one operator as a PairSum.

    ``source`` is a :class:`SaptCoefficients` for the majorana form, the raw
    ``(v, S)`` tensors for the excitation form, or ``(h1, eri)`` for the
    monomer Hamiltonian kinds 'H_A'/'H_B'.  ``kind`` also accepts the
    individual product-observable terms ('VP_A', 'VP_B', 'VP_1m', 'VP_1l',
    'VP_2', 'VP_3', 'VP_4') against a coefficient-set source.
    """
    if kind in ("H_A", "H_B"):
        h1, eri = source
        return assemble_monomer_hamiltonian(space, kind[-1], h1, eri)
    if kind.startswith("VP_"):
        if not isinstance(source, SaptCoefficients):
            raise DomainError("product-term assembly requires a SaptCoefficients source")
        families = assemble_vp_majorana_families(space, source)
        if kind not in families:
            raise DomainError(f"unknown product term {kind!r}")
        return families[kind]
    if form == "majorana":
        if not isinstance(source, SaptCoefficients):
            raise DomainError("majorana form requires a SaptCoefficients source")
        return assemble_majorana(space, source)
    v, S = source
    if kind == "V":
        return assemble_electrostatic(space, np.asarray(v, dtype=float))
    if kind == "P":
        return assemble_exchange(space, np.asarray(S, dtype=float))
    if kind == "VPs":
        return assemble_vp_excitation(space, v, S, mixed)
    raise DomainError(f"unknown operator kind {kind!r}")


def assemble_monomer_hamiltonian(
    space: FockSpace, which: str, h1: np.ndarray, eri: np.ndarray
) -> PairSum:
    """Spin-free monomer Hamiltonian h1[p,q] E+_pq + 1/2 eri[pqrs] e_pqrs."""
    # effective one-body from normal ordering: -1/2 sum_r eri[p r r q] E+_pq
    h_eff = h1 - 0.5 * np.einsum("arrb->ab", eri)
    a_mat, b_mat = family_intra(space, which, 0.5 * eri, "E").pairs[0]
    op = one_body_matrix(space, which, h_eff, "E") + (a_mat if which == "A" else b_mat)
    return PairSum(space).add_monomer(which, op)


# ---------------------------------------------------------------------------
# first-order energies


def first_order_energy(
    operators: dict[str, PairSum], psi_a: np.ndarray, psi_b: np.ndarray
) -> dict[str, float]:
    """Polarization, exchange and total first-order interaction energies."""
    for name, psi in (("A", psi_a), ("B", psi_b)):
        if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
            raise DomainError(f"monomer {name} state is not normalized")
    ev = {
        key: operators[key].expectation_product(psi_a, psi_b).real for key in ("V", "P", "VPs")
    }
    e_pol = ev["V"]
    e_exch = ev["VPs"] - ev["V"] * ev["P"]
    return {"E_pol": e_pol, "E_exch": e_exch, "E_int": e_pol + e_exch}


# ---------------------------------------------------------------------------
# complete-basis construction


def shared_span_tensors(
    n_orb: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, MixedTensors]:
    """Random dimer whose monomers span one common orbital space.

    Both monomer bases are complete on the shared span, so the completeness
    relation holds exactly and every hybrid Coulomb block is computable from
    the common kernel.
    """
    m = n_orb
    u_a = np.linalg.qr(rng.normal(size=(m, m)))[0]
    u_b = np.linalg.qr(rng.normal(size=(m, m)))[0]
    kernel = rng.normal(size=(m, m, m, m))
    kernel = 0.25 * (
        kernel
        + kernel.transpose(1, 0, 2, 3)
        + kernel.transpose(0, 1, 3, 2)
        + kernel.transpose(1, 0, 3, 2)
    )

    def project(left1, left2, right1, right2):
        return np.einsum(
            "xa,yb,zc,wd,xyzw->abcd", left1, left2, right1, right2, kernel, optimize=True
        )

    v = project(u_a, u_a, u_b, u_b)
    m1 = project(u_a, u_b, u_b, u_a)  # [p1, q2, q1, p2]
    m2 = project(u_a, u_a, u_b, u_a)  # [p1, p2, q1, p4]
    m3 = project(u_a, u_b, u_b, u_b)  # [p1, q4, q1, q2]
    S = u_a.T @ u_b
    return v, S, MixedTensors(m1=m1, m2=m2, m3=m3)


def verify_complete_basis(
    n_orb: int,
    rng: np.random.Generator,
    s_perturbation: float = 0.0,
) -> float:
    """Relative residual |VP - V P|_F / |V P|_F on a shared-span dimer."""
    v, S, mixed = shared_span_tensors(n_orb, rng)
    if s_perturbation:
        S = S + s_perturbation * rng.normal(size=S.shape)
    space = FockSpace(n_orb, n_orb)
    vp_four = assemble_vp_excitation(space, v, S, mixed, symmetrize=False)
    vp_prod = assemble_electrostatic(space, v) @ assemble_exchange(space, S)
    diff = (vp_four + vp_prod.scaled(-1.0)).to_dense()
    ref = vp_prod.to_dense()
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# embedding of core-occupied states (consumed by the active-space tests)


def embed_with_core(
    space_full: FockSpace,
    which: str,
    core: list[int],
    active: list[int],
    psi_active: np.ndarray,
) -> np.ndarray:
    """Lift an active-space monomer state to the full space with filled cores.

    Fermionic phases are handled by applying explicit creation strings to the
    vacuum in both spaces, so the embedding is exact for any mode ordering.
    """
    n_full = space_full.n_orb(which)
    adag_full, *_, dim_full = space_full.monomer(which)
    n_act = len(active)
    adag_act, *_, dim_act = _monomer_ops(n_act)
    n_modes_act = 2 * n_act
    out = np.zeros(dim_full, dtype=np.result_type(psi_active, float))
    vac_full = np.zeros(dim_full)
    vac_full[0] = 1.0
    vac_act = np.zeros(dim_act)
    vac_act[0] = 1.0

    core_modes_full = [s * n_full + p for s in range(2) for p in core]
    for b in range(dim_act):
        amp = psi_active[b]
        if abs(amp) < 1e-15:
            continue
        occ = [(b >> (n_modes_act - 1 - m)) & 1 for m in range(n_modes_act)]
        act_modes = [m for m in range(n_modes_act) if occ[m]]
        # sign linking |b> to the ordered creation string in the active space
        ref = vac_act
        for m in reversed(act_modes):
            ref = adag_act[m] @ ref
        sign = ref[b]
        # same creation content in the full space: cores first, then actives
        full_modes = core_modes_full + [
            (m // n_act) * n_full + active[m % n_act] for m in act_modes
        ]
        vec = vac_full
        for m in reversed(full_modes):
            vec = adag_full[m] @ vec
        out += amp * sign * vec
    return out
