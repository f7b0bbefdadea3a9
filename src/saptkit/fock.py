"""Brute-force Fock-space oracle for tiny dimers.

Monomer A and monomer B carry independent fermion algebras; the dimer space
is their tensor product, so operators of different monomers commute exactly.
Spin-orbital ordering inside a monomer is spatial-orbital-minor with the
alpha block before the beta block; Jordan-Wigner strings stay inside each
monomer.  The creation operator of mode m is the real Kronecker chain
Z^(x)m (x) sigma+ (x) I (x) ... (x) I with sigma+ = |1><0|, so every table
and every assembled operator is float64; states handed in may be complex.
With alpha before beta, every one-body basis element acts on one spin,
E^alpha_pq = e_pq (x) I and E^beta_pq = I (x) e_pq with e_pq on one spin's
2^n states, so the module builds only single-spin tables (:class:`SpinTables`)
and no table of a monomer's dimension.

A monomer state's index is its alpha occupation bits, then its beta bits,
mode 0 the leading bit; a mode's Jordan-Wigner string runs over every lower
mode.  The sectors, the count operators and the frozen-core embedding all take
that rule from the bit counts of :func:`_counts`.

One memory model decides which dimers the oracle admits: :func:`oracle_bytes`
bounds the bytes its checks hold at their peak (the tables, the dense family
blocks, the dense one-monomer matrices and the probe vectors, from sizes
known before anything is built), and ``FockSpace`` refuses a dimer over
``ORACLE_BUDGET`` (1 GiB) before any table is built.  Every dimer of up to
4x4 orbitals is admitted, and so are 5x1, 5x2 and their mirror images; 5x3,
6x1 and every larger dimer are refused.

Operators are held as sums of Kronecker pairs ``sum_i A_i (x) B_i`` plus
unexpanded products: a product is a chain of operators that is applied to a
state right to left and never multiplied out into pairs.  Sums concatenate
pairs and chains; nothing is merged or dropped, so an operator holds exactly
the pairs its assembly made.  A pair's factor is a dense monomer matrix or a
:class:`SpinFactor`, a single-spin matrix applied along one spin axis.
Every coefficient family has the form sum_spins C * prod_k X^{sigma_k}(p_k
q_k), with X the excitation operators E or the traceless quadratics
w = E - delta/2, and is written once, in ``tensors.FAMILIES``.  One
einsum-driven assembler builds them all from that table, one contraction
with the single-spin tables per assignment of spins to the spin labels.  It
makes one pair per basis element X^sigma(p q) of the monomer carrying a
single factor (B when both do), held as the SpinFactor e_pq on spin sigma,
with the spin sums accumulated in the pair's other factor; a family on one
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
    BLOCKS,
    FAMILIES,
    MixedTensors,
    SaptCoefficients,
    build_dressed_nu,
)

ORACLE_BUDGET = 1 << 30  # bytes an oracle run may hold at its peak, as oracle_bytes counts them


def oracle_bytes(n_a: int, n_b: int) -> int:
    """Bytes the oracle holds at its peak on an n_a x n_b dimer: both monomers'
    single-spin tables (adag, E, w); the dense partner blocks of 16
    families, each n_K^2 matrices of the other monomer R per orientation (the
    checks hold about ten at once: four in the three excitation operators,
    four in the majorana VPs, and a family's per-spin parts while it is
    summed); 16 dense matrices of each monomer (one-monomer families and
    one-body terms); and 16 blocks of six probe
    vectors, the work of applying nested chains."""
    tables = sum(8 * n * 4**n * (2 * n + 1) for n in (n_a, n_b))
    family = 8 * (n_b * n_b * 16**n_a + n_a * n_a * 16**n_b)
    monomer = 8 * (16**n_a + 16**n_b)
    probes = 8 * 6 * 4 ** (n_a + n_b)
    return tables + 16 * (family + monomer + probes)


# ---------------------------------------------------------------------------
# single-monomer algebra


def _counts(n: int) -> np.ndarray:
    """Occupied modes of each of the 2^n states of n modes (one spin's electron
    counts at n = n_orb), as signed integers; mode 0 is the leading bit, so
    the occupied modes below mode m of a state s number _counts(n)[s >> (n - m)]."""
    states = np.arange(2**n)
    return ((states[:, None] >> np.arange(n)) & 1).sum(axis=1)


class SpinTables(NamedTuple):
    """Jordan-Wigner tables of one spin of an n-orbital monomer, on its h = 2^n states.

    ``adag`` (n, h, h) holds the spin's creation operators c_p, and ``E``/``w``
    (n, n, h, h) the excitations e[p, q] = c_p c_q^T and w = e - delta/2.  On
    the monomer, E^alpha_pq = e_pq (x) I and E^beta_pq = I (x) e_pq (w likewise).
    """

    adag: np.ndarray
    E: np.ndarray
    w: np.ndarray


@lru_cache(maxsize=16)
def _spin_tables(n_orb: int) -> SpinTables:
    """Single-spin Jordan-Wigner matrices of an n_orb-orbital monomer."""
    z = np.diag([1.0, -1.0])
    sigma_plus = np.array([[0.0, 0.0], [1.0, 0.0]])  # |1><0|

    def chain(mats):
        out = np.ones((1, 1))
        for m in mats:
            out = np.kron(out, m)
        return out

    adag = np.stack(
        [chain([z] * m + [sigma_plus] + [np.eye(2)] * (n_orb - m - 1)) for m in range(n_orb)]
    )
    E = adag[:, None] @ adag.transpose(0, 2, 1)[None]
    w = E.copy()
    diag = np.arange(n_orb)
    w[diag, diag] -= 0.5 * np.eye(2**n_orb)
    return SpinTables(adag, E, w)


class SpinFactor:
    """A monomer factor acting on one spin: ``mat`` (x) I for spin 0 (alpha),
    I (x) ``mat`` for spin 1 (beta), ``mat`` on the 2^n states of one spin."""

    __slots__ = ("mat", "spin")

    def __init__(self, mat: np.ndarray, spin: int):
        self.mat, self.spin = mat, spin

    @property
    def T(self) -> "SpinFactor":
        return SpinFactor(self.mat.T, self.spin)

    @property
    def size(self) -> int:
        return self.mat.size

    @property
    def dtype(self):
        return self.mat.dtype

    def __rmul__(self, c) -> "SpinFactor":
        return SpinFactor(c * self.mat, self.spin)


def _identity(space: FockSpace, which: str) -> SpinFactor:
    """One monomer's identity, held as the identity of its alpha spin."""
    return SpinFactor(np.eye(2 ** space.n_orb(which)), 0)


def _act(f, x: np.ndarray, pre: int, post: int) -> np.ndarray:
    """A monomer factor (a matrix or a SpinFactor) applied to the middle axis of
    ``x`` viewed as (pre, d, post): one reshape and one matmul."""
    mat = f
    if isinstance(f, SpinFactor):
        mat, h = f.mat, f.mat.shape[0]
        pre, post = (pre, h * post) if f.spin == 0 else (pre * h, post)
    if post == 1:
        return x.reshape(pre, -1) @ mat.T
    return mat @ x.reshape(pre, -1, post)


@dataclass(frozen=True)
class FockSpace:
    """Dimer Fock space with per-monomer sector bookkeeping."""

    n_orb_A: int
    n_orb_B: int

    def __post_init__(self):
        need = oracle_bytes(self.n_orb_A, self.n_orb_B)
        if need > ORACLE_BUDGET:
            raise ShapeError(
                f"the oracle on {self.n_orb_A}x{self.n_orb_B} orbitals needs up to "
                f"{need / 2**30:.2f} GiB, over its {ORACLE_BUDGET / 2**30:g} GiB budget"
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

    def sector_indices(self, which: str, n_elec: int, sz: float | None = None) -> np.ndarray:
        """Indices of one monomer's basis states with ``n_elec`` electrons (and
        spin ``sz`` unless None), from the (alpha, beta) count grid."""
        counts = _counts(self.n_orb(which))
        n_alpha, n_beta = counts[:, None], counts[None, :]
        mask = n_alpha + n_beta == n_elec
        if sz is not None:
            mask &= np.isclose(0.5 * (n_alpha - n_beta), sz)
        return np.flatnonzero(mask)


# ---------------------------------------------------------------------------
# dimer operators as Kronecker pairs plus unexpanded product chains


class PairSum:
    """Operator sum_i A_i (x) B_i + sum_j c_j F_j1 F_j2 ... on the dimer space.

    ``pairs`` holds the Kronecker pairs (A_i, B_i), each factor a dense
    monomer matrix or a :class:`SpinFactor`; ``chains`` holds each product as
    (c_j, factors), its factors PairSums kept unexpanded and applied right to
    left.
    """

    def __init__(self, space: FockSpace, pairs=(), chains=()):
        self.space = space
        self.pairs: list[tuple[np.ndarray, np.ndarray]] = list(pairs)
        self.chains: list[tuple[float, tuple[PairSum, ...]]] = list(chains)

    def add(self, a_mat, b_mat) -> "PairSum":
        self.pairs.append((a_mat, b_mat))
        return self

    def add_scalar(self, c) -> "PairSum":
        if c != 0.0:
            self.add(c * _identity(self.space, "A"), _identity(self.space, "B"))
        return self

    def add_monomer(self, which: str, mat) -> "PairSum":
        if which == "A":
            self.add(mat, _identity(self.space, "B"))
        else:
            self.add(_identity(self.space, "A"), mat)
        return self

    def __add__(self, other: "PairSum") -> "PairSum":
        return PairSum(self.space, self.pairs + other.pairs, self.chains + other.chains)

    def scaled(self, c) -> "PairSum":
        """c times the operator: each pair scales its smaller factor and shares the larger."""
        pairs = [(c * a, b) if a.size <= b.size else (a, c * b) for a, b in self.pairs]
        return PairSum(self.space, pairs, [(c * k, factors) for k, factors in self.chains])

    def dagger(self) -> "PairSum":
        chains = [(k, tuple(f.dagger() for f in reversed(factors))) for k, factors in self.chains]
        return PairSum(self.space, [(a.T, b.T) for a, b in self.pairs], chains)

    def __matmul__(self, other: "PairSum") -> "PairSum":
        return PairSum(self.space, chains=[(1.0, (self, other))])

    def hermitized(self) -> "PairSum":
        half = self.scaled(0.5)  # its adjoint shares the scaled factors as views
        return half + half.dagger()

    def to_dense(self) -> np.ndarray:
        return self.apply_block(np.eye(self.space.dim))

    def apply_block(self, vecs: np.ndarray) -> np.ndarray:
        """Apply to several state vectors at once (columns of ``vecs``)."""
        da, db = self.space.dim_A, self.space.dim_B
        k = vecs.shape[1]
        # each vector as a (da, db) matrix psi, on which A (x) B acts as A psi B^T
        psi = np.ascontiguousarray(vecs.T).reshape(k, da, db)
        out = np.zeros(psi.shape, dtype=np.result_type(vecs, float))
        for a, b in self.pairs:
            out += _act(b, _act(a, psi, k, db), k * da, 1).reshape(psi.shape)
        out = out.reshape(k, da * db).T
        for c, factors in self.chains:
            x = vecs
            for f in reversed(factors):
                x = f.apply_block(x)
            out += c * x
        return out

    def expectation_product(self, psi_a: np.ndarray, psi_b: np.ndarray) -> float | complex:
        """<psi_a psi_b| O |psi_a psi_b> on the product of two monomer states."""
        psi = np.kron(psi_a, psi_b)
        return np.vdot(psi, self.apply_block(psi[:, None])[:, 0])

    def norm_estimate(self, rng: np.random.Generator, probes: int = 6) -> float:
        """Max |O psi| over random unit probes; zero iff the operator is zero."""
        vecs = rng.normal(size=(self.space.dim, probes))
        vecs /= np.linalg.norm(vecs, axis=0)
        return float(np.linalg.norm(self.apply_block(vecs), axis=0).max())


# ---------------------------------------------------------------------------
# family assembly (shared by the excitation and majorana routes)


def _table(space: FockSpace, which: str, basis: str) -> np.ndarray:
    """Single-spin basis elements of one monomer, (n, n, h, h)."""
    tables = _spin_tables(space.n_orb(which))
    return tables.E if basis == "E" else tables.w


def one_body_matrix(space: FockSpace, which: str, h: np.ndarray, basis: str) -> np.ndarray:
    """sum_sigma sum_{p1 p2} h[p1, p2] X^sigma_{p1 p2} on one monomer."""
    m = np.einsum("ab,abij->ij", h, _table(space, which, basis))
    eye = np.eye(len(m))
    return np.kron(m, eye) + np.kron(eye, m)


def family(space: FockSpace, name: str, tensors, basis: str) -> PairSum:
    """sum_spins einsum(spec, *tensors) * prod_k X^{spin_k}_{monomer_k}(pair_k),
    X the basis 'E' or 'w'; the one assembler of every coefficient family.

    ``spec`` and the factors, (monomer, spin label, index pair) in product
    order, are the family's entry in ``tensors.FAMILIES``; each distinct spin
    label is summed over both spins.  The ``key`` factor is the one whose
    basis elements index the pairs (module docstring); the others sit on one
    monomer.  Per spin assignment of their labels, one einsum contracts the
    coefficients with the single-spin tables: factors of one spin multiply
    inside that spin's space, and the two spins' products form a Kronecker
    product, a spin without factors taking the identity.
    """
    spec, factors = FAMILIES[name]
    singles = {f[0]: f for f in factors if sum(g[0] == f[0] for g in factors) == 1}
    key = singles.get("B", singles.get("A"))
    rest = [f for f in factors if f is not key]
    which = rest[0][0]
    table = _table(space, which, basis)
    eye = np.eye(table.shape[-1])
    labels = sorted({s for _, s, _ in rest})
    # spin assignments grouped by the key's spin; None where no other factor
    # carries the key's label, so that both key spins take the same block
    groups = {}
    for spins in itertools.product((0, 1), repeat=len(labels)):
        spin_of = dict(zip(labels, spins))
        groups.setdefault(spin_of.get(key[1]) if key else None, []).append(spin_of)
    blocks = {}
    for key_spin, group in groups.items():
        # a lone assignment with every factor on one spin stays a one-spin block
        lone = len(group) == 1 and len(set(group[0].values())) == 1
        block = None
        for spin_of in group:
            chains, count, subs, ops = {0: "IJK", 1: "LMN"}, {0: 0, 1: 0}, [], []
            for _, label, pq in rest:
                s = spin_of[label]
                subs.append(pq + chains[s][count[s] : count[s] + 2])
                ops.append(table)
                count[s] += 1
            for s in (0, 1):
                if not lone and not count[s]:  # the identity on a spin without factors
                    subs.append(chains[s][:2])
                    ops.append(eye)
                    count[s] = 1
            used = [s for s in (0, 1) if count[s]]
            rows_cols = "".join(chains[s][0] for s in used) + "".join(chains[s][count[s]] for s in used)
            arr = np.einsum(
                ",".join([spec, *subs]) + "->" + (key[2] if key else "") + rows_cols,
                *tensors, *ops, optimize=True,
            )
            if block is None:
                block = arr  # a fresh einsum result, summed into in place
            else:
                block += arr
        if lone:
            blocks[key_spin] = [SpinFactor(m, used[0]) for m in block.reshape(-1, *eye.shape)]
        else:
            blocks[key_spin] = list(block.reshape(-1, eye.size, eye.size))
    out = PairSum(space)
    if key is None:
        return out.add_monomer(which, blocks[None][0])
    key_table = _table(space, key[0], basis)
    for s in (0, 1):
        partners = blocks[s if s in blocks else None]
        for (p, q), partner in zip(np.ndindex(key_table.shape[:2]), partners):
            pair = (SpinFactor(key_table[p, q], s), partner)
            out.add(*(pair[::-1] if key[0] == "B" else pair))
    return out


# ---------------------------------------------------------------------------
# observable assembly


def assemble_electrostatic(space: FockSpace, v: np.ndarray) -> PairSum:
    return family(space, "dir", [v], "E")


def assemble_exchange(space: FockSpace, S: np.ndarray) -> PairSum:
    t_ss = np.einsum("ad,bc->abcd", S, S)
    return family(space, "lock", [t_ss], "E").scaled(-1.0)


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
    nu1, nu2, nu3 = build_dressed_nu(v, S, mixed)
    x = (
        family(space, "lock", [nu1.transpose(0, 3, 2, 1)], "E").scaled(-1.0)
        + family(space, "g2", [nu2, S], "E").scaled(-1.0)
        + family(space, "g3", [nu3, S], "E").scaled(-1.0)
        + assemble_electrostatic(space, v) @ assemble_exchange(space, S)
    )
    return x.hermitized() if symmetrize else x


def _one_body_pairsum(space: FockSpace, which: str, h: np.ndarray, basis: str) -> PairSum:
    return PairSum(space).add_monomer(which, one_body_matrix(space, which, h, basis))


def sector_operator(space: FockSpace) -> PairSum:
    """N_Aalpha + sqrt2 N_Abeta + sqrt3 N_Balpha + sqrt5 N_Bbeta as four count
    SpinFactor pairs.  The weights are rationally independent, so its
    eigenspaces are exactly the sectors of the four counts: an operator
    commutes with it iff it conserves each monomer's alpha and beta electron
    counts.  Up to 8 electrons per spin, two sectors' eigenvalues differ by at
    least 1.46e-3."""
    op, weights = PairSum(space), iter(np.sqrt([1.0, 2.0, 3.0, 5.0]))
    for which, spin in itertools.product("AB", (0, 1)):
        counts = np.diag(_counts(space.n_orb(which)))
        op.add_monomer(which, SpinFactor(next(weights) * counts, spin))
    return op


def _exchange_form(space: FockSpace, p_a, p_b, S: np.ndarray) -> PairSum:
    """-1/2 p_A - 1/2 p_B minus the spin-locked overlap pair, in the w basis."""
    t_ss = np.einsum("ad,bc->abcd", S, S)
    return (
        _one_body_pairsum(space, "A", -0.5 * p_a, "w")
        + _one_body_pairsum(space, "B", -0.5 * p_b, "w")
        + family(space, "lock", [t_ss], "w").scaled(-1.0)
    )


def assemble_modified_factors(space: FockSpace, coeffs: SaptCoefficients) -> tuple[PairSum, PairSum]:
    """Pure two-body electrostatic factor and constant-free exchange factor."""
    v_mod = family(space, BLOCKS["v"].family, [coeffs.two_body_blocks["v"]], "w")
    p_mod = _exchange_form(space, coeffs.vp4_one_body_A, coeffs.vp4_one_body_B, coeffs.overlap)
    return v_mod, p_mod


def assemble_vp_majorana_families(space: FockSpace, coeffs: SaptCoefficients) -> dict[str, PairSum]:
    """Per-term assembly of the coefficient blocks of ``tensors.BLOCKS`` (each Hermitian)."""
    blocks = coeffs.two_body_blocks
    v_mod, p_mod = assemble_modified_factors(space, coeffs)
    fams = {}
    for label, block in BLOCKS.items():
        if label == "v" or label not in blocks:
            continue
        # a family takes the tensors its spec names: the block, then S if it carries one
        tensors = [blocks[label], coeffs.overlap][: FAMILIES[block.family][0].count(",") + 1]
        fam = family(space, block.family, tensors, "w").scaled(block.prefactor)
        fams[block.term] = fams[block.term] + fam if block.term in fams else fam
    fams["VP_4"] = v_mod @ p_mod
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
        return op + family(space, BLOCKS["v"].family, [coeffs.two_body_blocks["v"]], "w")
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
    op = one_body_matrix(space, which, h_eff, "E")
    intra = "aa" if which == "A" else "bb"
    ((a_mat, b_mat),) = family(space, intra, [0.5 * eri], "E").pairs  # one pair, zero or not
    op = op + (a_mat if which == "A" else b_mat)
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
    diff = vp_four + vp_prod.scaled(-1.0)
    # squared Frobenius norms from 16 columns of the identity at a time, no dim x dim matrix
    sq = np.zeros(2)
    for start in range(0, space.dim, 16):
        cols = np.eye(space.dim, 16, -start)
        sq += [np.linalg.norm(op.apply_block(cols)) ** 2 for op in (diff, vp_prod)]
    return float(np.sqrt(sq[0] / sq[1]))


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

    An active basis state is the ascending creation string of its occupied
    modes on the vacuum, with no sign.  Its image is the creation string of
    the core modes, then the mapped active modes, on the full vacuum: the full
    state with those modes filled, times the parity of the permutation that
    sorts that creation order.  So the embedding is exact for any order of
    the ``core`` and ``active`` lists, which must not share an orbital.
    """
    if len(set(core) | set(active)) < len(core) + len(active):
        raise DomainError("core and active orbitals must be distinct")
    n_full, n_act = space_full.n_orb(which), len(active)
    n_modes = 2 * n_full
    states = np.arange(4**n_act)
    # (full mode, the active states that fill it), in creation order
    string = [(s * n_full + p, np.full(len(states), True)) for s in range(2) for p in core]
    string += [
        (s * n_full + p, (states >> (2 * n_act - 1 - s * n_act - i)) & 1 == 1)
        for s in range(2) for i, p in enumerate(active)
    ]
    below = _counts(n_modes)
    index, sign = np.zeros_like(states), np.ones(len(states))
    for mode, filled in reversed(string):  # the string acts right to left
        # a^dag of the mode takes the sign of the occupied modes below it
        sign[filled & (below[index >> (n_modes - mode)] % 2 == 1)] *= -1
        index[filled] |= 1 << (n_modes - 1 - mode)
    out = np.zeros(4**n_full, dtype=np.result_type(psi_active, float))
    out[index] += sign * psi_active  # += keeps an exact zero amplitude +0.0
    return out
