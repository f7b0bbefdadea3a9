"""Spatial-orbital tensors for the first-order interaction observables.

Validates, symmetrizes and dresses the intermolecular Coulomb tensor ``v``
and overlap matrix ``S``, and holds the coefficient families, the blocks and
the bucket reduction that the one coefficient builder (``active``) uses to
decompose the three observables (electrostatic V, single-exchange P, and the
symmetrized electrostatic-exchange product VPs) for the factorization, norm
and oracle modules.

Index conventions (all arrays row-major float64):

* ``v[p1, p2, q1, q2]``  -- (NA, NA, NB, NB), four-fold symmetric in
  (p1<->p2) and (q1<->q2).
* ``S[p, q]``            -- (NA, NB).
* mixed blocks (absent unless supplied; see :class:`MixedTensors`):
  ``m1[p1, q2, q1, p2]``, ``m2[p1, p2, q1, p4]``, ``m3[p1, q4, q1, q2]``.

Two-body coefficient blocks are stored in the layout ``T[a, b, c, d]`` where
(a, b) index the first orbital-rotation slot and (c, d) the second; for
inter-monomer blocks (a, b) belong to monomer A and (c, d) to monomer B.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ShapeError, SymmetryError

SYMMETRY_TOL = 1e-10
OVERLAP_SLACK = 1e-8


# ---------------------------------------------------------------------------
# basic containers


@dataclass(frozen=True)
class DimerBasis:
    """Orbital and electron counts of the two monomers."""

    n_orb_A: int
    n_orb_B: int
    n_elec_A: int
    n_elec_B: int

    def __post_init__(self):
        if self.n_orb_A < 1 or self.n_orb_B < 1:
            raise ShapeError("monomers need at least one orbital each")
        if not (0 <= self.n_elec_A <= 2 * self.n_orb_A):
            raise ShapeError("electron count of monomer A out of range")
        if not (0 <= self.n_elec_B <= 2 * self.n_orb_B):
            raise ShapeError("electron count of monomer B out of range")


@dataclass(frozen=True)
class MixedTensors:
    """Optional hybrid-charge-distribution Coulomb blocks.

    Absent unless supplied: standard archives do not carry these, and without
    them every exchange-dressing term carries at least one overlap factor.
    The shared-span construction used by the complete-basis check supplies
    the genuine blocks.
    """

    m1: np.ndarray  # [p1, q2, q1, p2]
    m2: np.ndarray  # [p1, p2, q1, p4]
    m3: np.ndarray  # [p1, q4, q1, q2]


@dataclass
class SaptCoefficients:
    """Coefficient set of one observable in the self-inverse-operator form.

    ``two_body_blocks`` maps block labels to arrays; :data:`BLOCKS` lists
    every label with its layout, family, prefactor and term.
    """

    observable: str  # 'V' | 'P' | 'VPs'
    constant: float
    one_body_A: np.ndarray
    one_body_B: np.ndarray
    two_body_blocks: dict[str, np.ndarray] = field(default_factory=dict)
    space_tag: str = "full"
    overlap: np.ndarray | None = None  # S in the operator's orbital ranges; None for V
    vp4_one_body_A: np.ndarray | None = None  # dressed p~(A) of the product form
    vp4_one_body_B: np.ndarray | None = None


# ---------------------------------------------------------------------------
# validation / symmetrization on load


def symmetrize_v(v: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Project ``v`` onto its four-fold symmetric part.

    Asymmetry below ``tol`` (relative, Frobenius) is silently projected out;
    anything larger raises :class:`SymmetryError`.  A ``v`` already invariant
    under both swaps, such as one this function returned, is its own
    projection bit for bit and is returned as given, not copied.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 4 or v.shape[0] != v.shape[1] or v.shape[2] != v.shape[3]:
        raise ShapeError(f"v must have shape (NA, NA, NB, NB), got {v.shape}")
    if (v == v.transpose(1, 0, 2, 3)).all() and (v == v.transpose(0, 1, 3, 2)).all():
        return v
    vs = sym_v4(v)
    # the test on v over its largest entry: np.linalg.norm(v) overflows from |v| ~ 1e154
    big = max(float(v.max(initial=0.0)), -float(v.min(initial=0.0)))
    if big and np.linalg.norm((v - vs) / big) > tol * max(np.linalg.norm(v / big), 1.0 / big):
        raise SymmetryError("v violates four-fold symmetry beyond tolerance")
    return vs


def validate_overlap(S: np.ndarray, slack: float = OVERLAP_SLACK) -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ShapeError(f"S must be a matrix, got shape {S.shape}")
    if np.any(np.abs(S) > 1.0 + slack):
        raise SymmetryError("overlap entries outside [-1, 1]")
    return S


# ---------------------------------------------------------------------------
# sym(.) projections (independent permutations of paired monomer indices)


def sym_v4(v: np.ndarray) -> np.ndarray:
    """Average of the four (p1<->p2) x (q1<->q2) permutations.

    The pairing of the summands makes the projection exactly idempotent in
    floating point: the result is bitwise invariant under every transposition
    of the group, so a second application returns it unchanged.
    """
    return 0.25 * (
        (v + v.transpose(1, 0, 3, 2))
        + (v.transpose(1, 0, 2, 3) + v.transpose(0, 1, 3, 2))
    )


def sym_joint(T: np.ndarray) -> np.ndarray:
    """Joint-swap symmetrization ((a<->b) together with (c<->d))."""
    return 0.5 * (T + T.transpose(1, 0, 3, 2))


# ---------------------------------------------------------------------------
# dressed tensors


def _dressed(k: int, v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None):
    """The dressed tensor nu_k (k = 1, 2, 3) of :func:`build_dressed_nu`."""
    if k == 1:
        nu = np.einsum("axby,xj,qy->ajbq", v, S, S, optimize=True)
        if mixed is not None:
            nu = (
                mixed.m1 + nu
                - np.einsum("ajby,qy->ajbq", mixed.m3, S, optimize=True)
                - np.einsum("axbq,xj->ajbq", mixed.m2, S, optimize=True)
            )
    else:
        nu = np.einsum(("abcy,dy->abcd", "axcd,xb->abcd")[k - 2], v, S, optimize=True)
        nu = -nu if mixed is None else (mixed.m2, mixed.m3)[k - 2] - nu
    return np.ascontiguousarray(nu)


def build_dressed_nu(v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None):
    """Yield the overlap-dressed Coulomb tensors nu1 ``[p1,q2,q1,p2]``, nu2
    ``[p1,p2,q1,p4]`` and nu3 ``[p1,q4,q1,q2]`` over the full orbital ranges,
    each computed when it is taken; the hybrid terms enter only when ``mixed``
    is given.  This is the plain (unsymmetrized) dressing, the one the oracle
    certifies against the excitation-operator form.

    Each tensor is yielded C-contiguous.  The einsum results are strided views,
    and the reductions downstream round differently on another layout, so
    without the copy the coefficient sets would depend on the layout einsum
    happens to return.
    """
    v = np.asarray(v, dtype=float)
    S = np.asarray(S, dtype=float)
    n_a, n_b = S.shape
    if v.shape != (n_a, n_a, n_b, n_b):
        raise ShapeError("v inconsistent with S")
    for k in (1, 2, 3):
        yield _dressed(k, v, S, mixed)


# ---------------------------------------------------------------------------
# observable coefficient sets


def one_body_f(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb traces f(A)[p1,p2] = sum_q v[p1,p2,q,q] and the B analogue."""
    return np.einsum("abqq->ab", v), np.einsum("ppab->ab", v)


def _swap(T: np.ndarray) -> np.ndarray:
    """Exchange the monomer slots of a two-body block: [a,b,c,d] -> [c,d,a,b]."""
    return T.transpose(2, 3, 0, 1)


# Every accumulator of the exchange-electrostatic decomposition, in the order
# it is allocated: its index layout ('a' a monomer-A index, 'b' a monomer-B
# one) and the bucket it becomes with the monomers exchanged (one mirror pair
# a line).  Each two-body bucket holds the non-Hermitian half M of its family;
# the assembled operator is (M + M^dagger)/2 per family.
BUCKETS = {
    "const": ("", "const"),
    "h_a": ("aa", "h_b"), "h_b": ("bb", "h_a"),
    "lock": ("aabb", "lock"),
    "dir": ("aabb", "dir"),
    "aa": ("aaaa", "bb"), "bb": ("bbbb", "aa"),
    "g2": ("aaba", "g3"), "g3": ("abbb", "g2"),
    "g2r": ("aaba", "g3r"), "g3r": ("abbb", "g2r"),
}


def _buckets(n_a: int, n_b: int) -> dict[str, np.ndarray]:
    """Every bucket of :data:`BUCKETS`, zeroed, in table order."""
    n = {"a": n_a, "b": n_b}
    return {name: np.zeros([n[c] for c in layout]) for name, (layout, _) in BUCKETS.items()}


def _swapped(bk: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of the buckets with monomer B first: each name views its mirror,
    through :func:`_swap` where the bucket has indices on both monomers.

    Every ``+=`` on a view lands in ``bk``, so a monomer-A family reduced on
    the views with swapped tensors and ``S.T`` emits the mirrored monomer-B
    term.
    """
    return {
        name: _swap(bk[mirror]) if "a" in layout and "b" in layout else bk[mirror]
        for name, (layout, mirror) in BUCKETS.items()
    }


# Every coefficient family: sum_spins einsum(spec, *tensors) * prod_k
# E^{spin_k}_{monomer_k}(pair_k), its factors (monomer, spin label, index pair)
# in product order with the pairs in the letters of the spec; each distinct
# spin label is summed over both spins.  The oracle assembles the same table.
FAMILIES = {
    "one_a": ("ab", [("A", "s", "ab")]),
    "lock": ("abqr", [("A", "s", "ab"), ("B", "s", "qr")]),
    "dir": ("abqr", [("A", "s", "ab"), ("B", "t", "qr")]),
    "aa": ("abcd", [("A", "s", "ab"), ("A", "t", "cd")]),
    "bb": ("abcd", [("B", "s", "ab"), ("B", "t", "cd")]),
    # lam[p1,p2,q1,p4] S[p3,q2] E^{s1}_A(p1 p2) E^{s2}_A(p3 p4) E^{s2}_B(q1 q2),
    # its row-coupled variant lam[p1,p2,q2,p3] S[p4,q1], and their mirror images
    "g2": ("abqd,cr", [("A", "s", "ab"), ("A", "t", "cd"), ("B", "t", "qr")]),
    "g2r": ("abrc,dq", [("A", "s", "ab"), ("A", "t", "cd"), ("B", "t", "qr")]),
    "g3": ("adqr,bc", [("A", "t", "ab"), ("B", "s", "qr"), ("B", "t", "cd")]),
    "g3r": ("bcqr,ad", [("A", "t", "ab"), ("B", "s", "qr"), ("B", "t", "cd")]),
    # T[p1,p2,q1,q2] h[p3,p4] E^sigma_A(p1 p2) E^mu_A(p3 p4) E^tau_B(q1 q2)
    "t3a": ("abqr,cd", [("A", "s", "ab"), ("A", "u", "cd"), ("B", "t", "qr")]),
}

_BUCKET = {"": "const", "A": "h_a", "B": "h_b", "AA": "aa", "BB": "bb"}


class Block(NamedTuple):
    """A two-body block: its family (a key of :data:`FAMILIES`, and the bucket
    that builds it), its prefactor in the assembled operator, its term, and the
    axis order that groups it into its [row pair, col pair] matrix."""

    family: str
    prefactor: float
    term: str
    axes: tuple[int, int, int, int] = (0, 1, 2, 3)


# Every two-body block, in order, with its layout ('2', '3', '2r' and '3r' carry
# an S factor outside it).  A block is stored as its bucket over its prefactor,
# so entrywise sums feed the sparse norms directly; 'v' (V's block, and the
# electrostatic factor of VP_4 = v_mod @ p_mod) is stored as given.
BLOCKS = {
    "A2": Block("aa", -0.5, "VP_A"),  # [p1,p2,p3,p4]
    "B2": Block("bb", -0.5, "VP_B"),  # [q1,q2,q3,q4]
    "1m": Block("dir", -0.5, "VP_1m"),  # [p1,p2,q1,q2], spin-free
    # [p1,p2,q1,q2], spin-locked; its grouped matrix pairs (p1,q2) x (p2,q1)
    "1l": Block("lock", -1.0, "VP_1l", (0, 3, 1, 2)),
    "2": Block("g2", -0.5, "VP_2"),  # [p1,p2,q1,p4]
    "3": Block("g3", -0.5, "VP_3"),  # [p1,q4,q1,q2]
    "2r": Block("g2r", -0.5, "VP_2"),  # [p1,p2,q2,p3]
    "3r": Block("g3r", -0.5, "VP_3"),  # [p2,q3,q1,q2]
    "v": Block("dir", 1.0, "VP_4"),  # [p1,p2,q1,q2]
}
# the row-coupled blocks, held only where a frozen core gives them
OPTIONAL_BLOCKS = ("2r", "3r")


@functools.cache
def _reduction(family: str) -> tuple[tuple[str | None, str, float], ...]:
    """The terms of a family in the w basis as (einsum subscripts, bucket, scale).

    Each factor is E = w + delta/2.  For each subset of the factors kept in
    w, every other factor contracts its index pair at 1/2, and the term
    doubles once for each spin label no kept factor carries.  The kept factors
    choose the bucket: none the constant, one its monomer's one-body term, two
    on one monomer ``aa``/``bb``, one per monomer ``lock`` with a shared label
    and ``dir`` without.  A g family's all-w term is its first tensor as it
    stands (subscripts None) in its own bucket; t3a's is left out, as it is the
    two-body electrostatic factor times a one-body exchange dressing, which
    the product-form term holds through the dressed one-body tensor.
    """
    spec, factors = FAMILIES[family]
    terms = []
    # subsets in binary order, the last factor's bit the fastest: this is the
    # order, and so the rounding, of the additions into one bucket
    for keep in itertools.product((False, True), repeat=len(factors)):
        kept = [f for f, k in zip(factors, keep) if k]
        if len(kept) == 3:
            if family != "t3a":
                terms.append((None, family, 1.0))
            continue
        subscripts, out = spec, "".join(pq for _, _, pq in kept)
        for (_, _, pq), k in zip(factors, keep):
            if not k:
                subscripts = subscripts.replace(pq[1], pq[0])
        free = {s for _, s, _ in factors} - {s for _, s, _ in kept}
        scale = 0.5 ** (len(factors) - len(kept)) * 2 ** len(free)
        monomers = "".join(m for m, _, _ in kept)
        if monomers != "AB":
            name = _BUCKET[monomers]
        else:
            name = "lock" if kept[0][1] == kept[1][1] else "dir"
        terms.append((f"{subscripts}->{out}", name, scale))
    return tuple(terms)


def convert(bk: dict[str, np.ndarray], family: str, *tensors: np.ndarray) -> None:
    """Add the terms of :func:`_reduction` of one family to the buckets."""
    for subscripts, name, scale in _reduction(family):
        acc = bk[name]
        if subscripts is None:
            acc += tensors[0]
            continue
        # a path search only pays for itself with two tensors to contract
        term = np.einsum(subscripts, *tensors, optimize=len(tensors) > 1)
        if scale != 1:
            term *= scale  # in place: a contraction is a fresh array, never a view
        acc += term
        del term  # no 4-index term outlives its addition


def _accumulate_vp_buckets(bk: dict[str, np.ndarray], v: np.ndarray, S: np.ndarray, nus) -> None:
    """Reduce the four-term exchange-electrostatic operator onto the buckets,
    after its locked-pair term, the ``lock`` family of -nu1 [p1,p2,q1,q2].

    Each family goes through :func:`convert`.  No operator reordering is
    involved, so the bookkeeping is exact; the Fock-space oracle pins it down
    term by term.  The monomer-B terms are the monomer-A ones on the swapped
    buckets and tensors.

    The iterator ``nus`` yields nu2 and then nu3, each computed when it is
    taken.  Only the negated copy of a tensor is kept while its family is
    reduced, so a tensor nothing else holds is freed before then.
    """
    # symmetric product term, with the pure two-body factors kept as an
    # operator product (block 'v' against the exchange factors)
    v0 = float(np.einsum("ppqq->", v))
    p0 = float(-0.5 * np.sum(S * S))
    bk["const"] += v0 * p0
    bk["lock"] += -v0 * np.einsum("ad,bc->abcd", S, S)
    bk["dir"] += p0 * v
    for side, ss, axes in ((bk, S, (0, 1, 2, 3)), (_swapped(bk), S.T, (2, 3, 0, 1))):
        vs = v.transpose(axes)
        convert(side, "g2", -next(nus).transpose(axes), ss)  # nu2, then nu3 swapped
        f, p = np.einsum("abqq->ab", vs), ss @ ss.T
        side["h_a"] += -0.5 * v0 * p + p0 * f
        side["aa"] += -0.5 * np.einsum("ab,cd->abcd", f, p)
        side["dir"] += -0.5 * np.einsum("ab,cd->abcd", f, ss.T @ ss)
        side["g2"] += -np.einsum("ab,dc->abcd", f, ss)


def _coefficients_from_buckets(
    bk: dict[str, np.ndarray],
    v_block: np.ndarray,
    S: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    space_tag: str,
) -> SaptCoefficients:
    """Package bucket accumulators as the blocks of :data:`BLOCKS`.

    Each block is its bucket over its prefactor, the inter-monomer families
    taken at their joint-swap symmetric part; the one-body terms carry the
    prefactor -1/2.
    """
    blocks = {}
    for label, block in BLOCKS.items():
        acc = bk[block.family]
        if label == "v" or (label in OPTIONAL_BLOCKS and not acc.any()):
            continue
        if block.family in ("lock", "dir"):
            acc = sym_joint(acc)
        acc /= block.prefactor  # in place: the buckets are this set's own, the division exact
        blocks[label] = acc
    blocks["v"] = v_block  # the table's last row
    return SaptCoefficients(
        observable="VPs",
        constant=float(bk["const"]),
        one_body_A=-2.0 * 0.5 * (bk["h_a"] + bk["h_a"].T),
        one_body_B=-2.0 * 0.5 * (bk["h_b"] + bk["h_b"].T),
        two_body_blocks=blocks,
        space_tag=space_tag,
        overlap=S,
        vp4_one_body_A=p_a,
        vp4_one_body_B=p_b,
    )


def build_majorana_coefficients(
    v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None
) -> dict[str, SaptCoefficients]:
    """Coefficient sets of all three observables from full-space tensors: the
    one builder (``active.coefficient_sets``) on the partition with every
    orbital active.  A projected ``v`` is held as given, not copied, and the
    V and VPs sets share it (sym_v4 is idempotent)."""
    from .active import SpacePartition, coefficient_sets  # active builds on this module

    v, S = symmetrize_v(v), validate_overlap(S)
    n_a, n_b = S.shape
    if v.shape != (n_a, n_a, n_b, n_b):
        raise ShapeError("v inconsistent with S")
    part = SpacePartition((), tuple(range(n_a)), (), tuple(range(n_b)), 0, 0)
    return coefficient_sets(v, S, part, "full", mixed)
