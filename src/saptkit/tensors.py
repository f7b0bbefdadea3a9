"""Spatial-orbital tensors for the first-order interaction observables.

Builds, symmetrizes and dresses the intermolecular Coulomb tensor ``v`` and
overlap matrix ``S``, and decomposes the three observables (electrostatic V,
single-exchange P, and the symmetrized electrostatic-exchange product VPs)
into the coefficient families used by the factorization, norm and oracle
modules.

Index conventions (all arrays row-major float64):

* ``v[p1, p2, q1, q2]``  -- (NA, NA, NB, NB), four-fold symmetric in
  (p1<->p2) and (q1<->q2).
* ``S[p, q]``            -- (NA, NB).
* mixed blocks (zero unless supplied; see :class:`MixedTensors`):
  ``m1[p1, q2, q1, p2]``, ``m2[p1, p2, q1, p4]``, ``m3[p1, q4, q1, q2]``.

Two-body coefficient blocks are stored in the layout ``T[a, b, c, d]`` where
(a, b) index the first orbital-rotation slot and (c, d) the second; for
inter-monomer blocks (a, b) belong to monomer A and (c, d) to monomer B.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    Standard archives do not carry these (they default to zero, which makes
    every exchange-dressing term carry at least one overlap factor).  The
    shared-span construction used by the complete-basis check supplies the
    genuine blocks.
    """

    m1: np.ndarray  # [p1, q2, q1, p2]
    m2: np.ndarray  # [p1, p2, q1, p4]
    m3: np.ndarray  # [p1, q4, q1, q2]

    @staticmethod
    def zeros(n_a: int, n_b: int) -> "MixedTensors":
        return MixedTensors(
            m1=np.zeros((n_a, n_b, n_b, n_a)),
            m2=np.zeros((n_a, n_a, n_b, n_a)),
            m3=np.zeros((n_a, n_b, n_b, n_b)),
        )


@dataclass(frozen=True)
class DressedTensors:
    """Overlap-dressed Coulomb tensors of the exchange expansion.

    ``nu1``/``nu2``/``nu3`` follow the plain (unsymmetrized) dressing; they
    are the ones the oracle certifies against the excitation-operator form.
    """

    nu1: np.ndarray  # [p1, q2, q1, p2]
    nu2: np.ndarray  # [p1, p2, q1, p4]
    nu3: np.ndarray  # [p1, q4, q1, q2]


@dataclass
class SaptCoefficients:
    """Coefficient set of one observable in the self-inverse-operator form.

    ``two_body_blocks`` maps block labels to arrays:

    ========  ======================================  =========================
    label     layout                                  appears in
    ========  ======================================  =========================
    ``v``     ``[p1,p2,q1,q2]``                       V two-body / VP4 factor
    ``A2``    ``[p1,p2,p3,p4]``                       monomer-A two-body of VPs
    ``B2``    ``[q1,q2,q3,q4]``                       monomer-B two-body of VPs
    ``1m``    ``[p1,p2,q1,q2]`` spin-free channel     VPs
    ``1l``    ``[p1,p2,q1,q2]`` spin-locked channel   VPs
    ``2``     ``[p1,p2,q1,p4]`` + shared overlap      VPs (extra S factor)
    ``3``     ``[p1,q4,q1,q2]`` + shared overlap      VPs (extra S factor)
    ========  ======================================  =========================
    """

    observable: str  # 'V' | 'P' | 'VPs'
    constant: float
    one_body_A: np.ndarray
    one_body_B: np.ndarray
    two_body_blocks: dict[str, np.ndarray] = field(default_factory=dict)
    space_tag: str = "full"
    overlap: np.ndarray | None = None  # S in the operator's orbital ranges
    vp4_one_body_A: np.ndarray | None = None  # dressed p~(A) of the product form
    vp4_one_body_B: np.ndarray | None = None


# ---------------------------------------------------------------------------
# validation / symmetrization on load


def symmetrize_v(v: np.ndarray, tol: float = SYMMETRY_TOL) -> np.ndarray:
    """Project ``v`` onto its four-fold symmetric part.

    Asymmetry below ``tol`` (relative, Frobenius) is silently projected out;
    anything larger raises :class:`SymmetryError`.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 4 or v.shape[0] != v.shape[1] or v.shape[2] != v.shape[3]:
        raise ShapeError(f"v must have shape (NA, NA, NB, NB), got {v.shape}")
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


def build_dressed_nu(
    v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None
) -> DressedTensors:
    """Overlap-dressed Coulomb tensors over the full orbital ranges."""
    v = np.asarray(v, dtype=float)
    S = np.asarray(S, dtype=float)
    n_a, n_b = S.shape
    if v.shape != (n_a, n_a, n_b, n_b):
        raise ShapeError("v inconsistent with S")
    if mixed is None:
        mixed = MixedTensors.zeros(n_a, n_b)

    nu1 = (
        mixed.m1
        + np.einsum("axby,xj,qy->ajbq", v, S, S, optimize=True)
        - np.einsum("ajby,qy->ajbq", mixed.m3, S, optimize=True)
        - np.einsum("axbq,xj->ajbq", mixed.m2, S, optimize=True)
    )
    nu2 = mixed.m2 - np.einsum("abcy,dy->abcd", v, S, optimize=True)
    nu3 = mixed.m3 - np.einsum("axcd,xb->abcd", v, S, optimize=True)
    return DressedTensors(nu1, nu2, nu3)


# ---------------------------------------------------------------------------
# observable coefficient sets


def one_body_f(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coulomb traces f(A)[p1,p2] = sum_q v[p1,p2,q,q] and the B analogue."""
    return np.einsum("abqq->ab", v), np.einsum("ppab->ab", v)


def build_electrostatic_coefficients(v: np.ndarray, S: np.ndarray) -> SaptCoefficients:
    return _electrostatic(v, S, sym_v4(v))


def _electrostatic(v: np.ndarray, S: np.ndarray, v_block: np.ndarray) -> SaptCoefficients:
    """The V set with its two-body block given, already projected."""
    f_a, f_b = one_body_f(v)
    return SaptCoefficients(
        observable="V",
        constant=float(np.einsum("ppqq->", v)),
        one_body_A=f_a,
        one_body_B=f_b,
        two_body_blocks={"v": v_block},
        overlap=np.asarray(S, dtype=float),
    )


def build_exchange_coefficients(S: np.ndarray) -> SaptCoefficients:
    S = np.asarray(S, dtype=float)
    return SaptCoefficients(
        observable="P",
        constant=float(-0.5 * np.sum(S * S)),
        one_body_A=S @ S.T,
        one_body_B=S.T @ S,
        overlap=S,
    )


def _swap(T: np.ndarray) -> np.ndarray:
    """Exchange the monomer slots of a two-body block: [a,b,c,d] -> [c,d,a,b]."""
    return T.transpose(2, 3, 0, 1)


@dataclass
class _Buckets:
    """Accumulators of the exchange-electrostatic decomposition.

    Each two-body bucket holds the non-Hermitian half ``M`` of its family;
    the assembled operator is (M + M^dagger)/2 per family.  :meth:`swapped`
    views them with the monomers exchanged: ``h_a``/``h_b`` and ``aa``/``bb``
    trade places, the inter-monomer blocks are transposed (2, 3, 0, 1), which
    maps ``g2`` onto ``g3`` and ``g2r`` onto ``g3r``, and the 0-d ``const``
    is shared.
    """

    const: np.ndarray
    h_a: np.ndarray
    h_b: np.ndarray
    lock: np.ndarray
    dir_: np.ndarray
    aa: np.ndarray
    bb: np.ndarray
    g2: np.ndarray
    g3: np.ndarray
    g2r: np.ndarray
    g3r: np.ndarray

    @staticmethod
    def zeros(n_a: int, n_b: int) -> "_Buckets":
        return _Buckets(
            const=np.zeros(()),
            h_a=np.zeros((n_a, n_a)),
            h_b=np.zeros((n_b, n_b)),
            lock=np.zeros((n_a, n_a, n_b, n_b)),
            dir_=np.zeros((n_a, n_a, n_b, n_b)),
            aa=np.zeros((n_a, n_a, n_a, n_a)),
            bb=np.zeros((n_b, n_b, n_b, n_b)),
            g2=np.zeros((n_a, n_a, n_b, n_a)),
            g3=np.zeros((n_a, n_b, n_b, n_b)),
            g2r=np.zeros((n_a, n_a, n_b, n_a)),
            g3r=np.zeros((n_a, n_b, n_b, n_b)),
        )

    def swapped(self) -> "_Buckets":
        """Views of these accumulators with monomer B first.

        Every ``+=`` on the view lands here, so each converter is written once,
        for monomer A: run on the view with swapped tensors and ``S.T``, it
        emits the mirrored monomer-B term.
        """
        return _Buckets(
            self.const, self.h_b, self.h_a, _swap(self.lock), _swap(self.dir_), self.bb,
            self.aa, _swap(self.g3), _swap(self.g2), _swap(self.g3r), _swap(self.g2r),
        )


def convert_const(bk: _Buckets, c: float) -> None:
    bk.const += c


def convert_one_a(bk: _Buckets, h: np.ndarray) -> None:
    """sum_sigma h[p1,p2] E^sigma on monomer A."""
    bk.const += float(np.trace(h))
    bk.h_a += h


def convert_lock(bk: _Buckets, T: np.ndarray) -> None:
    """sum_sigma T[p1,p2,q1,q2] E^sigma_A E^sigma_B."""
    bk.const += 0.5 * np.einsum("ppqq->", T)
    bk.h_a += 0.5 * np.einsum("abqq->ab", T)
    bk.h_b += 0.5 * np.einsum("ppab->ab", T)
    bk.lock += T


def convert_dir(bk: _Buckets, T: np.ndarray) -> None:
    """sum_{sigma tau} T[p1,p2,q1,q2] E^sigma_A E^tau_B."""
    bk.const += np.einsum("ppqq->", T)
    bk.h_a += np.einsum("abqq->ab", T)
    bk.h_b += np.einsum("ppab->ab", T)
    bk.dir_ += T


def convert_aa(bk: _Buckets, T: np.ndarray) -> None:
    """sum_{sigma tau} T[a,b,c,d] E^sigma(ab) E^tau(cd), both on monomer A."""
    bk.const += np.einsum("pprr->", T)
    bk.h_a += np.einsum("abrr->ab", T) + np.einsum("rrab->ab", T)
    bk.aa += T


def _add_half(acc: np.ndarray, subscripts: str, lam: np.ndarray, S: np.ndarray) -> None:
    """acc += 0.5 * einsum(subscripts, lam, S), scaling the contraction in place."""
    term = np.einsum(subscripts, lam, S, optimize=True)
    term *= 0.5
    acc += term


def convert_g2(bk: _Buckets, lam: np.ndarray, S: np.ndarray) -> None:
    """sum_{s1 s2} lam[p1,p2,q1,p4] S[p3,q2] E^{s1}(p1p2) E^{s2}(p3p4) E^{s2}_B(q1q2)."""
    _add_half(bk.const, "ppqr,rq->", lam, S)
    _add_half(bk.h_b, "ppcr,rd->cd", lam, S)
    _add_half(bk.h_a, "ppqb,aq->ab", lam, S)
    _add_half(bk.h_a, "abqr,rq->ab", lam, S)
    bk.lock += np.einsum("ppcb,ad->abcd", lam, S, optimize=True)
    _add_half(bk.dir_, "abcr,rd->abcd", lam, S)
    _add_half(bk.aa, "abqd,cq->abcd", lam, S)
    bk.g2 += lam


def convert_g2r(bk: _Buckets, lam: np.ndarray, S: np.ndarray) -> None:
    """Row-coupled variant: lam[p1,p2,q2,p3] S[p4,q1] with the same spins."""
    _add_half(bk.const, "ppqr,rq->", lam, S)
    _add_half(bk.h_b, "ppdr,rc->cd", lam, S)
    _add_half(bk.h_a, "ppqa,bq->ab", lam, S)
    _add_half(bk.h_a, "abqr,rq->ab", lam, S)
    bk.lock += np.einsum("ppda,bc->abcd", lam, S, optimize=True)
    _add_half(bk.dir_, "abdr,rc->abcd", lam, S)
    _add_half(bk.aa, "abqc,dq->abcd", lam, S)
    bk.g2r += lam


def convert_t3a(bk: _Buckets, T: np.ndarray, h: np.ndarray) -> None:
    """sum_{sigma mu tau} T[p1,p2,q1,q2] h[p3,p4] E^sigma(p1p2) E^mu(p3p4) E^tau_B.

    The pure three-quadratic part is omitted: it is exactly the product of the
    two-body electrostatic factor with a one-body exchange dressing and lives
    inside the product-form term through the dressed one-body exchange tensor.
    """
    tr_h = float(np.trace(h))
    t_tr_b = np.einsum("abqq->ab", T)
    t_tr_a = np.einsum("ppab->ab", T)
    bk.const += np.einsum("ppqq->", T) * tr_h
    bk.h_a += t_tr_b * tr_h + np.einsum("ppqq->", T) * h
    bk.h_b += t_tr_a * tr_h
    bk.aa += np.einsum("ab,cd->abcd", t_tr_b, h)
    bk.dir_ += T * tr_h
    bk.dir_ += np.einsum("ab,cd->abcd", h, t_tr_a)


def _accumulate_vp_buckets(
    bk: _Buckets,
    v: np.ndarray,
    S: np.ndarray,
    dressed: DressedTensors,
) -> None:
    """Reduce the four-term exchange-electrostatic operator onto the buckets.

    The reduction splits every excitation factor into its scalar half and its
    traceless quadratic part; identity halves contract indices, the rest stays
    in its family.  No operator reordering is involved, so the bookkeeping is
    exact; the Fock-space oracle pins it down term by term.  The monomer-B
    terms are the monomer-A ones on the swapped buckets and tensors.
    """
    convert_lock(bk, -dressed.nu1.transpose(0, 3, 2, 1))  # [p1,p2,q1,q2]

    # symmetric product term, with the pure two-body factors kept as an
    # operator product (block 'v' against the exchange factors)
    v0 = float(np.einsum("ppqq->", v))
    p0 = float(-0.5 * np.sum(S * S))
    bk.const += v0 * p0
    bk.lock += -v0 * np.einsum("ad,bc->abcd", S, S)
    bk.dir_ += p0 * v
    for side, vs, ss, lam in (
        (bk, v, S, dressed.nu2),
        (bk.swapped(), _swap(v), S.T, _swap(dressed.nu3)),
    ):
        convert_g2(side, -lam, ss)
        f, p = np.einsum("abqq->ab", vs), ss @ ss.T
        side.h_a += -0.5 * v0 * p + p0 * f
        side.aa += -0.5 * np.einsum("ab,cd->abcd", f, p)
        side.dir_ += -0.5 * np.einsum("ab,cd->abcd", f, ss.T @ ss)
        side.g2 += -np.einsum("ab,dc->abcd", f, ss)


def _coefficients_from_buckets(
    bk: _Buckets,
    v_block: np.ndarray,
    S: np.ndarray,
    p_a: np.ndarray,
    p_b: np.ndarray,
    space_tag: str,
) -> SaptCoefficients:
    """Package bucket accumulators with the documented block normalization.

    Stored blocks use the convention in which the assembled operator carries
    prefactors -1/2 (one-body, 'A2', 'B2', '1m', '2', '3') and -1 ('1l'), so
    entrywise block sums feed the sparse-norm formulas directly.
    """
    blocks = {
        "A2": bk.aa,
        "B2": bk.bb,
        "1m": sym_joint(bk.dir_),
        "1l": sym_joint(bk.lock),
        "2": bk.g2,
        "3": bk.g3,
        "v": v_block,
    }
    if bk.g2r.any():
        blocks["2r"] = bk.g2r
    if bk.g3r.any():
        blocks["3r"] = bk.g3r
    # the buckets are this set's own, so the (exact) scalings go in place
    for label, block in blocks.items():
        if label != "v":
            block *= -1.0 if label == "1l" else -2.0
    return SaptCoefficients(
        observable="VPs",
        constant=float(bk.const),
        one_body_A=-2.0 * 0.5 * (bk.h_a + bk.h_a.T),
        one_body_B=-2.0 * 0.5 * (bk.h_b + bk.h_b.T),
        two_body_blocks=blocks,
        space_tag=space_tag,
        overlap=S,
        vp4_one_body_A=p_a,
        vp4_one_body_B=p_b,
    )


def build_vp_coefficients(
    v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None
) -> SaptCoefficients:
    """Full-space coefficient set of the electrostatic-exchange observable."""
    v = np.asarray(v, dtype=float)
    S = np.asarray(S, dtype=float)
    n_a, n_b = S.shape
    dressed = build_dressed_nu(v, S, mixed)
    bk = _Buckets.zeros(n_a, n_b)
    _accumulate_vp_buckets(bk, v, S, dressed)
    return _coefficients_from_buckets(bk, v, S, S @ S.T, S.T @ S, "full")


def build_majorana_coefficients(
    v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None = None
) -> dict[str, SaptCoefficients]:
    """Coefficient sets of all three observables from full-space tensors."""
    v = symmetrize_v(v)
    S = validate_overlap(S)
    return {  # v is projected, and sym_v4 is idempotent: V and VPs share the array
        "V": _electrostatic(v, S, v),
        "P": build_exchange_coefficients(S),
        "VPs": build_vp_coefficients(v, S, mixed),
    }
