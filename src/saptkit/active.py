"""Active-space renormalization of the first-order observables.

Core orbitals are doubly occupied and traced out against a closed-shell
density; virtual orbitals are discarded entirely, so every sum (operator
indices and dressing contractions alike) runs over the retained
core-plus-active ranges.

The electrostatic-exchange renormalization traces the same four-term operator
the full-space builder decomposes.  Each excitation factor either stays fully
active, contracts internally over a core pair, or cross-contracts the outer
creation/annihilation pair of a same-monomer product (which flips the index
order of the surviving factor and locks its spin).  The resulting emissions
go through the full-space bucket converters.  The operator is symmetric under
exchanging the monomers, so the monomer-A half of the core contractions is
written once and run again on ``_Buckets.swapped()`` with swapped tensors and
``S.T``; only the self-mirrored terms stand on their own.  Products of the
two-body electrostatic factor with the core-dressed one-body exchange tensors
are not emitted separately but absorbed into the product-form term through
the dressed tensors p~ (the same bookkeeping the reference formulation builds
into its product-form exchange dressing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError, ShapeError
from .tensors import (
    DressedTensors,
    MixedTensors,
    SaptCoefficients,
    _Buckets,
    _accumulate_vp_buckets,
    _coefficients_from_buckets,
    _swap,
    build_dressed_nu,
    build_electrostatic_coefficients,
    convert_aa,
    convert_const,
    convert_dir,
    convert_g2,
    convert_g2r,
    convert_lock,
    convert_one_a,
    convert_t3a,
    sym_overlap_pair,
)


@dataclass(frozen=True)
class SpacePartition:
    """Core/active orbital index lists of both monomers."""

    core_A: tuple[int, ...]
    active_A: tuple[int, ...]
    core_B: tuple[int, ...]
    active_B: tuple[int, ...]
    n_act_elec_A: int
    n_act_elec_B: int

    def __post_init__(self):
        for name, core, active in (
            ("A", self.core_A, self.active_A),
            ("B", self.core_B, self.active_B),
        ):
            if set(core) & set(active):
                raise PartitionError(f"monomer {name}: core and active lists overlap")
            if len(set(core)) != len(core) or len(set(active)) != len(active):
                raise PartitionError(f"monomer {name}: repeated orbital index")
            if any(i < 0 for i in core + active):
                raise PartitionError(f"monomer {name}: negative orbital index")
        if self.n_act_elec_A < 0 or self.n_act_elec_B < 0:
            raise PartitionError("negative active electron count")

    @staticmethod
    def from_counts(
        core_A, active_A, core_B, active_B, n_elec_A: int, n_elec_B: int
    ) -> "SpacePartition":
        """Partition with active electron counts from doubly occupied cores."""
        na = n_elec_A - 2 * len(core_A)
        nb = n_elec_B - 2 * len(core_B)
        if na < 0 or nb < 0:
            raise PartitionError("more core electrons than electrons present")
        return SpacePartition(
            tuple(core_A), tuple(active_A), tuple(core_B), tuple(active_B), na, nb
        )

    @staticmethod
    def trivial(n_orb_A: int, n_orb_B: int, n_elec_A: int, n_elec_B: int) -> "SpacePartition":
        return SpacePartition(
            (), tuple(range(n_orb_A)), (), tuple(range(n_orb_B)), n_elec_A, n_elec_B
        )


def _restrict(v: np.ndarray, S: np.ndarray, mixed: MixedTensors | None, part: SpacePartition):
    """Reorder tensors to (active..., core...) per monomer, dropping virtuals."""
    ia = list(part.active_A) + list(part.core_A)
    ib = list(part.active_B) + list(part.core_B)
    if max(ia, default=-1) >= S.shape[0] or max(ib, default=-1) >= S.shape[1]:
        raise ShapeError("partition indexes orbitals outside the tensor ranges")
    vr = v[np.ix_(ia, ia, ib, ib)]
    sr = S[np.ix_(ia, ib)]
    mr = None
    if mixed is not None:
        mr = MixedTensors(
            m1=mixed.m1[np.ix_(ia, ib, ib, ia)],
            m2=mixed.m2[np.ix_(ia, ia, ib, ia)],
            m3=mixed.m3[np.ix_(ia, ib, ib, ib)],
        )
    return vr, sr, mr


def _core_pieces(vr: np.ndarray, sr: np.ndarray, nta: int, ntb: int):
    """Shared core-contracted intermediates (active output indices)."""
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    f_core_b = np.einsum("abjj->ab", vr[a, a, cb, cb])  # Coulomb trace over B cores
    f_core_a = np.einsum("iicd->cd", vr[ca, ca, b, b])
    v0_core = float(np.einsum("iijj->", vr[ca, ca, cb, cb]))
    ps_core_a = np.einsum("aj,bj->ab", sr[a, cb], sr[a, cb])  # overlap square over B cores
    ps_core_b = np.einsum("ic,id->cd", sr[ca, b], sr[ca, b])
    ss_cc = float(np.einsum("ij,ij->", sr[ca, cb], sr[ca, cb]))
    return f_core_b, f_core_a, v0_core, ps_core_a, ps_core_b, ss_cc


def renormalize_electrostatic(
    v: np.ndarray, partition: SpacePartition, fold: bool = True
) -> SaptCoefficients:
    """Active electrostatic observable with core terms folded into the tensor.

    The folded tensor reproduces the traced operator on the sector with the
    declared active electron counts; with no cores it reduces to the plain
    full-space coefficients.
    """
    vr, sr, _ = _restrict(v, np.zeros((v.shape[0], v.shape[2])), None, partition)
    nta, ntb = len(partition.active_A), len(partition.active_B)
    a, b = slice(0, nta), slice(0, ntb)
    f_core_b, f_core_a, v0_core, *_ = _core_pieces(vr, sr, nta, ntb)

    if nta == 0 or ntb == 0:
        return SaptCoefficients(
            observable="V",
            constant=4.0 * v0_core,
            one_body_A=np.zeros((nta, nta)),
            one_body_B=np.zeros((ntb, ntb)),
            two_body_blocks={"v": np.zeros((nta, nta, ntb, ntb))},
            space_tag="active",
            overlap=np.zeros((nta, ntb)),
        )

    v_tt = vr[a, a, b, b].copy()
    if fold and (partition.core_A or partition.core_B):
        eta_a, eta_b = partition.n_act_elec_A, partition.n_act_elec_B
        if eta_a == 0 or eta_b == 0:
            raise PartitionError("cannot fold core terms: empty active shell")
        eye_a, eye_b = np.eye(nta), np.eye(ntb)
        v_tt = (
            v_tt
            + (2.0 / eta_b) * np.einsum("ab,cd->abcd", f_core_b, eye_b)
            + (2.0 / eta_a) * np.einsum("ab,cd->abcd", eye_a, f_core_a)
            + (4.0 * v0_core / (eta_a * eta_b)) * np.einsum("ab,cd->abcd", eye_a, eye_b)
        )
        out = build_electrostatic_coefficients(v_tt, np.zeros((nta, ntb)))
    else:
        out = build_electrostatic_coefficients(v_tt, np.zeros((nta, ntb)))
        out.constant += 4.0 * v0_core
        out.one_body_A = out.one_body_A + 2.0 * f_core_b
        out.one_body_B = out.one_body_B + 2.0 * f_core_a
    out.space_tag = "active"
    return out


def renormalize_exchange(S: np.ndarray, partition: SpacePartition) -> SaptCoefficients:
    """Active single-exchange observable with core-dressed one-body tensors."""
    dummy_v = np.zeros((S.shape[0], S.shape[0], S.shape[1], S.shape[1]))
    vr, sr, _ = _restrict(dummy_v, S, None, partition)
    nta, ntb = len(partition.active_A), len(partition.active_B)
    a, b = slice(0, nta), slice(0, ntb)
    *_, ps_core_a, ps_core_b, ss_cc = _core_pieces(vr, sr, nta, ntb)

    s_tt = sr[a, b]
    p_act_a = s_tt @ s_tt.T
    p_act_b = s_tt.T @ s_tt
    constant = (
        -2.0 * ss_cc
        - float(np.trace(ps_core_a))
        - float(np.trace(ps_core_b))
        - 0.5 * float(np.sum(s_tt * s_tt))
    )
    return SaptCoefficients(
        observable="P",
        constant=constant,
        one_body_A=p_act_a + 2.0 * ps_core_a,
        one_body_B=p_act_b + 2.0 * ps_core_b,
        two_body_blocks={"exch": sym_overlap_pair(s_tt)},
        space_tag="active",
        overlap=s_tt,
    )


def _core_terms_a(bk: _Buckets, vr, sr, t1, lam2, nta: int, ntb: int) -> None:
    """Monomer-A half of the core contractions of :func:`renormalize_vp`: locked
    pair t1[p1,p2,q1,q2], triple term lam2[p1,p2,q1,p4] and product term."""
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    v_tt, s_tt = vr[a, a, b, b], sr[a, b]
    s_tc, s_ct, s_cc = sr[a, cb], sr[ca, b], sr[ca, cb]
    f_core_b, f_core_a, v0_core, ps_core_a, _, ss_cc = _core_pieces(vr, sr, nta, ntb)
    bs = bk.swapped()  # one-body terms on monomer B

    # ---- locked pair term: internal core contraction
    convert_one_a(bk, -np.einsum("abjj->ab", t1[a, a, cb, cb]))

    # ---- monomer-A triple term
    convert_aa(bk, -np.einsum("abjd,cj->abcd", lam2[a, a, cb, a], s_tc))
    convert_lock(bk, -2.0 * np.einsum("iicb,ad->abcd", lam2[ca, ca, b, a], s_tt))
    convert_one_a(bk, -2.0 * np.einsum("iijb,aj->ab", lam2[ca, ca, cb, a], s_tc))
    convert_dir(bk, -np.einsum("abci,id->abcd", lam2[a, a, b, ca], s_ct))
    convert_one_a(bk, -2.0 * np.einsum("abji,ij->ab", lam2[a, a, cb, ca], s_cc))
    convert_one_a(bs, -2.0 * np.einsum("iicx,xd->cd", lam2[ca, ca, b, ca], s_ct))
    convert_const(bk, -4.0 * np.einsum("iijx,xj->", lam2[ca, ca, cb, ca], s_cc))
    convert_one_a(bs, -np.einsum("itci,td->cd", lam2[ca, a, b, ca], s_tt))
    convert_lock(bk, np.einsum("ibci,ad->abcd", lam2[ca, a, b, ca], s_tt))
    convert_const(bk, -2.0 * np.einsum("itji,tj->", lam2[ca, a, cb, ca], s_tc))
    convert_one_a(bk, np.einsum("ibji,aj->ab", lam2[ca, a, cb, ca], s_tc))

    # ---- product term: core contractions of the electrostatic/exchange pair
    convert_g2(bk, -2.0 * np.einsum("ab,dc->abcd", f_core_b, s_tt), s_tt)
    convert_t3a(bk, -v_tt, ps_core_a)
    convert_aa(bk, -2.0 * np.einsum("ab,cd->abcd", f_core_b, ps_core_a))
    # outer cross contraction of the monomer-A pair
    convert_aa(bk, -np.einsum("abju,cj,du->abcd", vr[a, a, cb, b], s_tc, s_tt, optimize=True))
    convert_g2r(bk, np.einsum("abjc,dj->abcd", vr[a, a, cb, b], s_tc), s_tt)
    # doubly contracted cells
    convert_dir(bk, -2.0 * np.einsum("ab,cd->abcd", ps_core_a, f_core_a))
    convert_one_a(bk, -4.0 * v0_core * ps_core_a)
    convert_one_a(bk, -4.0 * ss_cc * f_core_b)
    # cross contractions paired with internal ones
    convert_one_a(
        bk, -2.0 * np.einsum("iiju,aj,bu->ab", vr[ca, ca, cb, b], s_tc, s_tt, optimize=True)
    )
    convert_lock(
        bk, 2.0 * np.einsum("iijd,aj,bc->abcd", vr[ca, ca, cb, b], s_tc, s_tt, optimize=True)
    )
    convert_one_a(
        bk, -2.0 * np.einsum("abju,iu,ij->ab", vr[a, a, cb, b], s_ct, s_cc, optimize=True)
    )
    convert_dir(bk, np.einsum("abjd,ic,ij->abcd", vr[a, a, cb, b], s_ct, s_cc, optimize=True))
    convert_const(
        bk, -4.0 * np.einsum("iiju,xu,xj->", vr[ca, ca, cb, b], s_ct, s_cc, optimize=True)
    )
    convert_one_a(
        bs, 2.0 * np.einsum("iijd,xc,xj->cd", vr[ca, ca, cb, b], s_ct, s_cc, optimize=True)
    )
    # both monomer pairs cross contracted
    convert_one_a(bk, np.einsum("ibju,aj,iu->ab", vr[ca, a, cb, b], s_tc, s_ct, optimize=True))


def renormalize_vp(
    v: np.ndarray,
    S: np.ndarray,
    partition: SpacePartition,
    mixed: MixedTensors | None = None,
) -> SaptCoefficients:
    """Active electrostatic-exchange observable (all seven coefficient blocks).

    The product-form term keeps the unfolded active Coulomb block and the
    core-dressed exchange one-body tensors p~; everything else lands in the
    explicit blocks, including the row-coupled overlap blocks '2r'/'3r' that
    only appear with nonempty cores.
    """
    vr, sr, mr = _restrict(v, S, mixed, partition)
    nta, ntb = len(partition.active_A), len(partition.active_B)
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    dressed = build_dressed_nu(vr, sr, mr)

    v_tt, s_tt = vr[a, a, b, b], sr[a, b]
    s_tc, s_ct = sr[a, cb], sr[ca, b]
    _, _, v0_core, ps_core_a, ps_core_b, ss_cc = _core_pieces(vr, sr, nta, ntb)

    bk = _Buckets.zeros(nta, ntb)

    # fully active assignments reduce to the full-space bookkeeping on the
    # active slices of the (core+active)-range dressed tensors
    dressed_act = DressedTensors(
        nu1=dressed.nu1[a, b, b, a],
        nu2=dressed.nu2[a, a, b, a],
        nu3=dressed.nu3[a, b, b, b],
    )
    _accumulate_vp_buckets(bk, v_tt, s_tt, dressed_act)

    # core contractions: each monomer-A term and its monomer-B mirror ...
    t1 = dressed.nu1.transpose(0, 3, 2, 1)  # [p1,p2,q1,q2]
    _core_terms_a(bk, vr, sr, t1, dressed.nu2, nta, ntb)
    _core_terms_a(bk.swapped(), _swap(vr), sr.T, _swap(t1), _swap(dressed.nu3), ntb, nta)
    # ... and the self-mirrored terms
    convert_const(bk, -2.0 * np.einsum("iijj->", t1[ca, ca, cb, cb]))
    convert_lock(bk, -4.0 * v0_core * np.einsum("ad,bc->abcd", s_tt, s_tt))
    convert_dir(bk, -2.0 * ss_cc * v_tt)
    convert_const(bk, -8.0 * v0_core * ss_cc)
    convert_const(bk, -2.0 * np.einsum("itju,tj,iu->", vr[ca, a, cb, b], s_tc, s_ct, optimize=True))
    convert_lock(bk, -np.einsum("ibjd,aj,ic->abcd", vr[ca, a, cb, b], s_tc, s_ct, optimize=True))

    p_tilde_a = s_tt @ s_tt.T + 2.0 * ps_core_a
    p_tilde_b = s_tt.T @ s_tt + 2.0 * ps_core_b
    return _coefficients_from_buckets(bk, v_tt.copy(), s_tt, p_tilde_a, p_tilde_b, "active")
