"""The coefficient sets of the first-order observables, over an active space.

This is the one coefficient builder.  Core orbitals are doubly occupied and
traced out against a closed-shell density; virtual orbitals are discarded
entirely, so every sum (operator indices and dressing contractions alike)
runs over the retained core-plus-active ranges.  The full space is the
partition with no core and every orbital active: it does no core work, and
its sets are those of ``tensors.build_majorana_coefficients``.

The electrostatic-exchange renormalization traces the full four-term
operator.  Each excitation factor either stays fully active, contracts
internally over a core pair, or cross-contracts the outer
creation/annihilation pair of a same-monomer product (which flips the index
order of the surviving factor and locks its spin).  The resulting emissions
go through the family reduction (``tensors.convert``).  The operator is
symmetric under exchanging the monomers, so the monomer-A half of the core
contractions is written once and run again on the mirrored buckets
(``tensors._swapped``) with swapped tensors and ``S.T``; only the
self-mirrored terms stand on their own.
Products of the two-body electrostatic factor with the core-dressed one-body
exchange tensors are not emitted separately but absorbed into the
product-form term through the dressed tensors p~ (the same bookkeeping the
reference formulation builds into its product-form exchange dressing).

Each observable has one body, which reads tensors in active-then-core order;
its entries choose the stored ``v`` block, a copy (``renormalize_*``) or the
given ``v`` itself (:func:`coefficient_sets`, with no core).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError, ShapeError
from .tensors import (
    SaptCoefficients,
    _accumulate_vp_buckets,
    _buckets,
    _coefficients_from_buckets,
    _dressed,
    _swap,
    _swapped,
    convert,
    one_body_f,
    sym_v4,
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


def _order(part: SpacePartition, n_a: int, n_b: int):
    """Orbital order (active..., core...) per monomer, dropping virtuals."""
    ia = list(part.active_A) + list(part.core_A)
    ib = list(part.active_B) + list(part.core_B)
    if max(ia, default=-1) >= n_a or max(ib, default=-1) >= n_b:
        raise ShapeError("partition indexes orbitals outside the tensor ranges")
    return ia, ib


def _ordered(t: np.ndarray, *orders: list[int]) -> np.ndarray:
    """``t`` gathered along each axis in its order; ``t`` itself, made
    C-contiguous as a gather would be, when every order is the identity."""
    if all(o == list(range(n)) for o, n in zip(orders, t.shape)):
        return np.ascontiguousarray(t)
    return t[np.ix_(*orders)]


def active_order(v: np.ndarray, S: np.ndarray, part: SpacePartition):
    """(v, S, partition) gathered into the order of :func:`_order` and
    re-indexed so that order is the identity: actives ``range(n_act)``, cores
    after them, electron counts as given.  The renormalized sets of the result
    are those of the arguments, bit for bit, and build without a reordered
    copy; ``v`` and ``S`` are always gathered into arrays of their own."""
    ia, ib = _order(part, *S.shape)
    nta, ntb = len(part.active_A), len(part.active_B)
    reindexed = SpacePartition(
        tuple(range(nta, len(ia))), tuple(range(nta)),
        tuple(range(ntb, len(ib))), tuple(range(ntb)),
        part.n_act_elec_A, part.n_act_elec_B,
    )
    return v[np.ix_(ia, ia, ib, ib)], S[np.ix_(ia, ib)], reindexed


def _coulomb_core(vr: np.ndarray, nta: int, ntb: int):
    """Core traces of the reordered Coulomb tensor (active output indices)."""
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    f_core_b = np.einsum("abjj->ab", vr[a, a, cb, cb])  # Coulomb trace over B cores
    f_core_a = np.einsum("iicd->cd", vr[ca, ca, b, b])
    v0_core = float(np.einsum("iijj->", vr[ca, ca, cb, cb]))
    return f_core_b, f_core_a, v0_core


def _overlap_core(sr: np.ndarray, nta: int, ntb: int):
    """Core contractions of the reordered overlap (active output indices)."""
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    ps_core_a = np.einsum("aj,bj->ab", sr[a, cb], sr[a, cb])  # overlap square over B cores
    ps_core_b = np.einsum("ic,id->cd", sr[ca, b], sr[ca, b])
    ss_cc = float(np.einsum("ij,ij->", sr[ca, cb], sr[ca, cb]))
    return ps_core_a, ps_core_b, ss_cc


def _electrostatic(vr, part: SpacePartition, tag: str, v_block=None) -> SaptCoefficients:
    """The V set of ``vr`` (in the order of :func:`_order`), core terms folded
    into the active tensor.  Its two-body block is ``v_block`` when given, and
    otherwise the projection of that tensor."""
    nta, ntb = len(part.active_A), len(part.active_B)
    v_tt = vr[:nta, :nta, :ntb, :ntb]
    if part.core_A or part.core_B:
        f_core_b, f_core_a, v0_core = _coulomb_core(vr, nta, ntb)
        if nta == 0 or ntb == 0:
            return SaptCoefficients(
                observable="V",
                constant=4.0 * v0_core,
                one_body_A=np.zeros((nta, nta)),
                one_body_B=np.zeros((ntb, ntb)),
                two_body_blocks={"v": np.zeros((nta, nta, ntb, ntb))},
                space_tag=tag,
            )
        eta_a, eta_b = part.n_act_elec_A, part.n_act_elec_B
        if eta_a == 0 or eta_b == 0:
            raise PartitionError("cannot fold core terms: empty active shell")
        eye_a, eye_b = np.eye(nta), np.eye(ntb)
        v_tt = (
            v_tt
            + (2.0 / eta_b) * np.einsum("ab,cd->abcd", f_core_b, eye_b)
            + (2.0 / eta_a) * np.einsum("ab,cd->abcd", eye_a, f_core_a)
            + (4.0 * v0_core / (eta_a * eta_b)) * np.einsum("ab,cd->abcd", eye_a, eye_b)
        )
    f_a, f_b = one_body_f(v_tt)
    return SaptCoefficients(
        observable="V",
        constant=float(np.einsum("ppqq->", v_tt)),
        one_body_A=f_a,
        one_body_B=f_b,
        two_body_blocks={"v": sym_v4(v_tt) if v_block is None else v_block},
        space_tag=tag,
    )


def _exchange(sr, part: SpacePartition, tag: str) -> SaptCoefficients:
    """The P set of ``sr`` (in the order of :func:`_order`), its one-body
    tensors dressed by the cores."""
    nta, ntb = len(part.active_A), len(part.active_B)
    s_tt = sr[:nta, :ntb]
    p_a, p_b = s_tt @ s_tt.T, s_tt.T @ s_tt
    half = 0.5 * float(np.sum(s_tt * s_tt))
    constant = -half
    if part.core_A or part.core_B:
        ps_core_a, ps_core_b, ss_cc = _overlap_core(sr, nta, ntb)
        constant = -2.0 * ss_cc - float(np.trace(ps_core_a)) - float(np.trace(ps_core_b)) - half
        p_a, p_b = p_a + 2.0 * ps_core_a, p_b + 2.0 * ps_core_b
    return SaptCoefficients(
        observable="P", constant=constant, one_body_A=p_a, one_body_B=p_b,
        space_tag=tag, overlap=s_tt,
    )


def renormalize_electrostatic(v: np.ndarray, partition: SpacePartition) -> SaptCoefficients:
    """Active electrostatic observable with core terms folded into the tensor.

    The folded tensor reproduces the traced operator on the sector with the
    declared active electron counts; with no cores it reduces to the plain
    full-space coefficients.
    """
    ia, ib = _order(partition, v.shape[0], v.shape[2])
    return _electrostatic(_ordered(v, ia, ia, ib, ib), partition, "active")


def renormalize_exchange(S: np.ndarray, partition: SpacePartition) -> SaptCoefficients:
    """Active single-exchange observable with core-dressed one-body tensors."""
    ia, ib = _order(partition, *S.shape)
    return _exchange(_ordered(S, ia, ib), partition, "active")


def _core_terms_a(bk: dict, vr, sr, t1_core, dressed, nta: int, ntb: int) -> None:
    """Monomer-A half of the core contractions of :func:`_vp`: locked
    pair (its B-core trace ``t1_core``), triple term lam2[p1,p2,q1,p4] (computed
    by ``dressed()``, and freed before the product term) and product term."""
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    v_tt, s_tt = vr[a, a, b, b], sr[a, b]
    s_tc, s_ct, s_cc = sr[a, cb], sr[ca, b], sr[ca, cb]
    f_core_b, f_core_a, v0_core = _coulomb_core(vr, nta, ntb)
    ps_core_a, _, ss_cc = _overlap_core(sr, nta, ntb)
    bs = _swapped(bk)  # one-body terms on monomer B

    # ---- locked pair term: internal core contraction
    convert(bk, "one_a", -t1_core)

    # ---- monomer-A triple term
    lam2 = dressed()
    convert(bk, "aa", -np.einsum("abjd,cj->abcd", lam2[a, a, cb, a], s_tc))
    convert(bk, "lock", -2.0 * np.einsum("iicb,ad->abcd", lam2[ca, ca, b, a], s_tt))
    convert(bk, "one_a", -2.0 * np.einsum("iijb,aj->ab", lam2[ca, ca, cb, a], s_tc))
    convert(bk, "dir", -np.einsum("abci,id->abcd", lam2[a, a, b, ca], s_ct))
    convert(bk, "one_a", -2.0 * np.einsum("abji,ij->ab", lam2[a, a, cb, ca], s_cc))
    convert(bs, "one_a", -2.0 * np.einsum("iicx,xd->cd", lam2[ca, ca, b, ca], s_ct))
    bk["const"] += -4.0 * np.einsum("iijx,xj->", lam2[ca, ca, cb, ca], s_cc)
    convert(bs, "one_a", -np.einsum("itci,td->cd", lam2[ca, a, b, ca], s_tt))
    convert(bk, "lock", np.einsum("ibci,ad->abcd", lam2[ca, a, b, ca], s_tt))
    bk["const"] += -2.0 * np.einsum("itji,tj->", lam2[ca, a, cb, ca], s_tc)
    convert(bk, "one_a", np.einsum("ibji,aj->ab", lam2[ca, a, cb, ca], s_tc))
    del lam2

    # ---- product term: core contractions of the electrostatic/exchange pair
    convert(bk, "g2", -2.0 * np.einsum("ab,dc->abcd", f_core_b, s_tt), s_tt)
    convert(bk, "t3a", -v_tt, ps_core_a)
    convert(bk, "aa", -2.0 * np.einsum("ab,cd->abcd", f_core_b, ps_core_a))
    # outer cross contraction of the monomer-A pair
    convert(bk, "aa", -np.einsum("abju,cj,du->abcd", vr[a, a, cb, b], s_tc, s_tt, optimize=True))
    convert(bk, "g2r", np.einsum("abjc,dj->abcd", vr[a, a, cb, b], s_tc), s_tt)
    # doubly contracted cells
    convert(bk, "dir", -2.0 * np.einsum("ab,cd->abcd", ps_core_a, f_core_a))
    convert(bk, "one_a", -4.0 * v0_core * ps_core_a)
    convert(bk, "one_a", -4.0 * ss_cc * f_core_b)
    # cross contractions paired with internal ones
    convert(
        bk, "one_a",
        -2.0 * np.einsum("iiju,aj,bu->ab", vr[ca, ca, cb, b], s_tc, s_tt, optimize=True),
    )
    convert(
        bk, "lock",
        2.0 * np.einsum("iijd,aj,bc->abcd", vr[ca, ca, cb, b], s_tc, s_tt, optimize=True),
    )
    convert(
        bk, "one_a",
        -2.0 * np.einsum("abju,iu,ij->ab", vr[a, a, cb, b], s_ct, s_cc, optimize=True),
    )
    convert(bk, "dir", np.einsum("abjd,ic,ij->abcd", vr[a, a, cb, b], s_ct, s_cc, optimize=True))
    bk["const"] += -4.0 * np.einsum("iiju,xu,xj->", vr[ca, ca, cb, b], s_ct, s_cc, optimize=True)
    convert(
        bs, "one_a",
        2.0 * np.einsum("iijd,xc,xj->cd", vr[ca, ca, cb, b], s_ct, s_cc, optimize=True),
    )
    # both monomer pairs cross contracted
    convert(bk, "one_a", np.einsum("ibju,aj,iu->ab", vr[ca, a, cb, b], s_tc, s_ct, optimize=True))


def _vp(vr, sr, part: SpacePartition, tag: str, v_block=None, mixed=None) -> SaptCoefficients:
    """The VPs set of ``vr`` and ``sr`` (in the order of :func:`_order`), all
    seven coefficient blocks; block 'v' is ``v_block`` when given, and
    otherwise a copy of the active Coulomb block.

    The product-form term keeps the unfolded active Coulomb block and the
    core-dressed exchange one-body tensors p~; everything else lands in the
    explicit blocks, including the row-coupled overlap blocks '2r'/'3r' that
    only appear with nonempty cores.

    One dressed tensor is held at a time: nu1 leaves its locked-pair term and,
    with a core, its three core traces; nu2 and nu3 are computed for their
    active slices and, with a core, again for the core terms, so every bucket
    gets its additions in the same order.  With no core the build does no core
    work.  The hybrid blocks ``mixed`` enter only the fully active terms, so a
    core refuses them.
    """
    cored = bool(part.core_A or part.core_B)
    if cored and mixed is not None:
        raise PartitionError("hybrid Coulomb blocks need an empty core")
    nta, ntb = len(part.active_A), len(part.active_B)
    a, b = slice(0, nta), slice(0, ntb)
    ca, cb = slice(nta, None), slice(ntb, None)
    v_tt, s_tt = vr[a, a, b, b], sr[a, b]
    bk = _buckets(nta, ntb)

    # fully active assignments reduce to the full-space bookkeeping on the
    # active slices of the (core+active)-range dressed tensors
    t1 = _dressed(1, vr, sr, mixed).transpose(0, 3, 2, 1)  # [p1,p2,q1,q2]
    if cored:
        t1_core = (
            np.einsum("abjj->ab", t1[a, a, cb, cb]),
            np.einsum("abjj->ab", _swap(t1)[b, b, ca, ca]),
            np.einsum("iijj->", t1[ca, ca, cb, cb]),
        )
    lock = -t1[a, a, b, b]  # only this negated slice is held while its family is reduced
    del t1
    convert(bk, "lock", lock)
    del lock
    slices = ((2, np.s_[a, a, b, a]), (3, np.s_[a, b, b, b]))
    _accumulate_vp_buckets(bk, v_tt, s_tt, (_dressed(k, vr, sr, mixed)[s] for k, s in slices))

    p_tilde_a, p_tilde_b = s_tt @ s_tt.T, s_tt.T @ s_tt
    if cored:
        # core contractions: each monomer-A term and its monomer-B mirror ...
        _core_terms_a(bk, vr, sr, t1_core[0], lambda: _dressed(2, vr, sr), nta, ntb)
        _core_terms_a(
            _swapped(bk), _swap(vr), sr.T, t1_core[1], lambda: _swap(_dressed(3, vr, sr)), ntb, nta
        )
        # ... and the self-mirrored terms
        s_tc, s_ct = sr[a, cb], sr[ca, b]
        v0_core = _coulomb_core(vr, nta, ntb)[2]
        ps_core_a, ps_core_b, ss_cc = _overlap_core(sr, nta, ntb)
        bk["const"] += -2.0 * t1_core[2]
        convert(bk, "lock", -4.0 * v0_core * np.einsum("ad,bc->abcd", s_tt, s_tt))
        convert(bk, "dir", -2.0 * ss_cc * v_tt)
        bk["const"] += -8.0 * v0_core * ss_cc
        bk["const"] += -2.0 * np.einsum("itju,tj,iu->", vr[ca, a, cb, b], s_tc, s_ct, optimize=True)
        convert(
            bk, "lock", -np.einsum("ibjd,aj,ic->abcd", vr[ca, a, cb, b], s_tc, s_ct, optimize=True)
        )
        p_tilde_a, p_tilde_b = p_tilde_a + 2.0 * ps_core_a, p_tilde_b + 2.0 * ps_core_b
    v_block = v_tt.copy() if v_block is None else v_block
    return _coefficients_from_buckets(bk, v_block, s_tt, p_tilde_a, p_tilde_b, tag)


def renormalize_vp(v: np.ndarray, S: np.ndarray, partition: SpacePartition) -> SaptCoefficients:
    """Active electrostatic-exchange observable (all seven coefficient blocks)."""
    ia, ib = _order(partition, *S.shape)
    return _vp(_ordered(v, ia, ia, ib, ib), _ordered(S, ia, ib), partition, "active")


def coefficient_sets(v, S, part: SpacePartition, space_tag: str, mixed=None) -> dict:
    """The V, P and VPs sets of ``v`` and ``S`` already in the active-then-core
    order of ``part`` (as :func:`active_order` returns them), read as given.
    With no core, V and VPs hold ``v`` itself as their block 'v', so ``v``
    must be projected; with one, blocks of their own."""
    v_block = None if part.core_A or part.core_B else v
    return {
        "V": _electrostatic(v, part, space_tag, v_block),
        "P": _exchange(S, part, space_tag),
        "VPs": _vp(v, S, part, space_tag, v_block, mixed),
    }
