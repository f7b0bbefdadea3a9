"""Two-step tensor factorization with deterministic conventions.

Every four-index coefficient block is reshaped to a matrix over grouped index
pairs and decomposed exactly (eigendecomposition when the grouped matrix is
symmetric, SVD otherwise); each resulting vector is reshaped and decomposed
again the same way.  Factors are ordered by descending magnitude with a fixed
sign convention (largest-magnitude entry of each vector positive, ties broken
by lowest index), so identical input yields identical output across runs,
for one numpy/BLAS build and one BLAS thread count: another thread count can
change the last bits, since the BLAS may sum in another order.

Packed pair space: a side of the grouped matrix whose two indices run over
the same range, and under whose swap the block is symmetric to
``RANK_CUTOFF`` of its largest entry, is decomposed over the n(n+1)/2
pairs p <= q, with off-diagonal pairs weighted by sqrt(2).  That packed
matrix has the same nonzero spectrum, without the exact null space of the
antisymmetric pairs; its vectors are unpacked to both (p, q) and (q, p).
An eigendecomposition packs both sides or neither.

Batched inner step: all grouped vectors of one block are stacked and
decomposed by one broadcast ``eigh`` over the symmetric matrices and one
broadcast ``svd`` over the rest; each matrix gets exactly the result a call
of its own would give.  It consumes the grouped vectors: past it, a block's
outer step keeps its values and symmetry only, all the block encoding loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, SymmetryError
from .tensors import BLOCKS, SaptCoefficients

RANK_CUTOFF = 1e-12
SYM_TOL = 1e-10

@dataclass
class Factorization:
    """Exact decomposition of a real matrix: m = left @ diag(values) @ right.T."""

    values: np.ndarray
    left: np.ndarray | None  # None in a block's outer step past second_factorize
    right: np.ndarray | None
    symmetric: bool

    @property
    def rank(self) -> int:
        return len(self.values)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.values) @ self.right.T

    def truncated(self, keep: int) -> "Factorization":
        keep = max(1, keep) if self.rank else 0
        left, right = (None if m is None else m[:, :keep] for m in (self.left, self.right))
        return Factorization(self.values[:keep], left, right, self.symmetric)


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Make the largest-magnitude entry of each column of u positive, in place.

    Works on the last two axes of a stack; ties within 1e-12 of the largest
    magnitude go to the lowest index, and v's columns flip with u's.  The
    rule is per column, so it may run before the columns are reordered.
    """
    mags = np.abs(u)
    top = mags.max(axis=-2, keepdims=True)
    lead = np.argmax(mags >= top - 1e-12 * top, axis=-2)[..., None, :]
    sign = np.where(np.take_along_axis(u, lead, axis=-2) < 0, -1.0, 1.0)
    for m in (u,) if v is None else (u, v):
        m *= sign


def _check_stack(ms: np.ndarray, symmetric: bool | None):
    """Per-matrix scale and symmetry of a (k, rows, cols) stack.

    Raises :class:`DomainError` on NaN or Inf and :class:`SymmetryError` when
    ``symmetric=True`` is asserted for a nonzero matrix that is not.
    """
    k, rows, cols = ms.shape
    # max |m| without an |m| temporary: max and min propagate NaN, and -inf turns to inf
    scale = np.maximum(ms.max(axis=(1, 2), initial=0.0), -ms.min(axis=(1, 2), initial=0.0))
    if not np.isfinite(scale).all():
        raise DomainError("matrix contains NaN or Inf")
    is_sym = np.zeros(k, dtype=bool)
    if rows == cols:
        asym = ms - ms.transpose(0, 2, 1)
        is_sym = np.abs(asym, out=asym).max(axis=(1, 2), initial=0.0) <= SYM_TOL * scale
    if symmetric is True and not is_sym[scale > 0].all():
        raise SymmetryError("matrix asserted symmetric but is not")
    return scale, is_sym if symmetric is None else np.full(k, symmetric)


def _decompose_stack(ms, scale, symmetric, vectors=True, exact=False, signs=True) -> list:
    """Factorizations of a checked (k, rows, cols) stack, in stack order.

    One broadcast ``eigh`` covers the symmetric matrices and one broadcast
    ``svd`` the rest; each keeps its values above ``RANK_CUTOFF`` times its
    scale, by descending magnitude, signed by the module's rule unless
    ``signs=False``.  ``exact`` states the symmetric ones are exactly so (no
    symmetrization).  A zero matrix gives an empty symmetric factorization.
    ``vectors=False`` computes only the kept values, one array per matrix.
    """
    k, rows, cols = ms.shape
    out = [None] * k
    for i in np.flatnonzero(scale == 0):
        empty = Factorization(np.zeros(0), np.zeros((rows, 0)), np.zeros((cols, 0)), True)
        out[i] = empty if vectors else empty.values
    for sym in (True, False):
        idx = np.flatnonzero((scale > 0) & (symmetric == sym))
        if not len(idx):
            continue
        sub = ms if len(idx) == k else ms[idx]
        if sym:
            if not exact:
                sub = sub + sub.transpose(0, 2, 1)
                sub *= 0.5
            vals, left = np.linalg.eigh(sub) if vectors else (np.linalg.eigvalsh(sub), None)
            order = np.argsort(-np.abs(vals), axis=1, kind="stable")
            vals = np.take_along_axis(vals, order, axis=1)
        elif vectors:
            left, vals, right_t = np.linalg.svd(sub, full_matrices=False)
        else:
            vals = np.linalg.svd(sub, compute_uv=False)
        if vectors and signs:
            _fix_signs(left, None if sym else right_t.transpose(0, 2, 1))
        # descending magnitudes, so the kept values are a prefix; each matrix's
        # kept columns are gathered once, in that order, into arrays of their own
        kept = (np.abs(vals) > RANK_CUTOFF * scale[idx, None]).sum(axis=1)
        for j, (i, n) in enumerate(zip(idx, kept)):
            out[i] = vals[j, :n].copy()
            if vectors:
                u = left[j].take(order[j, :n], axis=1) if sym else left[j, :, :n].copy()
                out[i] = Factorization(out[i], u, u if sym else right_t[j, :n].T.copy(), sym)
    return out


def decompose_matrix(m: np.ndarray, symmetric: bool | None = None) -> Factorization:
    """Spectral or singular decomposition with the deterministic conventions.

    ``symmetric=None`` auto-detects; asserting a symmetry the matrix does not
    have raises :class:`SymmetryError`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ShapeError("decompose_matrix expects a matrix")
    return _decompose_stack(m[None], *_check_stack(m[None], symmetric))[0]


@dataclass
class BlockFactors:
    """Nested factorization of one four-index coefficient block."""

    label: str
    shape: tuple[int, int, int, int]
    outer: Factorization
    inner_left: list[Factorization] = field(default_factory=list)
    inner_right: list[Factorization] = field(default_factory=list)
    discarded_weight: float = 0.0
    # the grouped sides (rows, cols) first_factorize decomposed in packed pair
    # space, whose inner matrices are exactly symmetric (unknown: checked)
    packed: tuple[bool, bool] = field(default=(False, False), init=False, repr=False)

    @property
    def row_shape(self) -> tuple[int, int]:
        return tuple(self.shape[p] for p in BLOCKS[self.label].axes[:2])

    @property
    def col_shape(self) -> tuple[int, int]:
        return tuple(self.shape[p] for p in BLOCKS[self.label].axes[2:])


class _PairPacking(NamedTuple):
    """The n(n+1)/2 pairs p <= q of a grouped n x n index, for one matrix side."""

    pq: np.ndarray  # grouped index of (p, q), p <= q
    qp: np.ndarray  # grouped index of (q, p)
    w: np.ndarray  # 1 on the diagonal, sqrt(2) off it, as a column
    unpacked: np.ndarray  # packed position of every grouped index

    @classmethod
    def of(cls, m: np.ndarray, n1: int, n2: int, scale: float):
        """(packing, packed m) of m's rows, grouped n1 x n2, if m is symmetric under
        their swap, else None: |m[pq] - m[qp]| over p <= q takes every magnitude
        the full swap difference takes."""
        if n1 != n2:
            return None
        p, q = np.triu_indices(n1)
        pos = np.empty((n1, n1), dtype=np.intp)
        pos[p, q] = pos[q, p] = np.arange(len(p))
        w = np.where(p == q, 1.0, np.sqrt(2.0))[:, None]
        packing = cls(p * n1 + q, q * n1 + p, w, pos.ravel())
        packed = packing.pack(m, RANK_CUTOFF * scale)
        return None if packed is None else (packing, packed)

    def pack(self, m: np.ndarray, tol: float = np.inf) -> np.ndarray | None:
        """0.5 * (m[pq] + m[qp]) * w, or None if some |m[pq] - m[qp]| exceeds tol."""
        m_pq, m_qp = (  # gathered along memory order, also from a transposed m
            np.take(m, i, axis=0) if m.flags.c_contiguous else np.take(m.T, i, axis=1).T
            for i in (self.pq, self.qp)
        )
        if tol < np.inf:
            diff = m_pq - m_qp
            if np.abs(diff, out=diff).max(initial=0.0) > tol:
                return None
        m_pq += m_qp
        m_pq *= 0.5
        m_pq *= self.w
        return m_pq

    def unpack(self, u: np.ndarray) -> np.ndarray:
        return (u / self.w)[self.unpacked]


def _symmetrize(m: np.ndarray) -> None:
    """m = (m + m.T) / 2 in place, 256 x 256 tiles at a time, with the bits of
    the out-of-place sum (addition commutes)."""
    for i in range(0, len(m), 256):
        for j in range(i, len(m), 256):
            s = m[i : i + 256, j : j + 256] + m[j : j + 256, i : i + 256].T
            s *= 0.5
            m[i : i + 256, j : j + 256] = s
            m[j : j + 256, i : i + 256] = s.T


def first_factorize(block: np.ndarray, label: str) -> BlockFactors:
    """Grouped-matrix decomposition of one block (no truncation).

    Pair-symmetric sides are decomposed in packed pair space; the checks,
    the scale of the rank cutoff and the symmetry test see the full matrix.
    """
    t = np.transpose(np.asarray(block, dtype=float), BLOCKS[label].axes)
    n1, n2, n3, n4 = t.shape
    m = t.reshape(1, n1 * n2, n3 * n4)
    scale, sym = _check_stack(m, None)
    rows = _PairPacking.of(m[0], n1, n2, scale[0])
    cols = _PairPacking.of(m[0].T, n3, n4, scale[0])
    if sym[0] and (rows is None or cols is None):
        rows = cols = None  # an eigendecomposition needs one basis for both sides
    packed = m[0] if rows is None else rows[1]
    if cols is not None:
        packed = cols[1].T if rows is None else cols[0].pack(packed.T).T
    rows, cols = rows and rows[0], cols and cols[0]  # keep the packings, free the matrices
    owned = sym[0] and not np.may_share_memory(packed, block)
    if owned:  # no symmetrized copy beside LAPACK's buffers
        _symmetrize(packed)
    # signs are set once, on the unpacked vectors (the weights can move the largest entry)
    outer = _decompose_stack(packed[None], scale, sym, exact=owned, signs=rows is cols is None)[0]
    if rows or cols:
        left = rows.unpack(outer.left) if rows else outer.left
        right = left if outer.symmetric else cols.unpack(outer.right) if cols else outer.right
        _fix_signs(left, None if outer.symmetric else right)
        outer = Factorization(outer.values, left, right, outer.symmetric)
    bf = BlockFactors(label=label, shape=block.shape, outer=outer)
    bf.packed = (rows is not None, cols is not None)
    return bf


def _inner(vecs: np.ndarray, shape: tuple[int, int], vectors: bool = True, packed=False) -> list:
    """:func:`_decompose_stack` of every grouped vector (a column) as a matrix.

    A packed side's matrices are exactly symmetric (``unpack`` writes (p, q)
    and (q, p) from one entry): they go unchecked to the symmetric branch.
    """
    ms = vecs.T.reshape(-1, *shape)
    if packed:
        scale = np.abs(vecs).max(axis=0, initial=0.0)
        return _decompose_stack(ms, scale, np.ones(len(ms), bool), vectors, exact=True)
    return _decompose_stack(ms, *_check_stack(ms, None), vectors)


def second_factorize(bf: BlockFactors) -> BlockFactors:
    """Decompose every grouped vector of the first step, one stack per side;
    the outer step keeps only its values and symmetry."""
    outer, bf.outer = bf.outer, replace(bf.outer, left=None, right=None)
    bf.inner_left = _inner(outer.left, bf.row_shape, packed=bf.packed[0])
    if outer.symmetric:
        bf.inner_right = bf.inner_left
    else:
        bf.inner_right = _inner(outer.right, bf.col_shape, packed=bf.packed[1])
    return bf


def inner_values(bf: BlockFactors) -> list[np.ndarray]:
    """The values :func:`second_factorize` would keep for ``inner_left``, without vectors."""
    return _inner(bf.outer.left, bf.row_shape, vectors=False, packed=bf.packed[0])


def factorize_block(block: np.ndarray, label: str, threshold: float = 0.0) -> BlockFactors:
    """The finished block: both steps, then :func:`truncate_block`; the inner
    step decomposes only the outer vectors truncation keeps, the only ones it reads."""
    bf = first_factorize(block, label)
    if threshold and bf.outer.rank:
        keep = _keep_count(bf.outer.values, threshold)
        bf.outer = replace(bf.outer, left=bf.outer.left[:, :keep], right=bf.outer.right[:, :keep])
    return truncate_block(second_factorize(bf), threshold)


def reconstruct_block(bf: BlockFactors) -> np.ndarray:
    """Assemble the block back from its nested factors."""
    (r1, r2), (c1, c2) = bf.row_shape, bf.col_shape
    m = np.zeros((r1 * r2, c1 * c2))
    for t in range(bf.outer.rank):
        u = bf.inner_left[t].reconstruct().reshape(r1 * r2)
        w = bf.inner_right[t].reconstruct().reshape(c1 * c2)
        m += bf.outer.values[t] * np.outer(u, w)
    return np.transpose(m.reshape(r1, r2, c1, c2), np.argsort(BLOCKS[bf.label].axes))


def check_threshold(threshold: float) -> None:
    """Raise DomainError unless 0 <= threshold < 1 (NaN fails too)."""
    if not 0.0 <= threshold < 1.0:
        raise DomainError("truncation threshold must lie in [0, 1)")


def _keep_count(vals: np.ndarray, threshold: float) -> int:
    """How many leading factors :func:`truncate_block` keeps of ``vals``."""
    weights = np.abs(vals)
    total = weights.sum()
    if total == 0.0:
        return len(vals)
    return max(1, int(np.sum(np.cumsum(weights[::-1])[::-1] > threshold * total)))


def truncate_block(bf: BlockFactors, threshold: float) -> BlockFactors:
    """Drop trailing factors whose cumulative weight is below threshold.

    Applied to the outer coefficients and to every inner factor list; a nonzero
    block always keeps at least one factor per level.  The discarded weight is
    recorded (a bound on the reconstruction error scale, not asserted).  Inner
    factors past the outer cut are never read, so they may be missing.
    """
    check_threshold(threshold)
    if threshold == 0.0 or bf.outer.rank == 0:
        return bf

    keep = _keep_count(bf.outer.values, threshold)
    discarded = float(np.abs(bf.outer.values[keep:]).sum())
    sides = (bf.inner_left,) if bf.inner_right is bf.inner_left else (bf.inner_left, bf.inner_right)
    cut = tuple([] for _ in sides)
    # inner drops enter the error bound scaled by their outer coefficient
    for t in range(keep):
        s_t = abs(bf.outer.values[t])
        for full, kept in zip(sides, cut):
            kept.append(full[t].truncated(_keep_count(full[t].values, threshold)))
            discarded += s_t * float(np.abs(full[t].values[kept[t].rank :]).sum())
    out = BlockFactors(label=bf.label, shape=bf.shape, outer=bf.outer.truncated(keep))
    out.inner_left, out.inner_right = cut[0], cut[-1]
    out.packed = bf.packed  # not an init field: the constructor resets it
    out.discarded_weight = bf.discarded_weight + discarded
    return out


@dataclass
class FactorizedOperator:
    """All decompositions needed to evaluate one observable's norms."""

    observable: str
    space_tag: str
    blocks: dict[str, BlockFactors] = field(default_factory=dict)
    one_body: dict[str, Factorization] = field(default_factory=dict)
    overlap: Factorization | None = None
    threshold: float = 0.0

    @property
    def lambda_s(self) -> float:
        return float(np.abs(self.overlap.values).sum()) if self.overlap is not None else 0.0


# the two-body blocks each observable's factorization holds, in this order: 1l first,
# so its unpacked outer eigh, the largest, runs before other blocks hold inner factors
_BLOCK_LABELS = {"V": ("v",), "P": (), "VPs": ("1l", *(k for k in BLOCKS if k != "1l"))}
# the one-body factorizations each holds: name -> SaptCoefficients attribute
_ONE_BODY = {
    "V": {"f_A": "one_body_A", "f_B": "one_body_B"},
    "P": {"p_A": "one_body_A", "p_B": "one_body_B"},
    "VPs": {"kappa_A": "one_body_A", "kappa_B": "one_body_B",
            "p_A": "vp4_one_body_A", "p_B": "vp4_one_body_B"},
}


def shared_blocks(sets: list[SaptCoefficients], threshold: float = 0.0) -> dict[str, BlockFactors]:
    """Factors of each block that two or more of the sets factorize and hold
    bit for bit alike, for :func:`factorize_coefficients` with ``threshold``."""
    found: dict[str, list[np.ndarray]] = {}
    for coeffs in sets:
        for label in _BLOCK_LABELS.get(coeffs.observable, ()):
            if label in coeffs.two_body_blocks:
                found.setdefault(label, []).append(coeffs.two_body_blocks[label])
    return {
        label: factorize_block(same[0], label, threshold)
        for label, same in found.items()
        if len(same) > 1 and all(b is same[0] or np.array_equal(same[0], b) for b in same[1:])
    }


def factorize_coefficients(
    coeffs: SaptCoefficients,
    threshold: float = 0.0,
    blocks: dict[str, BlockFactors] | None = None,
    consume: bool = False,
) -> FactorizedOperator:
    """Factorize every block and one-body tensor of a coefficient set, each
    block finished by :func:`factorize_block`; the factors in ``blocks``
    (see :func:`shared_blocks`) are used as given.  ``consume`` removes each
    block from the set, so it is freed once factorized; by default the set is
    left as it was."""
    check_threshold(threshold)
    if coeffs.observable not in _ONE_BODY:
        raise DomainError(f"unknown observable {coeffs.observable!r}")
    out = FactorizedOperator(observable=coeffs.observable, space_tag=coeffs.space_tag)
    for name, attr in _ONE_BODY[coeffs.observable].items():
        out.one_body[name] = decompose_matrix(getattr(coeffs, attr), symmetric=True)
    if coeffs.overlap is not None:
        out.overlap = decompose_matrix(coeffs.overlap, symmetric=False)
    take = coeffs.two_body_blocks.pop if consume else coeffs.two_body_blocks.get
    blocks = blocks or {}
    for label in _BLOCK_LABELS[coeffs.observable]:
        if label in coeffs.two_body_blocks:
            block = take(label)
            out.blocks[label] = blocks.get(label) or factorize_block(block, label, threshold)
    if threshold:
        out.threshold = threshold
    return out
