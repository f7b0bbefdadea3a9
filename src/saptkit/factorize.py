"""Two-step tensor factorization with deterministic conventions.

Every four-index coefficient block is reshaped to a matrix over grouped index
pairs and decomposed exactly (eigendecomposition when the grouped matrix is
symmetric, SVD otherwise); each resulting vector is reshaped and decomposed
again the same way.  Factors are ordered by descending magnitude with a fixed
sign convention (largest-magnitude entry of each vector positive, ties broken
by lowest index), so identical input yields identical output across runs and
platforms.

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
of its own would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ShapeError, SymmetryError
from .tensors import SaptCoefficients

RANK_CUTOFF = 1e-12
SYM_TOL = 1e-10

# grouped-matrix layout per block label: axes permutation bringing the stored
# tensor to [row-pair, col-pair] order, plus which monomer each grouped index
# of the row/col pair belongs to ('A' or 'B')
_BLOCK_LAYOUT = {
    "v": ((0, 1, 2, 3), "AA", "BB"),
    "exch": ((0, 1, 2, 3), "AA", "BB"),
    "A2": ((0, 1, 2, 3), "AA", "AA"),
    "B2": ((0, 1, 2, 3), "BB", "BB"),
    "1m": ((0, 1, 2, 3), "AA", "BB"),
    # locked block stored [p1,p2,q1,q2]; grouped matrix pairs (p1,q2) x (p2,q1)
    "1l": ((0, 3, 1, 2), "AB", "AB"),
    # overlap-carrying blocks keep their extra factor outside the grouping
    "2": ((0, 1, 2, 3), "AA", "BA"),
    "2r": ((0, 1, 2, 3), "AA", "BA"),
    "3": ((0, 1, 2, 3), "AB", "BB"),
    "3r": ((0, 1, 2, 3), "AB", "BB"),
}


@dataclass
class Factorization:
    """Exact decomposition of a real matrix: m = left @ diag(values) @ right.T."""

    values: np.ndarray
    left: np.ndarray
    right: np.ndarray
    symmetric: bool

    @property
    def rank(self) -> int:
        return len(self.values)

    def reconstruct(self) -> np.ndarray:
        return (self.left * self.values) @ self.right.T

    def truncated(self, keep: int) -> "Factorization":
        keep = max(1, keep) if self.rank else 0
        return Factorization(
            self.values[:keep], self.left[:, :keep], self.right[:, :keep], self.symmetric
        )


def _fix_signs(u: np.ndarray, v: np.ndarray | None = None) -> None:
    """Make the largest-magnitude entry of each column of u positive, in place.

    Works on the last two axes of a stack; ties within 1e-12 of the largest
    magnitude go to the lowest index, and v's columns flip with u's.
    """
    mags = np.abs(u)
    top = mags.max(axis=-2, keepdims=True)
    lead = np.argmax(mags >= top - 1e-12 * top, axis=-2)[..., None, :]
    flip = np.take_along_axis(u, lead, axis=-2) < 0
    for m in (u,) if v is None else (u, v):
        np.negative(m, out=m, where=flip)


def _check_stack(ms: np.ndarray, symmetric: bool | None):
    """Per-matrix scale and symmetry of a (k, rows, cols) stack.

    Raises :class:`DomainError` on NaN or Inf and :class:`SymmetryError` when
    ``symmetric=True`` is asserted for a nonzero matrix that is not.
    """
    k, rows, cols = ms.shape
    scale = np.abs(ms).max(axis=(1, 2), initial=0.0)
    if not np.isfinite(scale).all():  # max propagates NaN, and abs turns -inf to inf
        raise DomainError("matrix contains NaN or Inf")
    is_sym = np.zeros(k, dtype=bool)
    if rows == cols:
        asym = np.abs(ms - ms.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        is_sym = asym <= SYM_TOL * scale
    if symmetric is True and not is_sym[scale > 0].all():
        raise SymmetryError("matrix asserted symmetric but is not")
    return scale, is_sym if symmetric is None else np.full(k, symmetric)


def _decompose_stack(ms: np.ndarray, scale: np.ndarray, symmetric: np.ndarray, vectors=True):
    """Factorizations of a checked (k, rows, cols) stack, in stack order.

    One broadcast ``eigh`` covers the symmetric matrices and one broadcast
    ``svd`` the rest; each keeps its values above ``RANK_CUTOFF`` times its
    scale, by descending magnitude, with the sign convention of the module.
    A zero matrix gives an empty symmetric factorization.  With
    ``vectors=False`` only the kept values are computed, one array per matrix.
    """
    k, rows, cols = ms.shape
    out = [
        Factorization(np.zeros(0), np.zeros((rows, 0)), np.zeros((cols, 0)), True)
        if vectors else np.zeros(0)
        for _ in range(k)
    ]
    for sym in (True, False):
        idx = np.flatnonzero((scale > 0) & (symmetric == sym))
        if not len(idx):
            continue
        sub = ms[idx]
        if sym:
            sub = 0.5 * (sub + sub.transpose(0, 2, 1))
            vals, left = np.linalg.eigh(sub) if vectors else (np.linalg.eigvalsh(sub), None)
            order = np.argsort(-np.abs(vals), axis=1, kind="stable")
            vals = np.take_along_axis(vals, order, axis=1)
            if vectors:
                left = np.take_along_axis(left, order[:, None, :], axis=2)
                _fix_signs(left)
        elif vectors:
            left, vals, right = np.linalg.svd(sub, full_matrices=False)
            right = right.transpose(0, 2, 1)
            _fix_signs(left, right)
        else:
            vals = np.linalg.svd(sub, compute_uv=False)
        # descending magnitudes, so the kept values are a prefix; copies let
        # the stack, with the columns it drops, be freed
        kept = (np.abs(vals) > RANK_CUTOFF * scale[idx, None]).sum(axis=1)
        for j, (i, n) in enumerate(zip(idx, kept)):
            out[i] = vals[j, :n].copy()
            if vectors:
                u = left[j, :, :n].copy()
                out[i] = Factorization(out[i], u, u if sym else right[j, :, :n].copy(), sym)
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


def one_body_eigendecompose(m: np.ndarray) -> Factorization:
    """Spectral decomposition of a symmetric one-body tensor."""
    m = np.asarray(m, dtype=float)
    scale = np.abs(m).max()
    if scale and np.abs(m - m.T).max() > SYM_TOL * scale:
        raise SymmetryError("one-body tensor is not symmetric")
    return decompose_matrix(m, symmetric=True)


def overlap_svd(s: np.ndarray) -> Factorization:
    """SVD of the rectangular intermolecular overlap matrix."""
    fact = decompose_matrix(np.asarray(s, dtype=float), symmetric=False)
    if fact.rank > min(s.shape):
        raise ShapeError("overlap rank exceeded its bound")
    return fact


@dataclass
class BlockFactors:
    """Nested factorization of one four-index coefficient block."""

    label: str
    shape: tuple[int, int, int, int]
    outer: Factorization
    inner_left: list[Factorization] = field(default_factory=list)
    inner_right: list[Factorization] = field(default_factory=list)
    discarded_weight: float = 0.0

    @property
    def row_shape(self) -> tuple[int, int]:
        perm, _, _ = _BLOCK_LAYOUT[self.label]
        n = [self.shape[p] for p in perm]
        return n[0], n[1]

    @property
    def col_shape(self) -> tuple[int, int]:
        perm, _, _ = _BLOCK_LAYOUT[self.label]
        n = [self.shape[p] for p in perm]
        return n[2], n[3]


class _PairPacking(NamedTuple):
    """The n(n+1)/2 pairs p <= q of a grouped n x n index, for one matrix side."""

    pq: np.ndarray  # grouped index of (p, q), p <= q
    qp: np.ndarray  # grouped index of (q, p)
    w: np.ndarray  # 1 on the diagonal, sqrt(2) off it, as a column
    unpacked: np.ndarray  # packed position of every grouped index

    @classmethod
    def of(cls, m: np.ndarray, n1: int, n2: int, scale: float) -> "_PairPacking | None":
        """Packing of m's rows, grouped n1 x n2, if m is symmetric under their swap.

        The test reads only the rows :meth:`pack` gathers: |m[pq] - m[qp]|
        over p <= q takes every magnitude the full swap difference takes.
        """
        if n1 != n2:
            return None
        p, q = np.triu_indices(n1)
        pq, qp = p * n1 + q, q * n1 + p
        if np.abs(m[pq] - m[qp]).max(initial=0.0) > RANK_CUTOFF * scale:
            return None
        pos = np.empty((n1, n1), dtype=np.intp)
        pos[p, q] = pos[q, p] = np.arange(len(p))
        w = np.where(p == q, 1.0, np.sqrt(2.0))[:, None]
        return cls(pq, qp, w, pos.ravel())

    def pack(self, m: np.ndarray) -> np.ndarray:
        return 0.5 * (m[self.pq] + m[self.qp]) * self.w

    def unpack(self, u: np.ndarray) -> np.ndarray:
        return (u / self.w)[self.unpacked]


def first_factorize(block: np.ndarray, label: str, symmetric: bool | None = None) -> BlockFactors:
    """Grouped-matrix decomposition of one block (no truncation).

    Pair-symmetric sides are decomposed in packed pair space; the checks,
    the scale of the rank cutoff and the symmetry test see the full matrix.
    """
    perm, _, _ = _BLOCK_LAYOUT[label]
    t = np.transpose(np.asarray(block, dtype=float), perm)
    n1, n2, n3, n4 = t.shape
    m = t.reshape(1, n1 * n2, n3 * n4)
    scale, sym = _check_stack(m, symmetric)
    rows = _PairPacking.of(m[0], n1, n2, scale[0])
    cols = _PairPacking.of(m[0].T, n3, n4, scale[0])
    if sym[0] and (rows is None or cols is None):
        rows = cols = None  # an eigendecomposition needs one basis for both sides
    packed = m[0]
    if rows is not None:
        packed = rows.pack(packed)
    if cols is not None:
        packed = cols.pack(packed.T).T
    outer = _decompose_stack(packed[None], scale, sym)[0]
    if rows is not None or cols is not None:
        left = rows.unpack(outer.left) if rows is not None else outer.left
        right = cols.unpack(outer.right) if cols is not None else outer.right
        if outer.symmetric:
            right = left
        # the sqrt(2) weights can move a vector's largest entry: sign again
        _fix_signs(left, None if outer.symmetric else right)
        outer = Factorization(outer.values, left, right, outer.symmetric)
    return BlockFactors(label=label, shape=block.shape, outer=outer)


def _inner(vecs: np.ndarray, shape: tuple[int, int], vectors: bool = True) -> list:
    """:func:`_decompose_stack` of every grouped vector (a column) as a matrix."""
    ms = vecs.T.reshape(-1, *shape)
    return _decompose_stack(ms, *_check_stack(ms, None), vectors)


def second_factorize(bf: BlockFactors) -> BlockFactors:
    """Decompose every grouped vector of the first step, one stack per side."""
    bf.inner_left = _inner(bf.outer.left, bf.row_shape)
    if bf.outer.symmetric:
        bf.inner_right = bf.inner_left
    else:
        bf.inner_right = _inner(bf.outer.right, bf.col_shape)
    return bf


def inner_values(bf: BlockFactors) -> list[np.ndarray]:
    """The values :func:`second_factorize` would keep for ``inner_left``, without vectors."""
    return _inner(bf.outer.left, bf.row_shape, vectors=False)


def factorize_block(block: np.ndarray, label: str, symmetric: bool | None = None) -> BlockFactors:
    return second_factorize(first_factorize(block, label, symmetric))


def reconstruct_block(bf: BlockFactors) -> np.ndarray:
    """Assemble the block back from its nested factors."""
    r1, r2 = bf.row_shape
    c1, c2 = bf.col_shape
    perm, _, _ = _BLOCK_LAYOUT[bf.label]
    m = np.zeros((r1 * r2, c1 * c2))
    for t in range(bf.outer.rank):
        u = bf.inner_left[t].reconstruct().reshape(r1 * r2)
        w = bf.inner_right[t].reconstruct().reshape(c1 * c2)
        m += bf.outer.values[t] * np.outer(u, w)
    t4 = m.reshape(r1, r2, c1, c2)
    inv = np.argsort(perm)
    return np.transpose(t4, inv)


def truncate_block(bf: BlockFactors, threshold: float) -> BlockFactors:
    """Drop trailing factors whose cumulative weight is below threshold.

    Applied to the outer coefficients and to every inner factor list; a
    nonzero block always keeps at least one factor per level.  The discarded
    outer weight is recorded (a bound on the reconstruction error scale, not
    asserted).
    """
    if not 0.0 <= threshold < 1.0:
        raise DomainError("truncation threshold must lie in [0, 1)")
    if threshold == 0.0 or bf.outer.rank == 0:
        return bf

    def keep_count(vals: np.ndarray) -> int:
        weights = np.abs(vals)
        total = weights.sum()
        if total == 0.0:
            return len(vals)
        tail = np.cumsum(weights[::-1])[::-1]
        keep = int(np.sum(tail > threshold * total))
        return max(1, keep)

    keep = keep_count(bf.outer.values)
    discarded = float(np.abs(bf.outer.values[keep:]).sum())
    shared = bf.inner_right is bf.inner_left
    out = BlockFactors(label=bf.label, shape=bf.shape, outer=bf.outer.truncated(keep))
    out.inner_left = [f.truncated(keep_count(f.values)) for f in bf.inner_left[:keep]]
    if shared:
        out.inner_right = out.inner_left
    else:
        out.inner_right = [f.truncated(keep_count(f.values)) for f in bf.inner_right[:keep]]
    # inner drops enter the error bound scaled by their outer coefficient
    for t in range(keep):
        s_t = abs(bf.outer.values[t])
        discarded += s_t * float(
            np.abs(bf.inner_left[t].values[out.inner_left[t].rank :]).sum()
        )
        if not shared:
            discarded += s_t * float(
                np.abs(bf.inner_right[t].values[out.inner_right[t].rank :]).sum()
            )
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

    def discarded_weight(self) -> float:
        return sum(bf.discarded_weight for bf in self.blocks.values())


# the two-body blocks each observable's factorization holds, in this order
_BLOCK_LABELS = {"V": ("v",), "P": (), "VPs": ("A2", "B2", "1m", "1l", "2", "3", "2r", "3r", "v")}


def shared_blocks(sets: list[SaptCoefficients]) -> dict[str, BlockFactors]:
    """Untruncated factors of each block that two or more of the sets factorize
    and hold bit for bit alike, for :func:`factorize_coefficients`."""
    found: dict[str, list[np.ndarray]] = {}
    for coeffs in sets:
        for label in _BLOCK_LABELS.get(coeffs.observable, ()):
            if label in coeffs.two_body_blocks:
                found.setdefault(label, []).append(coeffs.two_body_blocks[label])
    return {
        label: factorize_block(same[0], label)
        for label, same in found.items()
        if len(same) > 1 and all(np.array_equal(same[0], b) for b in same[1:])
    }


def factorize_coefficients(
    coeffs: SaptCoefficients, threshold: float = 0.0, blocks: dict[str, BlockFactors] | None = None
) -> FactorizedOperator:
    """Factorize every block and one-body tensor of a coefficient set; the
    untruncated factors in ``blocks`` (see :func:`shared_blocks`) are used as given."""
    out = FactorizedOperator(observable=coeffs.observable, space_tag=coeffs.space_tag)
    if coeffs.observable == "V":
        out.one_body["f_A"] = one_body_eigendecompose(coeffs.one_body_A)
        out.one_body["f_B"] = one_body_eigendecompose(coeffs.one_body_B)
    elif coeffs.observable == "P":
        out.one_body["p_A"] = one_body_eigendecompose(coeffs.one_body_A)
        out.one_body["p_B"] = one_body_eigendecompose(coeffs.one_body_B)
        out.overlap = overlap_svd(coeffs.overlap)
    elif coeffs.observable == "VPs":
        out.one_body["kappa_A"] = one_body_eigendecompose(coeffs.one_body_A)
        out.one_body["kappa_B"] = one_body_eigendecompose(coeffs.one_body_B)
        out.one_body["p_A"] = one_body_eigendecompose(coeffs.vp4_one_body_A)
        out.one_body["p_B"] = one_body_eigendecompose(coeffs.vp4_one_body_B)
        out.overlap = overlap_svd(coeffs.overlap)
    else:
        raise DomainError(f"unknown observable {coeffs.observable!r}")
    blocks = blocks or {}
    for label in _BLOCK_LABELS[coeffs.observable]:
        if label in coeffs.two_body_blocks:
            made = blocks.get(label)
            out.blocks[label] = made or factorize_block(coeffs.two_body_blocks[label], label)
    if threshold:
        out.blocks = {k: truncate_block(bf, threshold) for k, bf in out.blocks.items()}
        out.threshold = threshold
    return out
