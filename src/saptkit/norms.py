"""Block-encoding l1 norms: one formula, two representations.

:func:`_components` holds every weight of lambda once, for V, P and VPs.  A
representation only says how it measures one-body tensors, two-body blocks and
the overlap: sparse norms are entrywise sums, with the intra-monomer
antisymmetry reduction on ``A2``/``B2``; tensor-factorized norms are eigenvalue
sums and nested factor sums, with the complete-square halving on the ``A2``/``B2``
blocks whose grouped matrix factorizes through the symmetric branch (those a
squared-polynomial load can implement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .factorize import _ONE_BODY, BlockFactors, FactorizedOperator, decompose_matrix
from .factorize import first_factorize, inner_values
from .tensors import BLOCKS, SaptCoefficients


@dataclass
class NormReport:
    observable: str
    representation: str  # 'sparse' | 'tensor_factorized'
    components: dict[str, float] = field(default_factory=dict)
    lambda_s: float = 0.0
    excluded: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not np.isfinite(self.total_with_excluded + self.lambda_s):
            raise DomainError(f"{self.observable} {self.representation} norm overflows")

    @property
    def total(self) -> float:
        return float(sum(self.components.values()))

    @property
    def total_with_excluded(self) -> float:
        return self.total + float(sum(self.excluded.values()))

    def to_dict(self) -> dict:
        out = {
            "observable": self.observable,
            "representation": self.representation,
            "total": self.total,
            "lambda_s": self.lambda_s,
            "components": dict(self.components),
        }
        if self.excluded:
            out["excluded_components"] = dict(self.excluded)
            out["total_with_excluded"] = self.total_with_excluded
        return out


def format_table(reports: list[NormReport]) -> str:
    """Fixed-width text table of norm totals (rounded for display only)."""

    def fmt(x: float) -> str:
        if x == 0.0:
            return "0"
        return f"{x:.4g}"

    rows = [("observable", "representation", "total", "lambda_s")]
    for r in reports:
        rows.append((r.observable, r.representation, fmt(r.total), fmt(r.lambda_s)))
    widths = [max(len(row[i]) for row in rows) for i in range(4)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the one formula


# the resource model excludes the overlap-carrying VPs circuits: each of these
# components, with the blocks it sums, is reported outside ``total``
EXCLUDED_BLOCKS = {t: tuple(k for k, b in BLOCKS.items() if b.term == t) for t in ("VP_2", "VP_3")}


def _l1(x) -> float:
    return float(np.abs(x).sum())


def _factor_sum(values, lefts, rights) -> float:
    """sum_t |values_t| l1(lefts_t) l1(rights_t)."""
    total = 0.0
    for value, left, right in zip(values, lefts, rights):
        total += abs(value) * _l1(left) * _l1(right)
    return float(total)


def _components(observable: str, one, pair, s: float, held) -> tuple[dict, dict]:
    """(components, excluded) of one observable's lambda.

    A representation supplies three measures: ``one(name)``, the l1 of a
    one-body tensor (named as in ``FactorizedOperator.one_body``);
    ``pair(label)``, the weighted l1 of a two-body block; and ``s``, the l1 of
    the overlap.  An excluded component (:data:`EXCLUDED_BLOCKS`) is reported
    only when ``held`` holds one of its blocks.
    """
    if observable == "V":
        return {"one_body_A": one("f_A"), "one_body_B": one("f_B"), "two_body": pair("v")}, {}
    if observable not in ("P", "VPs"):
        raise DomainError(f"unknown observable {observable!r}")
    # P's components sum to lambda_P, the weight of v in VP_4
    lam_p = {"one_body_A": 0.5 * one("p_A"), "one_body_B": 0.5 * one("p_B")}
    lam_p["two_body"] = 0.5 * s**2
    if observable == "P":
        return lam_p, {}
    components = {
        "VP_A": 0.5 * one("kappa_A") + pair("A2"),
        "VP_B": 0.5 * one("kappa_B") + pair("B2"),
        "VP_1m": 0.5 * pair("1m"),
        "VP_1l": 0.5 * pair("1l"),
        "VP_4": sum(lam_p.values()) * pair("v"),
    }
    excluded = {
        name: 0.5 * s * sum(pair(k) for k in labels if k in held)
        for name, labels in EXCLUDED_BLOCKS.items()
        if any(k in held for k in labels)
    }
    return components, excluded


# ---------------------------------------------------------------------------
# sparse representation


def _antisym_reduced_sum(lam: np.ndarray) -> float:
    """1/2 sum_{a>b, c>d} |T[a,b,c,d] - T[a,d,c,b]| over an intra-monomer block."""
    n = lam.shape[0]
    # swap the two annihilation-type indices (axes 1 and 3)
    diff = np.abs(lam - lam.transpose(0, 3, 2, 1))
    rows = np.tril_indices(n, k=-1)
    sub = diff[rows[0][:, None], rows[1][:, None], rows[0][None, :], rows[1][None, :]]
    return 0.5 * float(sub.sum())


# an overflowing sum ends in NormReport's finiteness check, not in a warning
@np.errstate(over="ignore", invalid="ignore")
def sparse_norms(coeffs: SaptCoefficients) -> NormReport:
    """Entrywise l1 norms of one observable's coefficient set, with the
    intra-monomer antisymmetry reduction on ``A2`` and ``B2``."""
    blocks = coeffs.two_body_blocks
    names = _ONE_BODY.get(coeffs.observable, {})

    def pair(label: str) -> float:
        if label in ("A2", "B2"):
            return 0.25 * _l1(blocks[label]) + _antisym_reduced_sum(blocks[label])
        return _l1(blocks[label])

    # the overlap enters P and VPs only, as in the factorized lambda_s
    s = _l1(coeffs.overlap) if coeffs.overlap is not None else 0.0
    comp, excluded = _components(
        coeffs.observable, lambda name: _l1(getattr(coeffs, names[name])), pair, s, blocks
    )
    return NormReport(coeffs.observable, "sparse", comp, s, excluded)


# ---------------------------------------------------------------------------
# tensor-factorized representation


def block_factor_sum(bf: BlockFactors) -> float:
    """sum_t |s_t| (sum_k |alpha_kt|)(sum_l |beta_lt|) of a nested block."""
    lefts = [f.values for f in bf.inner_left]
    return _factor_sum(bf.outer.values, lefts, [f.values for f in bf.inner_right])


@np.errstate(over="ignore", invalid="ignore")
def tf_norm(fop: FactorizedOperator) -> NormReport:
    """Tensor-factorized l1 norm of one observable: eigenvalue l1s of the
    one-body tensors, nested factor sums of the blocks, and lambda_s."""

    def pair(label: str) -> float:
        bf = fop.blocks[label]
        if label in ("A2", "B2"):
            # squared-polynomial loading halves complete-square (symmetric) blocks
            return (0.25 if bf.outer.symmetric else 0.5) * block_factor_sum(bf)
        return block_factor_sum(bf)

    lam_s = fop.lambda_s
    comp, excluded = _components(
        fop.observable, lambda name: _l1(fop.one_body[name].values), pair, lam_s, fop.blocks
    )
    return NormReport(fop.observable, "tensor_factorized", comp, lam_s, excluded)


def tf_norms(factors) -> dict[str, NormReport]:
    """Reports for a mapping of observables to factorized operators."""
    if isinstance(factors, FactorizedOperator):
        return {factors.observable: tf_norm(factors)}
    missing = [k for k in factors if not isinstance(factors[k], FactorizedOperator)]
    if missing:
        raise DomainError(f"missing factorized operators for {missing}")
    return {key: tf_norm(fop) for key, fop in factors.items()}


# ---------------------------------------------------------------------------
# double-factorized monomer Hamiltonian


def df_hamiltonian_norm(one_body_eigs: np.ndarray, two_body) -> float:
    """lambda = 1/2 sum|s_k| + 1/4 sum_t |s_t| (sum_k |alpha_kt|)^2 over (s_t, alphas_t) pairs."""
    values, alphas = [s_t for s_t, _ in two_body], [a for _, a in two_body]
    return 0.5 * _l1(one_body_eigs) + 0.25 * _factor_sum(values, alphas, alphas)


def factorize_monomer_hamiltonian(h1: np.ndarray, eri: np.ndarray):
    """Double-factorized data of a spin-free monomer Hamiltonian.

    Returns (one_body_eigs, [(s_t, inner values of vector t)]), the inner ones
    from spectra alone.  The one-body tensor carries the normal-ordering exchange
    correction and the direct trace, and is doubled so its eigenvalue sum
    matches the spin-summed loading weight.
    """
    h1 = np.asarray(h1, dtype=float)
    eri = np.asarray(eri, dtype=float)
    t_eff = h1 - 0.5 * np.einsum("prrq->pq", eri) + np.einsum("pqrr->pq", eri)
    eigs = decompose_matrix(2.0 * t_eff, symmetric=True).values
    bf = first_factorize(eri, "A2")
    return eigs, list(zip(bf.outer.values, inner_values(bf)))
