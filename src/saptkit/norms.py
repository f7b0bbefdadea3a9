"""Block-encoding l1 norms in the sparse and tensor-factorized representations.

Sparse norms are entrywise coefficient sums with the intra-monomer
antisymmetry reduction on the monomer blocks; tensor-factorized norms follow
the nested-factor structure, with the complete-square halving applied to
intra-monomer blocks whose grouped matrix factorizes through the symmetric
branch (those are the blocks a squared-polynomial load can implement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .factorize import BlockFactors, Factorization, FactorizedOperator, first_factorize
from .factorize import inner_values, one_body_eigendecompose
from .tensors import SaptCoefficients


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
    """Entrywise l1 norms of one observable's coefficient set."""
    blocks = coeffs.two_body_blocks
    if coeffs.observable == "V":
        return NormReport(
            "V",
            "sparse",
            components={
                "one_body_A": float(np.abs(coeffs.one_body_A).sum()),
                "one_body_B": float(np.abs(coeffs.one_body_B).sum()),
                "two_body": float(np.abs(blocks["v"]).sum()),
            },
        )
    if coeffs.observable == "P":
        s_sum = float(np.abs(coeffs.overlap).sum())
        return NormReport(
            "P",
            "sparse",
            components={
                "one_body_A": 0.5 * float(np.abs(coeffs.one_body_A).sum()),
                "one_body_B": 0.5 * float(np.abs(coeffs.one_body_B).sum()),
                "two_body": 0.5 * s_sum**2,
            },
        )
    if coeffs.observable == "VPs":
        s_sum = float(np.abs(coeffs.overlap).sum())
        lam_p_sparse = (
            0.5 * float(np.abs(coeffs.vp4_one_body_A).sum())
            + 0.5 * float(np.abs(coeffs.vp4_one_body_B).sum())
            + 0.5 * s_sum**2
        )
        comp = {
            "VP_A": 0.5 * float(np.abs(coeffs.one_body_A).sum())
            + 0.25 * float(np.abs(blocks["A2"]).sum())
            + _antisym_reduced_sum(blocks["A2"]),
            "VP_B": 0.5 * float(np.abs(coeffs.one_body_B).sum())
            + 0.25 * float(np.abs(blocks["B2"]).sum())
            + _antisym_reduced_sum(blocks["B2"]),
            "VP_1m": 0.5 * float(np.abs(blocks["1m"]).sum()),
            "VP_1l": 0.5 * float(np.abs(blocks["1l"]).sum()),
            "VP_2": 0.5 * float(np.abs(blocks["2"]).sum()) * s_sum
            + (0.5 * float(np.abs(blocks["2r"]).sum()) * s_sum if "2r" in blocks else 0.0),
            "VP_3": 0.5 * float(np.abs(blocks["3"]).sum()) * s_sum
            + (0.5 * float(np.abs(blocks["3r"]).sum()) * s_sum if "3r" in blocks else 0.0),
            "VP_4": lam_p_sparse * float(np.abs(blocks["v"]).sum()),
        }
        return NormReport("VPs", "sparse", components=comp)
    raise DomainError(f"unknown observable {coeffs.observable!r}")


# ---------------------------------------------------------------------------
# tensor-factorized representation


def _one_body_sum(fact: Factorization) -> float:
    return float(np.abs(fact.values).sum())


def block_factor_sum(bf: BlockFactors) -> float:
    """sum_t |s_t| (sum_k |alpha_kt|)(sum_l |beta_lt|) of a nested block."""
    total = 0.0
    for t in range(bf.outer.rank):
        left = np.abs(bf.inner_left[t].values).sum()
        right = np.abs(bf.inner_right[t].values).sum()
        total += abs(bf.outer.values[t]) * left * right
    return float(total)


def _intra_weight(bf: BlockFactors) -> float:
    # squared-polynomial loading halves complete-square (symmetric) blocks
    return 0.25 if bf.outer.symmetric else 0.5


# the resource model excludes the overlap-carrying VPs circuits: each of these
# components, with the blocks it sums, is reported outside ``total``
EXCLUDED_BLOCKS = {"VP_2": ("2", "2r"), "VP_3": ("3", "3r")}


@np.errstate(over="ignore", invalid="ignore")
def tf_norm(fop: FactorizedOperator) -> NormReport:
    """Tensor-factorized l1 norm of one observable.

    An excluded VPs component (:data:`EXCLUDED_BLOCKS`) is reported only when
    the operator holds one of its blocks.
    """
    if fop.observable == "V":
        return NormReport(
            "V",
            "tensor_factorized",
            components={
                "one_body_A": _one_body_sum(fop.one_body["f_A"]),
                "one_body_B": _one_body_sum(fop.one_body["f_B"]),
                "two_body": block_factor_sum(fop.blocks["v"]),
            },
        )
    if fop.observable == "P":
        lam_s = fop.lambda_s
        return NormReport(
            "P",
            "tensor_factorized",
            components={
                "one_body_A": 0.5 * _one_body_sum(fop.one_body["p_A"]),
                "one_body_B": 0.5 * _one_body_sum(fop.one_body["p_B"]),
                "two_body": 0.5 * lam_s**2,
            },
            lambda_s=lam_s,
        )
    if fop.observable == "VPs":
        lam_s = fop.lambda_s
        lam_p = (
            0.5 * _one_body_sum(fop.one_body["p_A"])
            + 0.5 * _one_body_sum(fop.one_body["p_B"])
            + 0.5 * lam_s**2
        )
        comp = {
            "VP_A": 0.5 * _one_body_sum(fop.one_body["kappa_A"])
            + _intra_weight(fop.blocks["A2"]) * block_factor_sum(fop.blocks["A2"]),
            "VP_B": 0.5 * _one_body_sum(fop.one_body["kappa_B"])
            + _intra_weight(fop.blocks["B2"]) * block_factor_sum(fop.blocks["B2"]),
            "VP_1m": 0.5 * block_factor_sum(fop.blocks["1m"]),
            "VP_1l": 0.5 * block_factor_sum(fop.blocks["1l"]),
            "VP_4": lam_p * block_factor_sum(fop.blocks["v"]),
        }
        excluded = {}
        for name, labels in EXCLUDED_BLOCKS.items():
            held = [k for k in labels if k in fop.blocks]
            if held:
                excluded[name] = 0.5 * lam_s * sum(block_factor_sum(fop.blocks[k]) for k in held)
        return NormReport(
            "VPs", "tensor_factorized", components=comp, lambda_s=lam_s, excluded=excluded
        )
    raise DomainError(f"unknown observable {fop.observable!r}")


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
    lam = 0.5 * float(np.abs(np.asarray(one_body_eigs, dtype=float)).sum())
    for s_t, alphas in two_body:
        lam += 0.25 * abs(float(s_t)) * float(np.abs(np.asarray(alphas)).sum()) ** 2
    return lam


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
    eigs = one_body_eigendecompose(2.0 * t_eff).values
    bf = first_factorize(eri, "A2")
    return eigs, list(zip(bf.outer.values, inner_values(bf)))
