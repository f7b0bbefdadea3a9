"""End-to-end oracle verification used by the `verify` CLI command."""

from __future__ import annotations

import numpy as np

from .active import SpacePartition, renormalize_electrostatic, renormalize_exchange, renormalize_vp
from .archive import TensorArchive, demo_archive
from .costing import budget_errors, qrom_cost
from .errors import ShapeError
from .factorize import factorize_coefficients
from .fock import (
    FockSpace,
    PairSum,
    assemble_electrostatic,
    assemble_exchange,
    assemble_majorana,
    assemble_vp_excitation,
    embed_with_core,
    verify_complete_basis,
)
from .factorize import reconstruct_block
from .tensors import build_majorana_coefficients, sym_v4


class _Reporter:
    def __init__(self):
        self.failures = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        if not ok:
            self.failures += 1
        suffix = f"  ({detail})" if detail else ""
        print(f"[{'pass' if ok else 'FAIL'}] {name}{suffix}")


def _unit_v(archive: TensorArchive) -> np.ndarray:
    """``v`` over its largest entry above 1: the checks are relative to it, and
    no norm overflows."""
    return archive.v / max(np.abs(archive.v).max(), 1.0)


def _oracle_operators(archive: TensorArchive):
    """(space, v, S, V/P/VPs operators, particle-number operator) of an archive,
    ``v`` scaled by :func:`_unit_v`; ShapeError past the oracle's caps, or if a
    product the checks form is over the byte budget."""
    space = FockSpace(archive.basis.n_orb_A, archive.basis.n_orb_B)
    v, s = _unit_v(archive), archive.S
    ops = {
        "V": assemble_electrostatic(space, v),
        "P": assemble_exchange(space, s),
        "VPs": assemble_vp_excitation(space, v, s),
    }
    num_a = space.monomer("A").number
    num_b = space.monomer("B").number
    n_op = PairSum(space).add_monomer("A", num_a) + PairSum(space).add_monomer("B", num_b)
    for op in ops.values():
        op.check_product(n_op)
        n_op.check_product(op)
    return space, v, s, ops, n_op


def _oracle_checks(rep: _Reporter, space, v, s, ops, n_op, rng: np.random.Generator):
    coeffs = build_majorana_coefficients(v, s)
    for kind, exc in ops.items():
        maj = assemble_majorana(space, coeffs[kind])
        diff = (exc + maj.scaled(-1.0)).norm_estimate(rng)
        rep.check(f"{kind}: two assembly routes agree", diff < 1e-12, f"diff={diff:.2e}")
        herm = (exc + exc.dagger().scaled(-1.0)).norm_estimate(rng)
        rep.check(f"{kind}: Hermitian", herm < 1e-12, f"diff={herm:.2e}")

    for kind, op in ops.items():
        comm = ((op @ n_op) + (n_op @ op).scaled(-1.0)).norm_estimate(rng)
        rep.check(f"{kind}: conserves monomer particle numbers", comm < 1e-12)

    zero_s = np.zeros_like(s)
    p0 = assemble_exchange(space, zero_s).norm_estimate(rng)
    vp0 = assemble_vp_excitation(space, v, zero_s).norm_estimate(rng)
    rep.check("zero overlap kills exchange operators", max(p0, vp0) < 1e-12)


def _embedding_check(rep: _Reporter, rng: np.random.Generator):
    v = sym_v4(rng.normal(size=(3, 3, 3, 3)))
    s = rng.normal(size=(3, 3))
    s = 0.4 * s / np.abs(s).max()
    part = SpacePartition.from_counts([0], [1, 2], [2], [0, 1], 4, 4)
    space_full, space_act = FockSpace(3, 3), FockSpace(2, 2)

    idx = space_act.sector_indices("A", part.n_act_elec_A)
    psi_a = np.zeros(space_act.dim_A)
    psi_a[idx] = rng.normal(size=len(idx))
    psi_a /= np.linalg.norm(psi_a)
    idx = space_act.sector_indices("B", part.n_act_elec_B)
    psi_b = np.zeros(space_act.dim_B)
    psi_b[idx] = rng.normal(size=len(idx))
    psi_b /= np.linalg.norm(psi_b)
    emb_a = embed_with_core(space_full, "A", [0], [1, 2], psi_a)
    emb_b = embed_with_core(space_full, "B", [2], [0, 1], psi_b)

    cases = (
        ("V", assemble_electrostatic(space_full, v),
         assemble_majorana(space_act, renormalize_electrostatic(v, part)), 1e-10),
        ("P", assemble_exchange(space_full, s),
         assemble_majorana(space_act, renormalize_exchange(s, part)), 1e-10),
        ("VPs", assemble_vp_excitation(space_full, v, s),
         assemble_majorana(space_act, renormalize_vp(v, s, part)), 1e-9),
    )
    for kind, full, act, tol in cases:
        d = abs(
            full.expectation_product(emb_a, emb_b).real
            - act.expectation_product(psi_a, psi_b).real
        )
        rep.check(f"{kind}: frozen-core embedding", d < tol, f"diff={d:.2e}")


def run_verification(archive: TensorArchive) -> bool:
    """Run the oracle suite, printing one line per check; returns True when every check passes."""
    rng = np.random.default_rng(2024)
    rep = _Reporter()

    try:
        oracle = _oracle_operators(archive)
    except ShapeError:  # past the size caps or the operator byte budget
        print("archive exceeds the oracle size cap; using the built-in dimer")
        oracle = _oracle_operators(demo_archive())
    _oracle_checks(rep, *oracle, rng)

    residual = verify_complete_basis(2, np.random.default_rng(11))
    rep.check("complete-basis cancellation", residual < 1e-10, f"residual={residual:.2e}")
    perturbed = verify_complete_basis(2, np.random.default_rng(11), s_perturbation=1e-3)
    rep.check("perturbed span breaks cancellation", perturbed > 1e-4, f"residual={perturbed:.2e}")

    _embedding_check(rep, rng)

    coeffs = build_majorana_coefficients(_unit_v(archive), archive.S)
    worst = 0.0
    trace_ok = True
    for c in coeffs.values():
        fop = factorize_coefficients(c)
        for label, bf in fop.blocks.items():
            ref = c.two_body_blocks[label]
            norm = max(np.linalg.norm(ref), 1e-30)
            worst = max(worst, np.linalg.norm(reconstruct_block(bf) - ref) / norm)
            trace_ok &= np.abs(bf.outer.values).sum() <= np.abs(ref).sum() + 1e-10
    rep.check("factorization round trip", worst < 1e-10, f"worst={worst:.2e}")
    rep.check("factor sums below entrywise sums", trace_ok)

    budget = budget_errors(65.54, 6.35, 537.3, 0.0016)
    rep.check(
        "precision allocation reproduces the reference row",
        abs(budget.eps_V - 7.29e-5) < 0.005 * 7.29e-5
        and abs(budget.eps_VP - 5.66e-4) < 0.005 * 5.66e-4
        and abs(budget.eps_P - 7.60e-6) < 0.005 * 7.60e-6,
    )
    rep.check("lookup cost optimum", qrom_cost(1024, 16) == (8, 240))

    print("all checks passed" if rep.failures == 0 else f"{rep.failures} check(s) failed")
    return rep.failures == 0
