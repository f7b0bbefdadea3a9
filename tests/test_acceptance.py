"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they execute.
"""

import json
import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from saptkit.active import SpacePartition, renormalize_electrostatic, renormalize_exchange, renormalize_vp
from saptkit.archive import load_archive
from saptkit.costing import (
    SystemParams,
    budget_errors,
    calibrate_qsp_prefactor,
    estimate_observable,
    qrom_cost,
    vp4_product_node,
)
from saptkit.factorize import factorize_coefficients, reconstruct_block
from saptkit.fock import (
    FockSpace,
    assemble_electrostatic,
    assemble_exchange,
    assemble_majorana,
    assemble_vp_excitation,
    embed_with_core,
    sector_operator,
    verify_complete_basis,
)
from saptkit.norms import df_hamiltonian_norm, factorize_monomer_hamiltonian, tf_norm
from saptkit.tensors import build_majorana_coefficients, sym_v4
from .conftest import random_dimer, random_sector_state

HEME = SystemParams(232.2, 361.8, 0.0069, 0.1212, 0.068174, 0.800254, 43, 40)

_REFERENCE_ROWS = {
    "V": {"lambda": 65.54, "eps": 7.29e-5, "big_lambda": 8.99e5, "total": 9.74e19},
    "VPs": {"lambda": 537.3, "eps": 5.66e-4, "big_lambda": 9.49e5, "total": 8.63e19},
    "P": {"lambda": 6.35, "eps": 7.60e-6, "big_lambda": 8.35e5, "total": 1.10e20},
}


def report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {label}: {status}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


def test_criterion_01_error_budget_reproduction():
    start = time.perf_counter()
    budget = budget_errors(65.54, 6.35, 537.3, 0.0016)
    elapsed = time.perf_counter() - start
    ok = (
        elapsed < 1e-3
        and abs(budget.eps_V / 7.29e-5 - 1) < 5e-3
        and abs(budget.eps_VP / 5.66e-4 - 1) < 5e-3
        and abs(budget.eps_P / 7.60e-6 - 1) < 5e-3
    )
    report(1, "error-budget reproduction", ok, f"{elapsed*1e6:.0f} us")


def test_criterion_02_iteration_scale_consistency():
    worst = 0.0
    for row in _REFERENCE_ROWS.values():
        got = row["lambda"] / row["eps"]
        worst = max(worst, abs(got / row["big_lambda"] - 1.0))
    report(2, "iteration-scale consistency", worst < 0.01, f"worst dev {worst:.2%}")


def test_criterion_03_oracle_equivalence_bulk():
    rng = np.random.default_rng(99)
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)] * 12 + [(3, 3)] * 4
    assert len(sizes) >= 100
    start = time.perf_counter()
    worst_eq = worst_herm = worst_comm = 0.0
    for n_a, n_b in sizes:
        v, s = random_dimer(rng, n_a, n_b)
        space = FockSpace(n_a, n_b)
        coeffs = build_majorana_coefficients(v, s)
        n_op = sector_operator(space)
        for kind in ("V", "P", "VPs"):
            exc = {
                "V": assemble_electrostatic(space, v),
                "P": assemble_exchange(space, s),
                "VPs": assemble_vp_excitation(space, v, s),
            }[kind]
            maj = assemble_majorana(space, coeffs[kind])
            worst_eq = max(worst_eq, (exc + maj.scaled(-1.0)).norm_estimate(rng, probes=4))
            worst_herm = max(
                worst_herm, (exc + exc.dagger().scaled(-1.0)).norm_estimate(rng, probes=2)
            )
            worst_comm = max(
                worst_comm,
                ((exc @ n_op) + (n_op @ exc).scaled(-1.0)).norm_estimate(rng, probes=2),
            )
    elapsed = time.perf_counter() - start
    ok = worst_eq < 1e-12 and worst_herm < 1e-12 and worst_comm < 1e-12 and elapsed < 60.0
    report(
        3,
        "oracle equivalence on 100 random dimers",
        ok,
        f"eq {worst_eq:.1e}, herm {worst_herm:.1e}, comm {worst_comm:.1e}, {elapsed:.1f} s",
    )


def test_criterion_04_factorization_round_trip():
    rng = np.random.default_rng(5)
    worst = 0.0
    trace_ok = True
    for n in (2, 5, 8):
        v, s = random_dimer(rng, n, n)
        for coeffs in build_majorana_coefficients(v, s).values():
            fop = factorize_coefficients(coeffs)
            for label, bf in fop.blocks.items():
                ref = coeffs.two_body_blocks[label]
                scale = max(np.linalg.norm(ref), 1e-30)
                worst = max(worst, np.linalg.norm(reconstruct_block(bf) - ref) / scale)
                trace_ok &= (
                    np.abs(bf.outer.values).sum() <= np.abs(ref).sum() + 1e-10
                )
    ok = worst < 1e-10 and trace_ok
    report(4, "factorization round trip and trace-norm bound", ok, f"worst {worst:.1e}")


def test_criterion_05_complete_basis_cancellation():
    worst = 0.0
    for seed in range(20):
        worst = max(worst, verify_complete_basis(2, np.random.default_rng(seed)))
    perturbed = min(
        verify_complete_basis(2, np.random.default_rng(seed), s_perturbation=1e-3)
        for seed in range(5)
    )
    ok = worst < 1e-10 and perturbed > 1e-4
    report(
        5,
        "complete-basis cancellation and sensitivity",
        ok,
        f"residual {worst:.1e}, perturbed {perturbed:.1e}",
    )


def test_criterion_06_active_space_embedding():
    rng = np.random.default_rng(31)
    space_full, space_act = FockSpace(3, 3), FockSpace(2, 2)
    worst = {"V": 0.0, "P": 0.0, "VPs": 0.0}
    for trial in range(5):
        v, s = random_dimer(rng, 3, 3)
        part = SpacePartition.from_counts([trial % 3], sorted(set(range(3)) - {trial % 3}),
                                          [(trial + 1) % 3], sorted(set(range(3)) - {(trial + 1) % 3}),
                                          4, 4)
        psi_a = random_sector_state(space_act, "A", part.n_act_elec_A, rng)
        psi_b = random_sector_state(space_act, "B", part.n_act_elec_B, rng)
        emb_a = embed_with_core(space_full, "A", list(part.core_A), list(part.active_A), psi_a)
        emb_b = embed_with_core(space_full, "B", list(part.core_B), list(part.active_B), psi_b)
        cases = {
            "V": (assemble_electrostatic(space_full, v),
                  assemble_majorana(space_act, renormalize_electrostatic(v, part))),
            "P": (assemble_exchange(space_full, s),
                  assemble_majorana(space_act, renormalize_exchange(s, part))),
            "VPs": (assemble_vp_excitation(space_full, v, s),
                    assemble_majorana(space_act, renormalize_vp(v, s, part))),
        }
        for kind, (full, act) in cases.items():
            d = abs(
                full.expectation_product(emb_a, emb_b).real
                - act.expectation_product(psi_a, psi_b).real
            )
            worst[kind] = max(worst[kind], d)
    ok = worst["V"] < 1e-10 and worst["P"] < 1e-10 and worst["VPs"] < 1e-9
    report(6, "frozen-core embedding equality", ok,
           ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_07_qrom_optimum_grid():
    rng = np.random.default_rng(17)
    checked = 0
    for _ in range(500):
        L = int(rng.integers(1, 2**20))
        b = int(rng.integers(1, 65))
        _, cost = qrom_cost(L, b)
        best = min(
            -(-L // k) + b * (k - 1) for k in (2**e for e in range(0, L.bit_length() + 1))
        )
        assert cost == best
        checked += 1
    report(7, "lookup-cost optimum on 500 grid points", checked == 500)


def test_criterion_08_budget_optimality():
    rng = np.random.default_rng(77)
    failures = 0
    for _ in range(50):
        lam_v, lam_p, lam_vp = rng.uniform(0.05, 200.0, size=3)
        eps = 10 ** rng.uniform(-5, -2)
        budget = budget_errors(lam_v, lam_p, lam_vp, eps)
        best = lam_v / budget.eps_V + lam_vp / budget.eps_VP + lam_p / budget.eps_P
        w_v, w_p = 1.0 + lam_p, lam_v
        samples = rng.uniform(1e-3, 1.0, size=(10_000, 3))
        scale = eps / (w_v * samples[:, 0] + samples[:, 1] + w_p * samples[:, 2])
        pts = samples * scale[:, None]
        objectives = lam_v / pts[:, 0] + lam_vp / pts[:, 1] + lam_p / pts[:, 2]
        if best > objectives.min() * (1 + 1e-12):
            failures += 1
    report(8, "allocation beats 10^4-point random search, 50 triples", failures == 0)


def test_criterion_09_cost_model_scaling():
    lam, eps = 65.54, 7.29e-5
    base = estimate_observable("V", lam, HEME, eps)
    double = estimate_observable("V", lam, HEME, eps / 2)
    ratio = double.root.total / base.root.total
    big_lambda = lam / eps
    window = 2.0 - 1e-3 <= ratio <= 2.0 * (1.0 + math.log(2) / math.log(big_lambda)) + 1e-3

    halved = SystemParams(232.2, 361.8, 0.0069 / 2, 0.1212, 0.068174, 0.800254, 43, 40)
    iqpe_ratio = (
        estimate_observable("V", lam, halved, eps).node("iQPE_A").per_call
        / base.node("iQPE_A").per_call
    )
    granularity = 2.0 * base.node("B[H_A]").per_call / base.node("iQPE_A").per_call
    gap_ok = abs(iqpe_ratio - 2.0) <= max(1e-3, granularity)

    # the product-form node of the VPs estimate, rebuilt over its own B[V']
    # and B[P'] leaves scaled up: its cost is linear in theirs
    vp4 = estimate_observable("VPs", 537.3, HEME, 5.66e-4).node("B[VP_4]")
    leaves = [leaf for _, leaf in vp4.children]
    sizes = np.array([1, 2, 4, 8, 16, 32, 64])
    totals = [
        vp4_product_node(*(replace(c, leaf_toffolis=s * c.leaf_toffolis) for c in leaves)).per_call
        for s in sizes
    ]
    slope = float(np.polyfit(np.log(sizes), np.log(totals), 1)[0])
    vp4_ok = abs(slope - 1.0) <= 0.1

    ok = window and gap_ok and vp4_ok
    report(
        9,
        "cost-model scaling laws",
        ok,
        f"ratio {ratio:.4f}, iQPE x{iqpe_ratio:.4f}, exponent {slope:.3f}",
    )


def test_criterion_10_calibrated_table_check():
    budget = budget_errors(65.54, 6.35, 537.3, 0.0016)
    calib = calibrate_qsp_prefactor("V", 65.54, HEME, budget.eps_V, _REFERENCE_ROWS["V"]["total"])
    graphs = {}
    ratios = {}
    for obs, eps in (("VPs", budget.eps_VP), ("P", budget.eps_P)):
        graph = estimate_observable(obs, _REFERENCE_ROWS[obs]["lambda"], HEME, eps, calib)
        graphs[obs] = graph
        target = _REFERENCE_ROWS[obs]["total"]
        ratios[obs] = max(graph.root.total / target, target / graph.root.total)
    additive = all(g.root.total == g.leaf_total() for g in graphs.values())
    ok = all(r < 3.0 for r in ratios.values()) and additive
    report(
        10,
        "calibrated cross-check of the remaining rows",
        ok,
        ", ".join(f"{k} x{r:.2f}" for k, r in ratios.items()),
    )


def test_criterion_11_external_reference_data():
    root = os.environ.get("SAPTKIT_EXTERNAL_DATA")
    if not root:
        print("[criterion 11] external reference archives: SKIP (data not present)")
        pytest.skip("external reference archives not available")
    root = Path(root)
    water = root / "water_ccpvdz.sapt"
    heme = root / "heme.sapt"
    checks = []
    if water.exists():
        archive = load_archive(water)
        coeffs = build_majorana_coefficients(archive.v, archive.S)["V"]
        lam_v = tf_norm(factorize_coefficients(coeffs)).total
        checks.append(("lambda_V(water)", abs(lam_v / 13.05 - 1) < 0.01, f"{lam_v:.4g}"))
    if heme.exists():
        archive = load_archive(heme)
        eigs, factors = factorize_monomer_hamiltonian(
            archive.arrays["h1_A"], archive.arrays["eri_A"]
        )
        lam_a = df_hamiltonian_norm(eigs, factors)
        checks.append(("lambda_A(heme)", abs(lam_a / 232.2 - 1) < 0.01, f"{lam_a:.4g}"))
    if not checks:
        print("[criterion 11] external reference archives: SKIP (no archives found)")
        pytest.skip("no external archives found")
    ok = all(passed for _, passed, _ in checks)
    report(11, "external reference norms", ok, ", ".join(f"{n}={d}" for n, _, d in checks))
