import json
import math
import re
import time

import numpy as np
import pytest

from saptkit.costing import (
    CalibrationConstants,
    CostGraph,
    CostNode,
    SystemParams,
    budget_errors,
    calibrate_qsp_prefactor,
    emit_callgraph,
    estimate_observable,
    estimate_supermolecular,
    qrom_cost,
    summary_tsv,
    vp4_product_node,
)
from saptkit.errors import DomainError

from .conftest import graph_from_dict

HEME = SystemParams(
    lambda_A=232.2,
    lambda_B=361.8,
    delta_A=0.0069,
    delta_B=0.1212,
    overlap_A=0.068174,
    overlap_B=0.800254,
    n_orb_A=43,
    n_orb_B=40,
)


class TestBudget:
    def test_reference_row(self):
        start = time.perf_counter()
        budget = budget_errors(65.54, 6.35, 537.3, 0.0016)
        elapsed = time.perf_counter() - start
        assert elapsed < 1e-3
        assert budget.eps_V == pytest.approx(7.29e-5, rel=5e-3)
        assert budget.eps_VP == pytest.approx(5.66e-4, rel=5e-3)
        assert budget.eps_P == pytest.approx(7.60e-6, rel=5e-3)
        assert budget.constraint_residual() < 1e-12

    def test_unit_norms_hand_value(self):
        budget = budget_errors(1.0, 1.0, 1.0, 1.0)
        denom = math.sqrt(2.0) + 2.0
        assert budget.eps_V == pytest.approx(1.0 / denom / math.sqrt(2.0))

    def test_beats_random_search(self, rng):
        for _ in range(5):
            lam_v, lam_p, lam_vp = rng.uniform(0.1, 100.0, size=3)
            eps = 10 ** rng.uniform(-4, -2)
            budget = budget_errors(lam_v, lam_p, lam_vp, eps)
            best = lam_v / budget.eps_V + lam_vp / budget.eps_VP + lam_p / budget.eps_P
            w_v, w_p = 1.0 + lam_p, lam_v
            samples = rng.uniform(0.01, 1.0, size=(2000, 3))
            scale = eps / (w_v * samples[:, 0] + samples[:, 1] + w_p * samples[:, 2])
            pts = samples * scale[:, None]
            objectives = lam_v / pts[:, 0] + lam_vp / pts[:, 1] + lam_p / pts[:, 2]
            assert best <= objectives.min() + 1e-9 * best

    def test_expectation_overrides_change_weights(self):
        base = budget_errors(10.0, 5.0, 20.0, 1e-3)
        better = budget_errors(10.0, 5.0, 20.0, 1e-3, exp_V=1.0, exp_P=0.2)
        assert better.eps_P > base.eps_P
        assert better.constraint_residual() < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            budget_errors(0.0, 1.0, 1.0, 1e-3)


class TestQrom:
    def test_single_entry(self):
        assert qrom_cost(1, 8) == (1, 1)

    def test_reference_point(self):
        assert qrom_cost(1024, 16) == (8, 240)

    def test_matches_enumeration(self, rng):
        for _ in range(60):
            L = int(rng.integers(1, 5000))
            b = int(rng.integers(1, 64))
            k, cost = qrom_cost(L, b)
            best = min(
                -(-L // kk) + b * (kk - 1)
                for kk in (2**e for e in range(0, L.bit_length() + 1))
            )
            assert cost == best


class TestCostGraph:
    def test_additivity_exact(self):
        graph = estimate_observable("V", 65.54, HEME, 7.29e-5)
        assert graph.root.total == graph.leaf_total()
        oqpe = graph.node("oQPE")
        asp = graph.node("ASP")
        assert graph.root.total == oqpe.total + asp.total

    def test_node_totals_are_per_call_times_calls(self):
        graph = estimate_observable("VPs", 537.3, HEME, 5.66e-4)

        def walk(node):
            assert node.total == node.per_call * node.calls
            for _, child in node.children:
                walk(child)

        walk(graph.root)

    def test_qubit_highwater(self):
        graph = estimate_observable("P", 6.35, HEME, 7.60e-6)
        system = 2 * (HEME.n_orb_A + HEME.n_orb_B)
        assert graph.node("B[P]").qubits >= system
        assert graph.root.qubits >= max(c.qubits for _, c in graph.root.children)

    def test_cycle_detection(self):
        """A node reached twice is refused: through a cycle, or under two callers."""
        a = CostNode("a")
        b = CostNode("b")
        a.add(1, b)
        b.children.append((1, a))
        # one leaf under callers of multiplicity 3 and 5 would total 80 at the
        # root but sum to 100 over the leaves
        leaf = CostNode("leaf", leaf_toffolis=10)
        shared = CostNode("root").add(3, CostNode("p").add(1, leaf))
        shared.add(5, CostNode("q").add(1, leaf))
        for root in (a, shared):
            with pytest.raises(DomainError):
                CostGraph(root=root)

    def test_json_round_trip_stable(self):
        graph = estimate_observable("V", 65.54, HEME, 7.29e-5)
        text = emit_callgraph(graph, "json")
        rebuilt = graph_from_dict(json.loads(text))
        assert rebuilt.to_json(indent=2) == text

    def test_dot_single_node(self):
        graph = CostGraph(root=CostNode("solo", leaf_toffolis=5))
        dot = emit_callgraph(graph, "dot")
        assert dot.count("label=") == 1
        assert "solo" in dot

    def test_dot_lines_match_dict_in_preorder(self):
        """One node line per node named by its pre-order index, one edge line per edge."""
        graph = estimate_observable("VPs", 537.3, HEME, 5.66e-4)
        names, edges = [], []

        def walk(nd):
            i = len(names)
            names.append(nd["name"])
            for entry in nd["children"]:
                edges.append((i, entry["multiplicity"], len(names)))
                walk(entry["node"])

        walk(graph.to_dict()["root"])
        dot = emit_callgraph(graph, "dot").splitlines()
        node_lines = [re.fullmatch(r'  n(\d+) \[label="([^\\]+)\\n.*"\];', ln) for ln in dot]
        edge_lines = [re.fullmatch(r'  n(\d+) -> n(\d+) \[label="(\d+)"\];', ln) for ln in dot]
        nodes = [(int(m[1]), m[2]) for m in node_lines if m]
        dot_edges = [(int(m[1]), int(m[3]), int(m[2])) for m in edge_lines if m]
        assert nodes == list(enumerate(names)) and names == [n.name for n in graph.nodes]
        assert sorted(dot_edges, key=lambda e: e[2]) == edges
        assert len(dot) == 3 + len(names) + len(edges)

    def test_tsv_dash_for_missing_nodes(self):
        graph = estimate_supermolecular(142.8, 53.9, 53.9, 0.0016, n_orbs=(83, 43, 40))
        header, row = (line.split("\t") for line in summary_tsv({"super": graph}).splitlines())
        cells = dict(zip(header, row))
        assert cells.pop("observable") == "super" and cells.pop("E_F") == str(graph.root.total)
        assert set(cells.values()) == {"-"}

    def test_tsv_has_required_columns(self):
        graphs = {
            "V": estimate_observable("V", 65.54, HEME, 7.29e-5),
            "P": estimate_observable("P", 6.35, HEME, 7.60e-6),
        }
        tsv = summary_tsv(graphs)
        header = tsv.splitlines()[0]
        for col in ("ASP", "oQPE", "R_pi", "iQPE_A", "B[H_A]", "R_tau", "B[F]"):
            assert col in header
        assert len(tsv.splitlines()) == 3


class TestScaling:
    def test_lambda_doubling_window(self):
        lam, eps = 65.54, 7.29e-5
        base = estimate_observable("V", lam, HEME, eps).root.total
        double = estimate_observable("V", lam, HEME, eps / 2).root.total
        ratio = double / base
        big_lambda = lam / eps
        assert 2.0 - 1e-3 <= ratio <= 2.0 * (1.0 + math.log(2) / math.log(big_lambda)) + 1e-3

    def test_gap_halving_doubles_inner_qpe(self):
        base_graph = estimate_observable("V", 65.54, HEME, 7.29e-5)
        halved = SystemParams(
            lambda_A=HEME.lambda_A,
            lambda_B=HEME.lambda_B,
            delta_A=HEME.delta_A / 2,
            delta_B=HEME.delta_B,
            overlap_A=HEME.overlap_A,
            overlap_B=HEME.overlap_B,
            n_orb_A=HEME.n_orb_A,
            n_orb_B=HEME.n_orb_B,
        )
        half_graph = estimate_observable("V", 65.54, halved, 7.29e-5)
        base = base_graph.node("iQPE_A").per_call
        doubled = half_graph.node("iQPE_A").per_call
        granularity = 2.0 / base_graph.node("B[H_A]").per_call  # one degree step
        assert doubled / base == pytest.approx(2.0, rel=max(1e-3, granularity))

    def test_monotonicity(self):
        base = estimate_observable("V", 65.54, HEME, 7.29e-5).root.total
        assert estimate_observable("V", 131.08, HEME, 7.29e-5).root.total >= base
        assert estimate_observable("V", 65.54, HEME, 3e-5).root.total >= base
        stiffer = SystemParams(464.4, 361.8, 0.0069, 0.1212, 0.068, 0.8, 43, 40)
        assert estimate_observable("V", 65.54, stiffer, 7.29e-5).root.total >= base
        bigger = SystemParams(232.2, 361.8, 0.0069, 0.1212, 0.068, 0.8, 60, 40)
        assert estimate_observable("V", 65.54, bigger, 7.29e-5).root.total >= base

    def test_vp4_product_linear(self):
        sizes = np.array([1, 2, 4, 8, 16, 32]) * 1000
        totals = [vp4_product_per_call(3 * s, 2 * s) for s in sizes]
        slope = np.polyfit(np.log(sizes), np.log(totals), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_vp4_expensive_called_once(self):
        c = 1000
        assert vp4_product_per_call(c, c) >= 3 * c
        assert 12 * c <= vp4_product_per_call(10 * c, c) <= 12 * c + 64
        # the product node of a VPs estimate calls its costlier factor once
        node = estimate_observable("VPs", 537.3, HEME, 5.66e-4).node("B[VP_4]")
        (once, costly), (twice, cheap) = node.children
        assert (once, twice) == (1, 2) and costly.per_call >= cheap.per_call


def vp4_product_per_call(cost_v: int, cost_p: int) -> int:
    """Per-call Toffolis of the product node over two leaves of the given costs."""
    v = CostNode("B[V']", leaf_toffolis=cost_v, own_qubits=300)
    p = CostNode("B[P']", leaf_toffolis=cost_p, own_qubits=300)
    return vp4_product_node(v, p).per_call


@pytest.mark.parametrize("count", [0, -2, 2.5, True])
def test_orbital_counts_are_integers_from_one(count):
    with pytest.raises(DomainError, match="orbital count n_orb_B"):
        SystemParams(1.0, 1.0, 1.0, 1.0, n_orb_A=1, n_orb_B=count)
    with pytest.raises(DomainError, match="orbital count n_orb_A"):
        estimate_supermolecular(1.0, 1.0, 1.0, 0.0016, n_orbs=(2, count, 1))


class TestSupermolecular:
    def test_equal_norms_split_evenly(self):
        graph = estimate_supermolecular(5.0, 5.0, 5.0, 0.0016, n_orbs=(2, 1, 1))
        eps = graph.meta["eps_split"]
        for val in eps.values():
            assert val == pytest.approx(0.0016 / 3)

    def test_water_ratio_and_budget_sums(self):
        graph = estimate_supermolecular(142.8, 53.9, 53.9, 0.0016, n_orbs=(14, 7, 7))
        eps = graph.meta["eps_split"]
        assert eps["E_AB"] / eps["E_A"] == pytest.approx(math.sqrt(142.8 / 53.9), rel=1e-12)
        assert sum(eps.values()) == pytest.approx(0.0016, rel=1e-12)
        assert graph.root.total == graph.leaf_total()


class TestCalibration:
    def test_fit_then_cross_check(self):
        budget = budget_errors(65.54, 6.35, 537.3, 0.0016)
        calib = calibrate_qsp_prefactor("V", 65.54, HEME, budget.eps_V, 9.74e19)
        fitted = estimate_observable("V", 65.54, HEME, budget.eps_V, calib).root.total
        assert fitted == pytest.approx(9.74e19, rel=2e-3)
        for obs, lam, eps, target in (
            ("VPs", 537.3, budget.eps_VP, 8.63e19),
            ("P", 6.35, budget.eps_P, 1.10e20),
        ):
            total = estimate_observable(obs, lam, HEME, eps, calib).root.total
            assert total / target < 3.0 and target / total < 3.0

    def test_constants_positive(self):
        with pytest.raises(DomainError):
            CalibrationConstants(qsp_prefactor=-1.0)
