import numpy as np
import pytest

from saptkit.costing import CostGraph, CostNode
from saptkit.tensors import build_dressed_nu, sym_v4


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_dimer(rng, n_a, n_b, s_scale=0.5):
    """Random four-fold-symmetric Coulomb tensor and bounded overlap."""
    v = sym_v4(rng.normal(size=(n_a, n_a, n_b, n_b)))
    s = rng.normal(size=(n_a, n_b))
    s = s_scale * s / max(1.0, np.abs(s).max())
    return v, s


def half_weighted_dressing(v, s):
    """Half-weighted (barred) dressing of the exchange expansion, no hybrid blocks.

    Returns its spin-locked tensor [p1, q2, q1, p2] and its spin-free tensor
    [p1, p2, q1, q2]; the plain dressing of build_dressed_nu is canonical.
    """
    nubar_lock = 0.5 * next(build_dressed_nu(v, s))
    w1 = np.einsum("axby,xy->ab", v, s, optimize=True)
    nubar_dir = 0.5 * np.einsum("ab,cd->acbd", w1, s)
    return nubar_lock, nubar_dir


def random_sector_state(space, which, n_elec, rng, sz=None):
    idx = space.sector_indices(which, n_elec, sz)
    dim = space.dim_A if which == "A" else space.dim_B
    vec = np.zeros(dim, dtype=complex)
    vals = rng.normal(size=len(idx))
    vec[idx] = vals / np.linalg.norm(vals)
    return vec


def graph_from_dict(data: dict) -> CostGraph:
    """Rebuild a cost graph from its JSON form (per-call totals back to leaf costs)."""

    def build(nd: dict) -> CostNode:
        node = CostNode(name=nd["name"], own_qubits=nd.get("qubits", 0))
        child_cost = 0
        for entry in nd.get("children", []):
            child = build(entry["node"])
            node.add(entry["multiplicity"], child)
            child_cost += entry["multiplicity"] * child.per_call
        node.leaf_toffolis = nd["per_call"] - child_cost
        return node

    return CostGraph(root=build(data["root"]), meta=data.get("meta", {}))
