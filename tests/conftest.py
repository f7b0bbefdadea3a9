from typing import NamedTuple

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


class JWReference(NamedTuple):
    adag: np.ndarray  # (2n, dim, dim), alpha modes first
    E: np.ndarray  # (2, n, n, dim, dim), [spin, p, q]
    w: np.ndarray  # E - delta/2
    number: np.ndarray  # (dim, dim)


def jw_reference(n_orb):
    """Dense Jordan-Wigner tables of an n-orbital monomer from complex Pauli
    strings, a^dag_m = Z^(x)m (x) (X - iY)/2 (x) I (x) ... with the alpha modes
    before the beta modes; independent of ``saptkit.fock``."""
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    z = np.diag([1.0, -1.0]).astype(complex)
    n_modes = 2 * n_orb
    adag = []
    for m in range(n_modes):
        op = np.ones((1, 1), dtype=complex)
        for f in [z] * m + [(x - 1j * y) / 2] + [np.eye(2)] * (n_modes - m - 1):
            op = np.kron(op, f)
        adag.append(op)
    adag = np.array(adag)
    assert not adag.imag.any()
    adag = adag.real
    modes = adag.reshape(2, n_orb, *adag.shape[1:])
    E = np.array([[[a_p @ a_q.T for a_q in spin] for a_p in spin] for spin in modes])
    w = E.copy()
    for p in range(n_orb):
        w[:, p, p] -= 0.5 * np.eye(4**n_orb)
    return JWReference(adag, E, w, np.einsum("sppij->ij", E))


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
