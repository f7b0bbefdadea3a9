"""Toffoli and qubit estimates for the two-reflection estimation algorithm.

The model turns l1 norms, spectral gaps and initial-state overlaps into a
call graph: an outer phase estimation whose iterate is one eigenstate-
flagging reflection (built from inner phase estimations of each monomer
Hamiltonian) and one observable block-encoding reflection, plus the
repeat-until-success state-preparation stage.  Subroutine constants the
literature delegates to hardware-level compilations live in
:class:`CalibrationConstants`; a one-shot fit can scale the model to one
reference row, after which the constants are frozen.

All Toffoli counts are integers with ceilings applied per subroutine, so the
call-graph additivity is exact.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field, fields, replace

from .errors import DomainError

# worst-case sensitivity of the iterate eigenphase to the encoded ratio
PHASE_SENSITIVITY = 1.0 / (2.0 * math.sqrt(3.0))


def _positive(*values: float) -> bool:
    """Whether every value lies in (0, inf); NaN does not."""
    return all(0.0 < x < math.inf for x in values)


def _ceil(x: float, what: str) -> int:
    """ceil(x) of a derived count; extreme finite inputs can make it infinite."""
    if not x < math.inf:
        raise DomainError(f"{what} is not finite for these inputs")
    return math.ceil(x)


def _check_orbitals(counts: dict[str, int]) -> None:
    """Raise DomainError unless every named orbital count is an integer >= 1."""
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"orbital count {name} must be an integer >= 1, got {n!r}")


# ---------------------------------------------------------------------------
# parameter containers


@dataclass(frozen=True)
class SystemParams:
    """Monomer Hamiltonian norms, gaps, overlaps and orbital counts."""

    lambda_A: float
    lambda_B: float
    delta_A: float
    delta_B: float
    overlap_A: float = 1.0
    overlap_B: float = 1.0
    n_orb_A: int | None = None  # required: None is refused
    n_orb_B: int | None = None

    def __post_init__(self):
        if not _positive(self.delta_A, self.delta_B):
            raise DomainError("spectral gaps must be positive and finite")
        for ov in (self.overlap_A, self.overlap_B):
            if not 0.0 < ov <= 1.0:
                raise DomainError("state overlaps must lie in (0, 1]")
        if not _positive(self.lambda_A, self.lambda_B):
            raise DomainError("Hamiltonian norms must be positive and finite")
        _check_orbitals({"n_orb_A": self.n_orb_A, "n_orb_B": self.n_orb_B})


@dataclass(frozen=True)
class ErrorBudget:
    """Per-observable precision allocation meeting one total target."""

    eps_V: float
    eps_VP: float
    eps_P: float
    eps_targ: float
    weight_V: float  # multiplies eps_V in the constraint (1 + exchange scale)
    weight_P: float  # multiplies eps_P in the constraint (electrostatic scale)

    def constraint_residual(self) -> float:
        lhs = self.weight_V * self.eps_V + self.eps_VP + self.weight_P * self.eps_P
        return abs(lhs - self.eps_targ) / self.eps_targ

    def for_observable(self, observable: str) -> float:
        return {"V": self.eps_V, "VPs": self.eps_VP, "P": self.eps_P}[observable]


def check_budget(*values: float) -> None:
    """Raise DomainError unless every norm and the target is positive and finite."""
    if not _positive(*values):
        raise DomainError("degenerate budget: norms and target must be positive and finite")


def budget_errors(
    lam_V: float,
    lam_P: float,
    lam_VP: float,
    eps_targ: float,
    exp_V: float | None = None,
    exp_P: float | None = None,
) -> ErrorBudget:
    """Closed-form allocation minimizing the summed iteration counts.

    Minimizes lam_V/eps_V + lam_VP/eps_VP + lam_P/eps_P subject to
    w_V eps_V + eps_VP + w_P eps_P = eps_targ with w_V = 1 + lam_P and
    w_P = lam_V; supplying low-accuracy expectation estimates replaces the
    norms inside the constraint weights only.
    """
    check_budget(lam_V, lam_P, lam_VP, eps_targ)
    w_v = 1.0 + (lam_P if exp_P is None else abs(exp_P))
    w_p = lam_V if exp_V is None else abs(exp_V)
    denom = math.sqrt(w_v * lam_V) + math.sqrt(lam_VP) + math.sqrt(w_p * lam_P)
    scale = eps_targ / denom
    return ErrorBudget(
        eps_V=scale * math.sqrt(lam_V / w_v),
        eps_VP=scale * math.sqrt(lam_VP),
        eps_P=scale * math.sqrt(lam_P / w_p),
        eps_targ=eps_targ,
        weight_V=w_v,
        weight_P=w_p,
    )


# ---------------------------------------------------------------------------
# data lookup


def qrom_cost(L: int, b: int) -> tuple[int, int]:
    """Optimal power-of-two fanout and Toffoli count of a data lookup.

    Minimizes ceil(L/k) + b(k-1) exactly over k in {1, 2, 4, ...}; clean
    ancilla usage of the chosen point is k*b + ceil(log2(max(L, 2))).
    """
    if L < 1 or b < 1:
        raise DomainError("lookup needs at least one entry and one output bit")
    best_k, best_cost = 1, L
    k = 1
    while k <= L:
        cost = -(-L // k) + b * (k - 1)
        if cost < best_cost:
            best_k, best_cost = k, cost
        k *= 2
    return best_k, best_cost


def qrom_qubits(L: int, b: int) -> int:
    k, _ = qrom_cost(L, b)
    return k * b + max(1, math.ceil(math.log2(max(L, 2))))


# ---------------------------------------------------------------------------
# calibration constants


@dataclass(frozen=True)
class CalibrationConstants:
    """Documented subroutine cost coefficients.

    ``qsp_prefactor`` scales the inner-rounding polynomial degree,
    ``oqpe_prefactor`` the outer iteration count, ``be_prefactor`` every
    block-encoding per-call cost; ``givens_toffoli`` is the per-rotation cost
    of a basis-change layer, ``b_coeff``/``b_rot`` the coefficient and angle
    bit widths, ``asp_rus`` the repeat-until-success overhead of state
    preparation, and ``asp_phase_factor`` the (low) effective precision of its
    auxiliary phase estimations.
    """

    qsp_prefactor: float = 1.0
    qsp_log_scale: float = 1.0
    oqpe_prefactor: float = 1.0
    be_prefactor: float = 1.0
    givens_toffoli: int = 16
    b_coeff: int = 16
    b_rot: int = 16
    asp_rus: float = 1.0
    asp_phase_factor: float = 32.0
    lcu_slots: int = 7

    def __post_init__(self):
        # the int-typed constants must be integers, so Toffoli counts stay integers
        for f in fields(self):
            val = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(val, bool) or not isinstance(val, kind) or not _positive(val):
                noun = "integer" if f.type == "int" else "finite number"
                raise DomainError(f"calibration constant {f.name} must be a positive {noun}")


# ---------------------------------------------------------------------------
# call graph


@dataclass
class CostNode:
    """One subroutine: per-call Toffolis, cumulative calls, qubit highwater."""

    name: str
    leaf_toffolis: int = 0
    own_qubits: int = 0
    children: list[tuple[int, "CostNode"]] = field(default_factory=list)
    calls: int = 1

    def add(self, multiplicity: int, child: "CostNode") -> "CostNode":
        if multiplicity < 1:
            raise DomainError("edge multiplicity must be a positive integer")
        self.children.append((int(multiplicity), child))
        return self

    @property
    def per_call(self) -> int:
        return self.leaf_toffolis + sum(m * c.per_call for m, c in self.children)

    @property
    def total(self) -> int:
        return self.calls * self.per_call

    @property
    def qubits(self) -> int:
        child_max = max((c.qubits for _, c in self.children), default=0)
        return max(self.own_qubits, child_max)


@dataclass
class CostGraph:
    """A call tree; ``nodes`` lists its nodes in pre-order.  A node reached
    twice, through a cycle or a second caller, is refused: it would carry the
    call count of one of its places only."""

    root: CostNode
    meta: dict = field(default_factory=dict)
    nodes: list[CostNode] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.nodes, seen, todo = [], set(), [(1, self.root)]
        while todo:
            calls, node = todo.pop()
            if id(node) in seen:
                raise DomainError(f"cost graph reaches node {node.name!r} twice: not a tree")
            seen.add(id(node))
            node.calls = calls
            self.nodes.append(node)
            todo.extend((calls * m, child) for m, child in reversed(node.children))

    def node(self, name: str) -> CostNode:
        """The first node of that name in pre-order."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(name)

    def leaf_total(self) -> int:
        return sum(node.calls * node.leaf_toffolis for node in self.nodes)

    def to_dict(self) -> dict:
        def node_dict(node: CostNode) -> dict:
            return {
                "name": node.name,
                "per_call": node.per_call,
                "calls": node.calls,
                "total": node.total,
                "qubits": node.qubits,
                "children": [
                    {"multiplicity": m, "node": node_dict(c)} for m, c in node.children
                ],
            }

        return {"root": node_dict(self.root), "meta": dict(self.meta)}

    def to_json(self, **kw) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, **kw)

    def to_dot(self) -> str:
        """Node ``n<i>`` is the i-th in pre-order; each edge line follows the
        lines of its child's subtree."""
        into = {id(c): (i, m) for i, node in enumerate(self.nodes) for m, c in node.children}
        lines, open_edges = ["digraph costs {", "  node [shape=box];"], []
        for i, node in enumerate(self.nodes):
            parent, mult = into.get(id(node), (None, 0))
            # the subtrees entered after the parent's are complete: their edges follow
            while open_edges and open_edges[-1][0] != parent:
                lines.append(open_edges.pop()[1])
            label = (
                f"{node.name}\\nper_call={node.per_call}\\n"
                f"calls={node.calls}\\ntotal={node.total}"
            )
            lines.append(f'  n{i} [label="{label}"];')
            if parent is not None:
                open_edges.append((i, f'  n{parent} -> n{i} [label="{mult}"];'))
        lines.extend(edge for _, edge in reversed(open_edges))
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# subroutine models


def _iterations(lam: float, eps: float, calib: CalibrationConstants) -> int:
    """Outer phase-estimation applications resolving eps in the expectation.

    The eigenphase moves at worst PHASE_SENSITIVITY per unit of the encoded
    ratio, so the phase must be read to sensitivity * eps/lambda radians.
    """
    resolution = PHASE_SENSITIVITY * eps / lam
    ratio = calib.oqpe_prefactor * math.pi / resolution if resolution else math.inf
    return _ceil(ratio, "the iteration count (lambda/eps)")


def _qsp_degree(lam_x: float, delta_x: float, big_lambda: float, calib) -> int:
    log_term = math.log(max(math.e, calib.qsp_log_scale * big_lambda))
    degree = calib.qsp_prefactor * (lam_x / delta_x) * log_term
    return max(1, _ceil(degree, "the QSP degree (lambda/gap)"))


def _encoding_leaf(
    name: str, entries: int, givens: int, extra: int, system: int, calib: CalibrationConstants
) -> CostNode:
    """A block encoding priced by its coefficient and angle lookups over
    ``entries`` items, a layer of ``givens`` rotations and ``extra`` Toffolis,
    on ``system`` qubits besides the lookup and coefficient registers."""
    _, lookup = qrom_cost(entries, calib.b_coeff)
    _, angles = qrom_cost(entries, calib.b_rot)
    toffolis = _ceil(
        calib.be_prefactor * (lookup + angles + givens * calib.givens_toffoli + extra),
        "the block-encoding Toffoli count",
    )
    qubits = qrom_qubits(entries, calib.b_rot) + system + calib.b_coeff
    return CostNode(name, leaf_toffolis=toffolis, own_qubits=qubits)


def hamiltonian_encoding_node(name: str, n_orb: int, calib: CalibrationConstants) -> CostNode:
    """Block encoding of one double-factorized monomer Hamiltonian."""
    return _encoding_leaf(name, n_orb * (n_orb + 1), 4 * n_orb, 2 * calib.b_coeff, 2 * n_orb, calib)


def observable_encoding_node(
    observable: str,
    params: SystemParams,
    calib: CalibrationConstants,
    rank_counts: dict[str, int] | None = None,
) -> CostNode:
    """Block encoding of one observable in the factorized representation.

    ``rank_counts`` may carry actual factor counts ('L_V', 'L_P', per-term
    entries for the product observable); sizes default to the rank bounds in
    the orbital counts.
    """
    n_a, n_b = params.n_orb_A, params.n_orb_B
    counts = dict(rank_counts or {})
    l_v = counts.get("L_V", n_a * n_b * (1 + n_a + n_b))
    l_p = counts.get("L_P", min(n_a, n_b) ** 2 + n_a * n_a + n_b * n_b)
    system = 2 * (n_a + n_b)

    def enc_leaf(name: str, entries: int) -> CostNode:
        return _encoding_leaf(name, entries, system, 0, system, calib)

    if observable == "V":
        return enc_leaf("B[V]", l_v)
    if observable == "P":
        return enc_leaf("B[P]", l_p)
    if observable == "VPs":
        parts = {
            "B[VP_A]": counts.get("L_VP_A", n_a * n_a * (1 + 2 * n_a)),
            "B[VP_B]": counts.get("L_VP_B", n_b * n_b * (1 + 2 * n_b)),
            "B[VP_1m]": counts.get("L_VP_1m", l_v),
            "B[VP_1l]": counts.get("L_VP_1l", l_v),
        }
        node = CostNode("B[VP]")
        for name, entries in parts.items():
            node.add(1, enc_leaf(name, entries))
        v_node = enc_leaf("B[V']", l_v)
        p_node = enc_leaf("B[P']", l_p)
        node.add(1, vp4_product_node(v_node, p_node))
        _, prep = qrom_cost(calib.lcu_slots, calib.b_coeff)
        node.add(1, CostNode("LCU_prep", leaf_toffolis=2 * prep, own_qubits=3))
        return node
    raise DomainError(f"unknown observable {observable!r}")


def vp4_product_node(v_node: CostNode, p_node: CostNode) -> CostNode:
    """Self-inverse symmetric product of two block encodings.

    The cheaper factor runs twice, the expensive one once; the wrapper adds
    one auxiliary qubit plus a Toffoli fan over the shared index register.
    """
    cheap, costly = sorted((v_node, p_node), key=lambda n: n.per_call)
    shared = max(v_node.own_qubits, p_node.own_qubits)
    wrapper_bits = max(2, math.ceil(math.log2(max(shared, 2))) + 2)
    node = CostNode("B[VP_4]", leaf_toffolis=wrapper_bits, own_qubits=shared + 2)
    node.add(1, costly)
    node.add(2, cheap)
    return node


# ---------------------------------------------------------------------------
# end-to-end estimates


def estimate_observable(
    observable: str,
    lambda_f: float,
    params: SystemParams,
    eps_f: float,
    calib: CalibrationConstants | None = None,
    rank_counts: dict[str, int] | None = None,
) -> CostGraph:
    """Full call graph of one observable estimation run."""
    calib = calib or CalibrationConstants()
    if not _positive(lambda_f, eps_f):
        raise DomainError("observable norm and precision must be positive and finite")
    big_lambda = lambda_f / eps_f
    iterations = _iterations(lambda_f, eps_f, calib)
    p_outer = math.ceil(math.log2(iterations)) + 2

    r_pi, asp, refl = CostNode("R_pi"), CostNode("ASP"), 0
    for which, lam_x, delta_x, ov, n_x in (
        ("A", params.lambda_A, params.delta_A, params.overlap_A, params.n_orb_A),
        ("B", params.lambda_B, params.delta_B, params.overlap_B, params.n_orb_B),
    ):
        bh = hamiltonian_encoding_node(f"B[H_{which}]", n_x, calib)
        degree = _qsp_degree(lam_x, delta_x, big_lambda, calib)
        p_inner = math.ceil(math.log2(degree)) + 2
        iqpe = CostNode(f"iQPE_{which}", own_qubits=bh.own_qubits + p_inner)
        iqpe.add(degree, bh)
        iqpe.add(1, CostNode(f"phase_{which}", leaf_toffolis=4 * p_inner))
        r_pi.add(2, iqpe)
        refl += 2 * p_inner

        asp_degree = _qsp_degree(lam_x, delta_x, calib.asp_phase_factor, calib)
        aqpe = CostNode(f"aQPE_{which}")
        # a separate encoding instance: CostGraph refuses a node reached twice
        aqpe.add(asp_degree, hamiltonian_encoding_node(f"B[H_{which}]asp", n_x, calib))
        repeats = _ceil(calib.asp_rus / ov**2 if ov**2 else math.inf, "ASP repeats (1/overlap^2)")
        asp.add(repeats, aqpe)
    r_pi.add(1, CostNode("Refl", leaf_toffolis=refl))

    bf = observable_encoding_node(observable, params, calib, rank_counts)
    r_tau = CostNode("R_tau")
    r_tau.add(1, bf)
    r_tau.add(1, CostNode("ctrl", leaf_toffolis=4))

    oqpe = CostNode("oQPE", own_qubits=p_outer + 2 * (params.n_orb_A + params.n_orb_B))
    oqpe.add(iterations, r_pi)
    oqpe.add(iterations, r_tau)
    oqpe.add(1, CostNode("qft", leaf_toffolis=2 * p_outer * p_outer))

    root = CostNode(f"E_{observable}")
    root.add(1, asp)
    root.add(1, oqpe)
    return CostGraph(
        root=root,
        meta={
            "observable": observable,
            "lambda_F": lambda_f,
            "eps_F": eps_f,
            "Lambda_F": big_lambda,
            "iterations": iterations,
        },
    )


def calibrate_qsp_prefactor(
    observable: str,
    lambda_f: float,
    params: SystemParams,
    eps_f: float,
    target_total: float,
    calib: CalibrationConstants | None = None,
) -> CalibrationConstants:
    """One-shot fit of the rounding-degree prefactor to a reference total."""
    calib = calib or CalibrationConstants()
    for _ in range(8):
        total = estimate_observable(observable, lambda_f, params, eps_f, calib).root.total
        ratio = target_total / total
        if abs(ratio - 1.0) < 1e-3:
            break
        calib = replace(calib, qsp_prefactor=calib.qsp_prefactor * ratio)
    return calib


def estimate_supermolecular(
    lam_ab: float,
    lam_a: float,
    lam_b: float,
    eps_targ: float,
    n_orbs: tuple[int, int, int],
    calib: CalibrationConstants | None = None,
) -> CostGraph:
    """Three standard phase-estimation runs with sqrt-weighted budgets, on
    ``n_orbs`` = (n_AB, n_A, n_B) orbitals."""
    calib = calib or CalibrationConstants()
    if not _positive(lam_ab, lam_a, lam_b, eps_targ):
        raise DomainError("norms and target precision must be positive and finite")
    roots = math.sqrt(lam_ab) + math.sqrt(lam_a) + math.sqrt(lam_b)
    n_ab, n_a, n_b = n_orbs
    _check_orbitals({"n_orb_AB": n_ab, "n_orb_A": n_a, "n_orb_B": n_b})
    root, eps_split = CostNode("E_int(supermolecular)"), {}
    for name, lam, n_orb in (("E_AB", lam_ab, n_ab), ("E_A", lam_a, n_a), ("E_B", lam_b, n_b)):
        eps_x = eps_split[name] = eps_targ * math.sqrt(lam) / roots
        ratio = calib.oqpe_prefactor * math.pi * lam / (2.0 * eps_x) if eps_x else math.inf
        iters = _ceil(ratio, "the iteration count (lambda/eps)")
        node = CostNode(name, own_qubits=2 * n_orb + math.ceil(math.log2(iters)) + 2)
        node.add(iters, hamiltonian_encoding_node(f"B[H]({name})", n_orb, calib))
        root.add(1, node)
    return CostGraph(root=root, meta={"eps_split": eps_split, "eps_targ": eps_targ})


def emit_callgraph(graph: CostGraph, fmt: str = "json") -> str:
    """Deterministic serialization of a cost graph ('json' or 'dot')."""
    if fmt == "json":
        return graph.to_json(indent=2)
    if fmt == "dot":
        return graph.to_dot()
    raise DomainError(f"unknown call-graph format {fmt!r}")


_TSV_COLUMNS = (
    "E_F", "ASP", "aQPE_A", "aQPE_B", "oQPE", "R_pi", "iQPE_A", "B[H_A]", "iQPE_B", "B[H_B]",
    "R_tau", "B[F]",
)


def summary_tsv(graphs: dict[str, CostGraph]) -> str:
    """Per-observable parameters and subroutine totals in a TSV table."""
    lines = ["observable\tlambda_F\teps_F\tLambda_F\t" + "\t".join(_TSV_COLUMNS)]
    for obs in sorted(graphs):
        graph = graphs[obs]
        first = {node.name: node for node in reversed(graph.nodes)}  # as node() picks
        row = [obs]
        for key in ("lambda_F", "eps_F", "Lambda_F"):
            val = graph.meta.get(key)
            row.append("-" if val is None else f"{val:.6g}")
        encoding = {"V": "B[V]", "P": "B[P]", "VPs": "B[VP]"}.get(obs, "B[F]")
        for col in _TSV_COLUMNS:
            name = {"E_F": graph.root.name, "B[F]": encoding}.get(col, col)
            node = first.get(name)
            if node is None:
                row.append("-")
            else:  # encoding columns report per-call cost, aggregates report totals
                row.append(str(node.per_call if name.startswith("B[") else node.total))
        lines.append("\t".join(row))
    return "\n".join(lines)
