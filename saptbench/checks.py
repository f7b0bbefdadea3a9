"""Output checks of the benchmark workloads.

They run outside the timed region.  A failed check marks the operation that
produced the output as failed, so it counts toward ``fail_ratio``.  The check
functions take the pass state from worker.py: ``p.ops`` and ``p.fail`` plus
whatever the pass and its probes put into ``p.seen``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

FACTOR_RTOL = 1e-10
BUDGET_TOL = 1e-12
EPS_TARG = 0.0016  # the estimate command's default target precision
OBSERVABLES = ("V", "P", "VPs")

# grouped-matrix axis order of each stored block (the factor-cache convention):
# only the locked block pairs (p1, q2) x (p2, q1)
_BLOCK_PERM = {"1l": (0, 3, 1, 2)}
_BLOCK_LABELS = {"v", "exch", "A2", "B2", "1m", "1l", "2", "2r", "3", "3r"}


# ---------------------------------------------------------------------------
# factor probes


def _bilinear(fact, x: np.ndarray, y: np.ndarray) -> float:
    """x^T (left diag(values) right^T) y."""
    return float((x @ fact.left * fact.values) @ (fact.right.T @ y))


def _inner_projections(facts, x: np.ndarray) -> np.ndarray:
    """<x, left_t diag(values_t) right_t^T>_F for every inner factorization t."""
    return np.array([((x @ f.right) * f.left).sum(axis=0) @ f.values for f in facts])


def factor_probe_error(coeffs, fop, rng: np.random.Generator) -> float:
    """Worst relative error of x^T B y from the factors against each dense block.

    Covers every two-body block and the overlap SVD; random x, y; the error is
    relative to |B|_F |x| |y|.
    """
    worst = 0.0
    for label, bf in fop.blocks.items():
        if label not in _BLOCK_LABELS:
            return float("inf")
        block = np.transpose(coeffs.two_body_blocks[label], _BLOCK_PERM.get(label, (0, 1, 2, 3)))
        n1, n2, n3, n4 = block.shape
        x, y = rng.normal(size=(n1, n2)), rng.normal(size=(n3, n4))
        dense = float(np.einsum("abcd,ab,cd->", block, x, y))
        left = _inner_projections(bf.inner_left, x)
        right = _inner_projections(bf.inner_right, y)
        factored = float((bf.outer.values * left) @ right) if bf.outer.rank else 0.0
        scale = np.linalg.norm(block) * np.linalg.norm(x) * np.linalg.norm(y)
        worst = max(worst, abs(factored - dense) / max(scale, 1e-300))
    if fop.overlap is not None:
        s = np.asarray(coeffs.overlap)
        x, y = rng.normal(size=s.shape[0]), rng.normal(size=s.shape[1])
        err = abs(_bilinear(fop.overlap, x, y) - float(x @ s @ y))
        worst = max(worst, err / max(np.linalg.norm(s) * np.linalg.norm(x) * np.linalg.norm(y), 1e-300))
    return worst


def fop_digest(fop) -> str:
    """sha256 over every array and attribute of a FactorizedOperator."""
    h = hashlib.sha256(repr((fop.observable, fop.space_tag, float(fop.threshold))).encode())

    def put(tag: str, fact) -> None:
        h.update(f"{tag}:{bool(fact.symmetric)}".encode())
        for arr in (fact.values, fact.left, fact.right):
            arr = np.ascontiguousarray(arr, dtype="<f8")
            h.update(repr(arr.shape).encode())
            h.update(memoryview(arr).cast("B"))

    for name in sorted(fop.one_body):
        put(f"one_body.{name}", fop.one_body[name])
    if fop.overlap is not None:
        put("overlap", fop.overlap)
    for label in sorted(fop.blocks):
        bf = fop.blocks[label]
        h.update(repr((label, tuple(int(n) for n in bf.shape), float(bf.discarded_weight))).encode())
        put(f"{label}.outer", bf.outer)
        for t, fact in enumerate(bf.inner_left):
            put(f"{label}.left.{t}", fact)
        if bf.inner_right is not bf.inner_left:
            for t, fact in enumerate(bf.inner_right):
                put(f"{label}.right.{t}", fact)
    return h.hexdigest()


def norm_record(report) -> dict:
    return {
        "components": dict(report.components),
        "excluded": dict(report.excluded),
        "lambda_s": report.lambda_s,
        "total": report.total,
    }


# ---------------------------------------------------------------------------
# call-graph and budget checks on the estimate outputs


def graph_totals(graph_json: dict) -> tuple[int, int]:
    """(root total, multiplicity-weighted sum of leaf Toffolis) from an emitted graph."""
    leaf_total = 0
    todo = [graph_json["root"]]
    while todo:
        node = todo.pop()
        children = [edge["node"] for edge in node["children"]]
        own = node["per_call"] - sum(
            edge["multiplicity"] * edge["node"]["per_call"] for edge in node["children"]
        )
        leaf_total += node["calls"] * own
        todo.extend(children)
    return graph_json["root"]["total"], leaf_total


def budget_residual(meta: dict[str, dict], eps_targ: float = EPS_TARG) -> float:
    """Relative residual of w_V eps_V + eps_VP + w_P eps_P = eps_targ from graph metadata."""
    lam = {k: meta[k]["lambda_F"] for k in OBSERVABLES}
    eps = {k: meta[k]["eps_F"] for k in OBSERVABLES}
    lhs = (1.0 + lam["P"]) * eps["V"] + eps["VPs"] + lam["V"] * eps["P"]
    return abs(lhs - eps_targ) / eps_targ


def estimate_output_errors(out_dir: Path) -> list[str]:
    """Problems found in the files written by ``estimate --format all -o out_dir``."""
    errors = []
    try:
        rows = (out_dir / "estimate.summary.tsv").read_text().strip().splitlines()
        if len(rows) != 1 + len(OBSERVABLES):
            errors.append(f"summary TSV has {len(rows) - 1} rows, expected {len(OBSERVABLES)}")
        meta = {}
        for obs in OBSERVABLES:
            graph = json.loads((out_dir / f"estimate.{obs}.json").read_text())
            root, leaves = graph_totals(graph)
            if root != leaves:
                errors.append(f"{obs}: root total {root} != leaf total {leaves}")
            meta[obs] = graph["meta"]
        residual = budget_residual(meta)
        if not residual < BUDGET_TOL:
            errors.append(f"budget constraint residual {residual:.3e}")
    except (OSError, KeyError, ValueError) as exc:
        errors.append(f"unreadable estimate output: {type(exc).__name__}: {exc}")
    return errors


# ---------------------------------------------------------------------------
# per-workload checks


def _op_ok(p, name: str) -> bool:
    return any(op["name"] == name and op["ok"] for op in p.ops)


def check_estimate_heme(p) -> None:
    if not _op_ok(p, "estimate"):
        return
    errors = estimate_output_errors(p.seen["out_dir"])
    factor = p.seen.get("factor_errors", {})
    if sorted(factor) != sorted(OBSERVABLES):
        errors.append(f"factor probes saw {sorted(factor)}")
    errors += [f"{k}: factor probe error {e:.2e}" for k, e in factor.items() if not e <= FACTOR_RTOL]
    if errors:
        p.fail("estimate", "; ".join(errors))


CHECK_LINE = re.compile(r"^\[(pass|FAIL)\] ", re.MULTILINE)


def verify_counts(text: str) -> tuple[int, int]:
    """(check lines, failed check lines) in ``saptkit verify`` output."""
    status = CHECK_LINE.findall(text)
    return len(status), status.count("FAIL")


def check_verify_oracle(p) -> None:
    checks = failed = 0
    for op in list(p.ops):
        name = op["name"].split(" ", 1)[1]
        n, bad = verify_counts(p.seen.get(name, ""))
        checks, failed = checks + n, failed + bad
        if op["ok"] and (n == 0 or bad):
            p.fail(op["name"], f"{bad} of {n} check lines failed")
    p.seen["verify_checks"], p.seen["verify_failed"] = checks, failed


def check_ingest_cache(p) -> None:
    saved, loaded = p.seen.get("saved", {}), p.seen.get("loaded", {})
    for obs in OBSERVABLES:
        if not _op_ok(p, f"reload {obs}"):
            continue
        if obs not in saved or obs not in loaded:
            p.fail(f"reload {obs}", "no saved or reloaded factors to compare")
            continue
        if saved[obs][0] != loaded[obs][0]:
            p.fail(f"reload {obs}", "reloaded factors differ from the saved ones")
        if saved[obs][1] != loaded[obs][1]:
            p.fail(f"tf_norm {obs}", "tf_norm of the reloaded cache differs")
    before, after = p.seen.get("inner_before", 0), p.seen.get("inner_after", 0)
    if not (before and after < before):
        p.fail("factorize", f"truncation kept {after} of {before} inner factors")
