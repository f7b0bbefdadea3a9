"""Self-tests of the benchmark's own code (not part of the package's test suite).

    python3 -m pytest saptbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

from saptkit.archive import load_archive, read_fcidump  # noqa: E402
from saptkit.cli import main as saptkit_main  # noqa: E402
from saptkit.factorize import factorize_coefficients  # noqa: E402
from saptkit.tensors import build_majorana_coefficients  # noqa: E402


# ---------------------------------------------------------------------------
# generator


def test_generator_is_deterministic(tmp_path):
    a = gen.generate("verify-oracle", 5, tmp_path / "a")
    b = gen.generate("verify-oracle", 5, tmp_path / "b")
    c = gen.generate("verify-oracle", 6, tmp_path / "c")
    assert a["sha256"] == b["sha256"]
    for name in a["sha256"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["sha256"] != c["sha256"]
    assert set(gen.WORKLOADS) == set(gen.GENERATORS)


def test_generated_archive_loads_unchanged(tmp_path):
    gen.generate("verify-oracle", 3, tmp_path)
    archive = load_archive(tmp_path / "oracle_3x3.sapt")
    assert archive.v.shape == (3, 3, 3, 3)
    assert np.array_equal(gen.sym4(archive.v), archive.v)


def test_fcidump_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    h1, eri = gen.random_h1(rng, 4), gen.random_eri(rng, 4)
    gen.write_fcidump(tmp_path / "x.fcidump", h1, eri, 4)
    h1_read, eri_read, n_orb, n_elec, core = read_fcidump(tmp_path / "x.fcidump")
    assert (n_orb, n_elec, core) == (4, 4, 0.0)
    assert np.array_equal(h1_read, h1) and np.array_equal(eri_read, eri)


def test_decaying_v_spans_six_decades():
    v = gen.decaying_v(np.random.default_rng(1), 4, 3)
    s = np.linalg.svd(v.reshape(16, 9), compute_uv=False)
    s = s[s > 1e-12 * s[0]]
    assert len(s) == 6 and s[0] / s[-1] == pytest.approx(1e6, rel=1e-6)


# ---------------------------------------------------------------------------
# span arithmetic


def _span(name, layer, start, end, parent=-1, **counters):
    return spans.Span(name, layer, start, end, parent, counters=counters)


def test_self_times_and_op_times_on_a_hand_built_tree():
    tree = [
        _span("main", "cli", 0.0, 10.0),                         # 0
        _span("load_archive", "archive", 0.5, 2.5, 0, mb=3.0),   # 1
        _span("symmetrize_v", "tensors", 1.0, 1.5, 1),           # 2
        _span("factorize_block", "factorize", 3.0, 9.0, 0),      # 3
        _span("first_factorize", "factorize", 3.0, 5.0, 3),      # 4
        _span("second_factorize", "factorize", 5.0, 8.0, 3),     # 5
        _span("first_factorize", "factorize", 8.0, 8.5, 3),      # 6
    ]
    self_s = spans.self_times(tree)
    assert self_s["cli"] == pytest.approx(10.0 - 2.0 - 6.0)
    assert self_s["archive"] == pytest.approx(2.0 - 0.5)
    assert self_s["tensors"] == pytest.approx(0.5)
    assert self_s["factorize"] == pytest.approx(6.0)
    assert sum(self_s.values()) == pytest.approx(10.0)
    assert spans.op_time(tree, ["first_factorize"]) == pytest.approx(2.5)
    assert spans.op_time(tree, ["factorize_block", "first_factorize"]) == pytest.approx(6.0)
    metrics = spans.layer_metrics(tree)
    assert metrics["factorize.outer_s"] == pytest.approx(2.5)
    assert metrics["factorize.inner_s"] == pytest.approx(3.0)
    assert metrics["archive.load_mb"] == 3.0
    assert metrics["fock.apply_s"] == 0.0


def test_clock_pause_is_excluded_and_nests():
    clock = spans.Clock()
    t0 = clock.now()
    with clock.pause():
        sum(range(200_000))
        with clock.pause():
            sum(range(200_000))
    outer = clock.paused
    assert outer > 0.0
    assert clock.now() - t0 < 0.05
    with clock.pause():
        pass
    assert clock.paused - outer < 0.01


def test_tracer_wraps_and_rebinds_binding_sites():
    import saptkit.cli as cli
    import saptkit.factorize as fz
    import saptkit.fock as fock
    import saptkit.verify as verify

    original = fz.factorize_coefficients
    bindings = spans.instrument(spans.Tracer(spans.Clock()))
    try:
        assert cli.factorize_coefficients is fz.factorize_coefficients is not original
        assert verify.factorize_coefficients is fz.factorize_coefficients
        assert fz.factorize_coefficients.__wrapped_layer__ == "factorize"
        assert fock.PairSum.apply_block.__wrapped_layer__ == "fock"
    finally:
        spans.restore(bindings)
    assert cli.factorize_coefficients is fz.factorize_coefficients is original
    assert not hasattr(fock.PairSum.apply_block, "__wrapped_layer__")


def test_no_spans_while_the_clock_is_paused():
    clock = spans.Clock()
    tracer = spans.Tracer(clock)
    double = tracer.wrap("norms", "double", lambda x: 2 * x)
    assert double(2) == 4
    with clock.pause():
        assert double(3) == 6
    assert [s.name for s in tracer.spans] == ["double"]


def test_apply_gflop_formula():
    pairs = [None] * 3
    assert spans.apply_gflop(pairs, 6, 64, 64, True) == pytest.approx(8 * 3 * 6 * 64 * 64 * 128 / 1e9)
    assert spans.apply_gflop(pairs, 6, 64, 64, False) == pytest.approx(2 * 3 * 6 * 64 * 64 * 128 / 1e9)


# ---------------------------------------------------------------------------
# output checks catch corrupted output


@pytest.fixture(scope="module")
def estimate_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("estimate")
    rc = saptkit_main([
        "estimate", "--lambda-a", "232.2", "--lambda-b", "361.8", "--gap-a", "0.0069",
        "--gap-b", "0.1212", "--n-orb-a", "43", "--n-orb-b", "40", "--lambda-v", "65.54",
        "--lambda-p", "6.35", "--lambda-vp", "537.3", "--format", "all", "-o", str(out),
    ])
    assert rc == 0
    return out


def test_estimate_check_accepts_real_output(estimate_dir):
    assert checks.estimate_output_errors(estimate_dir) == []


def test_estimate_check_rejects_corrupted_graph(estimate_dir, tmp_path):
    for f in estimate_dir.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    path = tmp_path / "estimate.VPs.json"
    graph = json.loads(path.read_text())
    graph["root"]["total"] += 1
    path.write_text(json.dumps(graph))
    errors = checks.estimate_output_errors(tmp_path)
    assert any("leaf total" in e for e in errors)


def test_estimate_check_rejects_missing_row_and_bad_budget(estimate_dir, tmp_path):
    for f in estimate_dir.iterdir():
        (tmp_path / f.name).write_bytes(f.read_bytes())
    tsv = tmp_path / "estimate.summary.tsv"
    tsv.write_text("\n".join(tsv.read_text().splitlines()[:-1]) + "\n")
    path = tmp_path / "estimate.P.json"
    graph = json.loads(path.read_text())
    graph["meta"]["eps_F"] *= 1.001
    path.write_text(json.dumps(graph))
    errors = checks.estimate_output_errors(tmp_path)
    assert any("rows" in e for e in errors) and any("budget" in e for e in errors)


def test_verify_counts_flag_failed_lines():
    good = "[pass] a\n[pass] b  (diff=1e-16)\nall checks passed\n"
    bad = good + "[FAIL] c\n"
    assert checks.verify_counts(good) == (2, 0)
    assert checks.verify_counts(bad) == (3, 1)


def test_factor_probe_and_digest_catch_corrupted_factors():
    rng = np.random.default_rng(4)
    v = gen.sym4(rng.normal(size=(3, 3, 2, 2)))
    s = gen.random_overlap(rng, 3, 2)
    coeffs = build_majorana_coefficients(v, s)["VPs"]
    fop = factorize_coefficients(coeffs)
    assert checks.factor_probe_error(coeffs, fop, np.random.default_rng(0)) < 1e-12
    digest = checks.fop_digest(fop)
    vals = fop.blocks["1l"].inner_left[0].values
    vals[0] = np.nextafter(vals[0], np.inf)
    assert checks.fop_digest(fop) != digest
    vals[0] *= 1.0 + 1e-6
    assert checks.factor_probe_error(coeffs, fop, np.random.default_rng(0)) > 1e-10
