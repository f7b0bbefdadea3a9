"""saptkit benchmark: closed loop, one client, fresh process per pass.

    python3 saptbench/run.py --workload estimate-heme --seed 1 --seconds 30 --trace 0
    python3 saptbench/run.py --all --seed 1

Run from the repository root.  Each run generates its inputs from the seed in
a separate process (gen.py), times ``import saptkit.cli`` in several fresh
processes (``setup_s``, rescaled by the speed probe like ``wall_norm_s``),
then issues passes of the workload, each in a fresh measured process
(worker.py), while another pass still fits in ``--seconds`` (at least one).  End-to-end metrics are medians over the passes.  With
``--trace 1`` the run makes one untraced and one traced pass and reports the
per-layer metrics of the traced one plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything the run
writes stays under ``.saptbench/`` in the repository root: the work
directory is removed at the end, the per-run report (environment, input
hashes, every pass, spans of traced passes) is kept in ``.saptbench/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("estimate-heme", "verify-oracle", "ingest-cache")
SETUP_PROBES = 9
BLAS_THREADS = "1"
DEADLINE_S = 170.0  # every run ends well inside the 180 s a run may take
END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; every one is reported on every workload (0 where unused)
PER_LAYER = {
    "archive.load_s": "s",
    "archive.load_mb": "MB",
    "archive.save_s": "s",
    "archive.save_mb": "MB",
    "archive.fcidump_s": "s",
    "archive.arrays": "count",
    "tensors.build_s": "s",
    "active.renormalize_s": "s",
    "factorize.outer_s": "s",
    "factorize.inner_s": "s",
    "factorize.truncate_s": "s",
    "factorize.matrices": "count",
    "factorize.kept_ratio": "ratio",
    "factorize.kept_base": "count",
    "factorize.peak_mb": "MB",
    "norms.tf_s": "s",
    "norms.df_s": "s",
    "costing.budget_s": "s",
    "costing.estimate_s": "s",
    "costing.emit_s": "s",
    "costing.nodes": "count",
    "fock.assemble_s": "s",
    "fock.apply_s": "s",
    "fock.pairs": "count",
    "fock.apply_gflop": "Gflop",
    "fock.peak_mb": "MB",
    "verify.checks": "count",
    "verify.failed": "count",
    **{f"{layer}.self_s": "s" for layer in (
        "archive", "tensors", "active", "factorize", "norms", "costing", "fock", "verify", "cli"
    )},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Deadline(Exception):
    pass


def child_env(work: Path) -> dict:
    """Environment of every child: the source tree, a fixed BLAS thread count, temp files in ``work``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["TMPDIR"] = str(work)
    return env


def run_child(args: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 1.0:
        raise Deadline(" ".join(args[:3]))
    try:
        return subprocess.run(
            [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise Deadline(" ".join(args[:3])) from exc


def source_digest() -> str:
    """sha256 over the package sources, the code identity when no git metadata is present."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of a ``.git`` directory in the repository root, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure_setup(env: dict, deadline: float) -> list[dict]:
    """Import time of fresh processes, each with the slowdown measured right after."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = run_child([str(HERE / "worker.py"), "--setup"], env, deadline)
        if proc.returncode == 0:
            out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(workload: str, inputs: Path, work: Path, env: dict, deadline: float,
             traced: bool, pass_id: int) -> dict:
    pass_dir = work / f"pass{pass_id}"
    pass_dir.mkdir()
    out = pass_dir / "result.json"
    cmd = [str(HERE / "worker.py"), "--workload", workload, "--inputs", str(inputs),
           "--work", str(pass_dir), "--out", str(out), "--pass-id", str(pass_id)]
    try:
        proc = run_child(cmd + (["--trace"] if traced else []), env, deadline)
        if proc.returncode == 0 and out.exists():
            return json.loads(out.read_text())
        detail = (proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"])[-1]
    except Deadline:
        detail = "pass did not finish before the run deadline"
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    return {"workload": workload, "pass_id": pass_id, "ops": [{"name": "pass", "ok": False, "detail": detail}]}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    work = ROOT / ".saptbench" / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(work)
    report = {"workload": workload, "seed": seed, "inputs": {}, "setup": [], "passes": []}
    passes = report["passes"]
    try:
        inputs = work / "inputs"
        proc = run_child([str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                          "--out", str(inputs)], env, deadline)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed: {proc.stderr.strip()[-300:]}")
        report["inputs"] = json.loads((inputs / "inputs.json").read_text())
        report["setup"] = measure_setup(env, deadline)
        if traced:
            passes.append(run_pass(workload, inputs, work, env, deadline, False, 0))
            passes.append(run_pass(workload, inputs, work, env, deadline, True, 1))
        else:
            start = time.monotonic()
            while True:
                passes.append(run_pass(workload, inputs, work, env, deadline, False, len(passes)))
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(passes) > seconds or "wall_s" not in passes[-1]:
                    break
    except (Deadline, RuntimeError) as exc:
        passes.append({"ops": [{"name": "run", "ok": False, "detail": str(exc)}]})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report


def summarize(report: dict, traced: bool) -> dict:
    """The contract's result object from a run report."""
    passes = report["passes"]
    ops = [op for p in passes for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops)
    timed = [p for p in passes if "wall_s" in p]
    attempted = max(len(ops), 1)
    metrics = {}
    if traced:
        plain = [p for p in timed if "layers" not in p]
        traced_passes = [p for p in timed if "layers" in p]
        if traced_passes and plain:
            layers = dict(traced_passes[0]["layers"])
            layers["verify.checks"] = traced_passes[0]["counts"].get("verify_checks", 0)
            layers["verify.failed"] = traced_passes[0]["counts"].get("verify_failed", 0)
            layers["trace.overhead_s"] = traced_passes[0]["wall_s"] - plain[0]["wall_s"]
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    elif timed and report["setup"]:
        values = {
            "wall_norm_s": statistics.median(p["wall_norm_s"] for p in timed),
            "setup_s": statistics.median(p["import_s"] / p["slowdown"] for p in report["setup"]),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in timed),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    correct = failed == 0 and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def save_report(report: dict, result: dict, traced: bool) -> Path:
    results = ROOT / ".saptbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{report['workload']}-seed{report['seed']}-trace{int(traced)}.json"
    path.write_text(json.dumps({**report, "result": result}, indent=1) + "\n")
    return path


def describe(report: dict, result: dict, path: Path) -> list[str]:
    env = next((p["env"] for p in report["passes"] if "env" in p), {})
    lines = [
        f"workload {report['workload']}: {report['inputs'].get('why', '')}",
        f"  seed {report['seed']}  commit {report['commit']}  src sha256 {report['src_sha256'][:16]}",
        "  env " + " ".join(f"{k}={v}" for k, v in env.items()),
        "  inputs " + " ".join(f"{n}={h[:16]}" for n, h in report["inputs"].get("sha256", {}).items()),
        f"  passes {len(report['passes'])}  setup probes {len(report['setup'])}  report {path.relative_to(ROOT)}",
    ]
    if report["setup"]:
        lines.append(
            f"  import_s {statistics.median(p['import_s'] for p in report['setup']):.4f} s raw,"
            f" slowdown {statistics.median(p['slowdown'] for p in report['setup']):.4f}"
        )
    for op in (op for p in report["passes"] for op in p["ops"] if not op["ok"]):
        lines.append(f"  FAILED {op['name']}: {op['detail']}")
    ratio = result["failed"] / result["attempted"]
    lines.append(f"  fail_ratio {ratio:.4g} ({result['failed']}/{result['attempted']} operations)")
    for p in report["passes"]:
        if "wall_s" in p:
            lines.append(
                f"  pass {p['pass_id']}: wall_s {p['wall_s']:.4f} s  slowdown {p['slowdown']:.4f}"
                f" ({p['speed_samples']} probes)  wall_norm_s {p['wall_norm_s']:.4f} s"
                f"  peak_rss_mb {p['peak_rss_mb']:.1f} MB"
            )
    for name, m in result["metrics"].items():
        lines.append(f"  {name:24s} {m['value']:14.6g} {m['unit']}")
    return lines


def bench(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    report = run_workload(workload, seed, seconds, traced, deadline)
    report["commit"], report["src_sha256"] = git_commit(), source_digest()
    result = summarize(report, traced)
    path = save_report(report, result, traced)
    print("\n".join(describe(report, result, path)), flush=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true", help="run every workload, one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "saptkit" / "__init__.py").is_file():
        print("saptbench: run from the repository root (src/saptkit not found)", file=sys.stderr)
        return 2
    if args.all:
        results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in WORKLOADS}
        print(json.dumps(results))
        return 0
    print(json.dumps(bench(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
