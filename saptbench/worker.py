"""The measured process: one pass of one workload in a fresh interpreter.

    python3 saptbench/worker.py --setup
    python3 saptbench/worker.py --workload W --inputs DIR --work DIR --out result.json [--trace]

With ``--setup`` it only times ``import saptkit.cli`` and prints the seconds
with the speed probe's slowdown taken right after.
Otherwise it times the pass from the first call into saptkit to the last
return, records peak RSS, runs the workload's output checks outside the timed
region and writes a JSON result.  ``--trace`` also records spans (see
spans.py).  The parent (run.py) sets the BLAS thread count in the environment.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import saptkit.cli  # noqa: E402

SETUP_S = time.perf_counter() - _T_IMPORT

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import spans  # noqa: E402

TRUNCATION = "1e-4"


def _malloc_trim():
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):  # not glibc
        return lambda pad: 0


class Pass:
    """State of one pass: the clock, the operations issued and what probes saw.

    Each operation stands for its own CLI invocation.  Before the next one,
    with the clock paused, the heap the finished one freed is returned to the
    OS (``malloc_trim``), as a process exit would; otherwise glibc keeps it and
    the peak RSS of later operations depends on the allocation history
    (ingest-cache read 820 or 1020 MB depending on the seed).
    """

    def __init__(self, clock: spans.Clock):
        self.clock = clock
        self.ops: list[dict] = []
        self.seen: dict = {}
        self._trim = _malloc_trim()

    def _begin(self, name: str) -> dict:
        if self.ops:
            with self.clock.pause():
                self._trim(0)
        op = {"name": name, "ok": False, "detail": ""}
        self.ops.append(op)
        return op

    def cli(self, name: str, argv: list[str]) -> str:
        """Run one CLI command in-process; returns its captured output."""
        out = io.StringIO()
        op = self._begin(name)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = saptkit.cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed operation
            op["detail"] = f"{type(exc).__name__}: {exc}"
            return out.getvalue()
        op["ok"] = rc == 0
        if rc != 0:
            op["detail"] = f"exit code {rc}"
        return out.getvalue()

    def call(self, name: str, fn, *args):
        op = self._begin(name)
        try:
            result = fn(*args)
        except Exception as exc:
            op["detail"] = f"{type(exc).__name__}: {exc}"
            return None
        op["ok"] = True
        return result

    def fail(self, op_name: str, detail: str) -> None:
        """Mark an operation failed by an output check."""
        for op in self.ops:
            if op["name"] == op_name and op["ok"]:
                op["ok"], op["detail"] = False, detail
                return

    def probe(self, module, name: str, post) -> None:
        """Rebind ``module.name`` so ``post(args, result)`` runs on each return, clock paused."""
        inner = getattr(module, name)
        clock = self.clock

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            with clock.pause():
                post(args, result)
            return result

        setattr(module, name, wrapper)


# ---------------------------------------------------------------------------
# workloads: each returns nothing; operations and probe results land in ``p``


def run_estimate_heme(p: Pass, inputs: Path, work: Path) -> None:
    import saptkit.cli as cli

    errors = p.seen.setdefault("factor_errors", {})

    def check_factors(args, fop):
        rng = np.random.default_rng(len(errors))
        errors[fop.observable] = checks.factor_probe_error(args[0], fop, rng)

    p.probe(cli, "factorize_coefficients", check_factors)
    out_dir = work / "estimate"
    p.seen["stdout"] = p.cli(
        "estimate",
        ["estimate", "--archive", str(inputs / "heme.sapt"), "--format", "all", "-o", str(out_dir)],
    )
    p.seen["out_dir"] = out_dir


def run_verify_oracle(p: Pass, inputs: Path, work: Path) -> None:
    for name in ("oracle_3x3.sapt", "oracle_4x1.sapt"):
        p.seen[name] = p.cli(f"verify {name}", ["verify", str(inputs / name)])


def run_ingest_cache(p: Pass, inputs: Path, work: Path) -> None:
    import saptkit.archive as ar
    import saptkit.cli as cli
    import saptkit.factorize as fz
    import saptkit.norms as norms

    saved, kept = {}, [0, 0]

    def remember(args, fop):
        saved[fop.observable] = (checks.fop_digest(fop), checks.norm_record(norms.tf_norm(fop)))

    def count_kept(args, bf):
        kept[0] += spans.inner_factors(args[0])
        kept[1] += spans.inner_factors(bf)

    p.probe(cli, "factorize_coefficients", remember)
    p.probe(fz, "truncate_block", count_kept)
    archive = work / "ingest.sapt"
    for which in ("A", "B"):
        fcidump = str(inputs / f"{which}.fcidump")
        p.cli(f"convert-fcidump {which}", ["convert-fcidump", fcidump, str(archive), "--monomer", which])
    p.cli("factorize", ["factorize", str(archive), "--truncation", TRUNCATION, "-o", str(work / "cache")])
    loaded = {}
    for obs in ("V", "P", "VPs"):
        path = work / f"cache.{obs}.factors"
        fop = p.call(f"reload {obs}", lambda: ar.load_factor_cache(path))
        report = p.call(f"tf_norm {obs}", lambda: norms.tf_norm(fop)) if fop is not None else None
        if report is not None:
            with p.clock.pause():
                loaded[obs] = (checks.fop_digest(fop), checks.norm_record(report))
        del fop
    p.seen.update(saved=saved, loaded=loaded, inner_before=kept[0], inner_after=kept[1])


WORKLOADS = {
    "estimate-heme": (run_estimate_heme, checks.check_estimate_heme),
    "verify-oracle": (run_verify_oracle, checks.check_verify_oracle),
    "ingest-cache": (run_ingest_cache, checks.check_ingest_cache),
}


def prepare(workload: str, inputs: Path, work: Path) -> None:
    """Per-pass inputs that the pass modifies are copied before the clock starts."""
    if workload == "ingest-cache":
        shutil.copyfile(inputs / "ingest.sapt", work / "ingest.sapt")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without the dict form
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "saptkit": getattr(saptkit, "__version__", "?"),
    }


def run_pass(workload: str, inputs: Path, work: Path, traced: bool, pass_id: int) -> dict:
    run, check = WORKLOADS[workload]
    prepare(workload, inputs, work)
    clock = spans.Clock()
    p = Pass(clock)
    tracer = spans.Tracer(clock, pass_id) if traced else None
    if tracer is not None:
        spans.instrument(tracer)
    with spans.SpeedProbe(clock) as speed:
        t0 = clock.now()
        run(p, inputs, work)
        wall = clock.now() - t0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    check(p)
    result = {
        "workload": workload,
        "pass_id": pass_id,
        "wall_s": wall,
        "slowdown": speed.slowdown,
        "speed_samples": len(speed.samples),
        "speed": [[round(a, 7), round(b, 7)] for a, b in speed.samples],
        "wall_norm_s": wall / speed.slowdown,
        "import_s": SETUP_S,
        "peak_rss_mb": peak,
        "paused_s": clock.paused,
        "ops": p.ops,
        "counts": {k: v for k, v in p.seen.items() if isinstance(v, (int, float))},
        "env": environment(),
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        result["spans"] = spans.spans_to_json(tracer.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one measured pass of a saptkit benchmark workload")
    parser.add_argument("--setup", action="store_true", help="only report the import time")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    if args.setup:
        probe = spans.SpeedProbe(spans.Clock())
        probe.kernel()  # first call pays lazy set-up
        kernel_s = statistics.median(sum(probe.kernel()) for _ in range(5))
        print(json.dumps({"import_s": SETUP_S, "slowdown": kernel_s / probe.REF_S}))
        return 0
    if None in (args.workload, args.inputs, args.work, args.out):
        parser.error("--workload, --inputs, --work and --out are required")
    result = run_pass(args.workload, args.inputs, args.work, args.trace, args.pass_id)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
