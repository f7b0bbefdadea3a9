"""Command-line surface: factorize, norms, budget, estimate, supermolecular,
verify, convert-fcidump.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 data error or
a path that cannot be read or written, 4 internal error (any other exception,
reported on one line).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import archive as ar
from .active import active_order, coefficient_sets as _coefficient_sets
from .costing import (
    CalibrationConstants,
    SystemParams,
    budget_errors,
    check_budget,
    emit_callgraph,
    estimate_observable,
    estimate_supermolecular,
    summary_tsv,
)
from .errors import DomainError, SaptError
from .factorize import check_threshold, factorize_coefficients, shared_blocks
from .norms import (
    EXCLUDED_BLOCKS,
    df_hamiltonian_norm,
    factorize_monomer_hamiltonian,
    format_table,
    sparse_norms,
    tf_norm,
)

OBSERVABLES = ("V", "P", "VPs")


def _monomer_values(archive: ar.TensorArchive, lambdas: str) -> dict:
    """The monomer values `estimate` reads, the DF norm only of the monomers in ``lambdas``."""
    values = {}
    for m in "AB":
        h1, eri = (archive.arrays.get(f"{name}_{m}") for name in ("h1", "eri"))
        if m in lambdas and h1 is not None and eri is not None:
            values[f"lambda_{m}"] = df_hamiltonian_norm(*factorize_monomer_hamiltonian(h1, eri))
        values[f"delta_{m}"] = archive.scalar(f"gap_{m}", 0.0) or None
        values[f"overlap_{m}"] = archive.scalar(f"overlap_{m}", 1.0)
        values[f"n_orb_{m}"] = getattr(archive.basis, f"n_orb_{m}")
    return values


def _read_archive(path, observables, lambdas: str | None = None):
    """Load the archive once and return what a command reads of it: the basis,
    unless ``lambdas`` is None the monomer values (:func:`_monomer_values`),
    and the coefficient sets of ``observables``.  The payload is freed before
    the sets are built: every archive's ``v`` (projected on load) and ``S`` are
    gathered into arrays of their own in the active-then-core order of its
    partition (:func:`active_order`; with no core lists, every orbital
    active), and the one builder reads them as given, so it holds one ``v``.
    The sets are tagged ``active`` when the archive carries core lists, even
    empty ones, and ``full`` otherwise."""
    archive = ar.load_archive(path)
    basis = archive.basis
    values = {} if lambdas is None else _monomer_values(archive, lambdas)
    if not observables:
        return basis, values, {}
    tag = "active" if any(f"partition_{m}_core" in archive.arrays for m in "AB") else "full"
    v, S, part = active_order(archive.v, archive.S, archive.partition())
    del archive
    sets = _coefficient_sets(v, S, part, tag)
    return basis, values, {name: sets[name] for name in observables}


def _operators(coeffs: dict, truncation: float, consume: bool = False):
    """Yield the factorized operator of each coefficient set, in order, one at
    a time; a block two sets hold alike is factorized once.  ``consume`` hands
    the sets over: each block is freed once it is factorized."""
    shared = shared_blocks(list(coeffs.values()), truncation)
    for c in coeffs.values():
        yield factorize_coefficients(c, truncation, blocks=shared, consume=consume)


def _check_output_dir(path) -> None:
    """Refuse an output file path that is a directory, or whose directory does
    not exist, before any work."""
    path = Path(path)
    if path.is_dir():
        raise OSError(f"output path {path} is a directory")
    if not path.parent.is_dir():
        raise OSError(f"no output directory {path.parent}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_factorize(args) -> int:
    check_threshold(args.truncation)  # before the archive is read
    out_prefix = Path(args.output or Path(args.archive).with_suffix(""))
    paths = {name: Path(f"{out_prefix}.{name}.factors") for name in args.observables}
    for path in paths.values():
        _check_output_dir(path)
    basis, _, coeffs = _read_archive(args.archive, args.observables)
    for fop in _operators(coeffs, args.truncation, consume=True):
        path = paths[fop.observable]
        ar.save_factor_cache(path, fop, basis)
        print(f"wrote {path}")
    return 0


def cmd_norms(args) -> int:
    check_threshold(args.truncation)  # before the archive is read
    if args.json:
        _check_output_dir(args.json)
    _, _, coeffs = _read_archive(args.archive, args.observables)
    tf = args.representation in ("tf", "both")
    # each set's sparse norms are taken before it is factorized: it can be handed over
    fops = _operators(coeffs, args.truncation, consume=True) if tf else None
    reports = []
    for c in coeffs.values():
        if args.representation in ("sparse", "both"):
            reports.append(sparse_norms(c))
        if tf:
            reports.append(tf_norm(next(fops)))
    print(format_table(reports))
    if args.json:
        Path(args.json).write_text(
            json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    return 0


def _norm_inputs(args, lambdas: str | None = None):
    """(lambda_F of the --lambda-v/-p/-vp flags, the archive's monomer values
    as :func:`_read_archive` reads them for ``lambdas``, the archive's
    coefficient sets of the observables no flag gives).  The flags, the target
    and the truncation are checked before the archive is read."""
    flags = zip(OBSERVABLES, (args.lambda_v, args.lambda_p, args.lambda_vp))
    lam = {key: val for key, val in flags if val is not None}
    check_budget(args.eps_targ, *lam.values())
    check_threshold(args.truncation)
    todo = [key for key in OBSERVABLES if key not in lam]
    if args.archive:
        _, values, coeffs = _read_archive(args.archive, todo, lambdas)
        return lam, values, coeffs
    if todo:
        raise DomainError(f"{args.command} needs observable norms for {', '.join(todo)}")
    return lam, {}, {}


def _total_norms(coeffs: dict, truncation: float) -> dict[str, float]:
    """lambda_F of each set; the blocks its total leaves out are deleted unfactorized."""
    skip = {k for labels in EXCLUDED_BLOCKS.values() for k in labels}
    for c in coeffs.values():
        for label in skip & c.two_body_blocks.keys():
            del c.two_body_blocks[label]
    lam = {}
    for fop in _operators(coeffs, truncation):
        lam[fop.observable] = tf_norm(fop).total
        del fop  # hold one operator at a time
    return lam


def cmd_budget(args) -> int:
    lam, _, coeffs = _norm_inputs(args)
    lam |= _total_norms(coeffs, args.truncation)
    budget = budget_errors(lam["V"], lam["P"], lam["VPs"], args.eps_targ)
    out = {key: getattr(budget, key) for key in ("eps_V", "eps_VP", "eps_P", "eps_targ")}
    out["constraint_residual"] = budget.constraint_residual()
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


# valid monomer values for the flags to override, so that they are checked alone
_PLACEHOLDERS = dict.fromkeys(("lambda_A", "lambda_B", "delta_A", "delta_B"), 1.0)
_PLACEHOLDERS |= dict.fromkeys(("n_orb_A", "n_orb_B"), 1)


def _system_params(args, values: dict) -> SystemParams:
    """The archive's monomer values with the flags that override them."""
    overrides = {
        "lambda_A": args.lambda_a,
        "lambda_B": args.lambda_b,
        "delta_A": args.gap_a,
        "delta_B": args.gap_b,
        "overlap_A": args.overlap_a,
        "overlap_B": args.overlap_b,
        "n_orb_A": args.n_orb_a,
        "n_orb_B": args.n_orb_b,
    }
    vals = values | {key: val for key, val in overrides.items() if val is not None}
    missing = [k for k in _PLACEHOLDERS if vals.get(k) is None]
    if missing:
        raise DomainError(f"estimate needs {', '.join(missing)} (flags or archive data)")
    return SystemParams(**vals)


def _calibration(path: str | None) -> CalibrationConstants:
    """Default constants with the overrides of a JSON object file."""
    if not path:
        return CalibrationConstants()
    try:
        return CalibrationConstants(**json.loads(Path(path).read_text()))
    except (OSError, ValueError, TypeError) as exc:  # unreadable, not JSON, not an object, bad key
        raise DomainError(f"calibration file {path}: {exc}") from None


def cmd_estimate(args) -> int:
    calib = _calibration(args.calibration)
    _system_params(args, _PLACEHOLDERS)  # the monomer flags, before the archive is read
    out_dir = Path(args.output) if args.output else None
    if out_dir:  # before the archive is read: a path that cannot be a directory fails at once
        out_dir.mkdir(parents=True, exist_ok=True)
    flags = zip("AB", (args.lambda_a, args.lambda_b))
    lam, values, coeffs = _norm_inputs(args, "".join(m for m, val in flags if val is None))
    params = _system_params(args, values)
    lam |= _total_norms(coeffs, args.truncation)
    budget = budget_errors(lam["V"], lam["P"], lam["VPs"], args.eps_targ)
    graphs = {}
    for name in args.observables:
        graphs[name] = estimate_observable(
            name, lam[name], params, budget.for_observable(name), calib
        )

    for name, graph in graphs.items():
        for fmt in ("json", "dot"):
            if args.format in (fmt, "all"):
                text = emit_callgraph(graph, fmt)
                if out_dir:
                    (out_dir / f"estimate.{name}.{fmt}").write_text(text + "\n")
                else:
                    print(text)
        print(f"{name}: total_toffolis={graph.root.total} qubits={graph.root.qubits}")
    if args.format in ("tsv", "all"):
        text = summary_tsv(graphs)
        if out_dir:
            (out_dir / "estimate.summary.tsv").write_text(text + "\n")
        else:
            print(text)
    return 0


def cmd_supermolecular(args) -> int:
    calib = _calibration(args.calibration)
    graph = estimate_supermolecular(
        args.lambda_ab, args.lambda_a, args.lambda_b, args.eps_targ, tuple(args.n_orbs), calib
    )
    print(json.dumps(graph.meta["eps_split"], indent=2, sort_keys=True))
    for _, child in graph.root.children:
        print(f"{child.name}: total_toffolis={child.total} qubits={child.qubits}")
    print(f"combined: total_toffolis={graph.root.total} qubits={graph.root.qubits}")
    if args.output:
        Path(args.output).write_text(emit_callgraph(graph, "json") + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verification

    archive = ar.load_archive(args.archive) if args.archive else ar.demo_archive()
    return 0 if run_verification(archive) else 1


def cmd_convert_fcidump(args) -> int:
    if Path(args.archive).exists() and not args.new:
        archive = ar.merge_fcidump(ar.load_archive(args.archive), args.fcidump, args.monomer)
    elif args.n_orb_other is None:
        print("error: a new archive needs --n-orb-other", file=sys.stderr)
        return 2
    else:
        h1, eri, n_orb, n_elec, _ = ar.read_fcidump(args.fcidump)
        if args.monomer == "A":
            basis = ar.DimerBasis(n_orb, args.n_orb_other, n_elec, 0)
        else:
            basis = ar.DimerBasis(args.n_orb_other, n_orb, 0, n_elec)
        arrays = {f"h1_{args.monomer}": h1, f"eri_{args.monomer}": eri}
        archive = ar.TensorArchive(basis=basis, arrays=arrays)
    ar.save_archive(args.archive, archive)
    print(f"wrote {args.archive}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_estimate_params(p):
    p.add_argument("--lambda-a", type=float, help="monomer A Hamiltonian norm (Hartree)")
    p.add_argument("--lambda-b", type=float, help="monomer B Hamiltonian norm (Hartree)")
    p.add_argument("--gap-a", type=float, help="monomer A spectral gap (Hartree)")
    p.add_argument("--gap-b", type=float, help="monomer B spectral gap (Hartree)")
    p.add_argument("--overlap-a", type=float, help="initial-state overlap squared, monomer A")
    p.add_argument("--overlap-b", type=float, help="initial-state overlap squared, monomer B")
    p.add_argument("--n-orb-a", type=int, help="spatial orbitals of monomer A")
    p.add_argument("--n-orb-b", type=int, help="spatial orbitals of monomer B")
    p.add_argument("--lambda-v", type=float, help="electrostatic observable norm")
    p.add_argument("--lambda-p", type=float, help="exchange observable norm")
    p.add_argument("--lambda-vp", type=float, help="product observable norm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saptkit",
        description="First-order interaction observables and quantum resource estimates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="cache nested factorizations of all observables")
    p.add_argument("archive")
    p.add_argument("-o", "--output", help="output path prefix")
    p.add_argument("--truncation", type=float, default=0.0)
    p.add_argument("--observables", nargs="+", default=list(OBSERVABLES), choices=OBSERVABLES)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("norms", help="sparse and factorized block-encoding norms")
    p.add_argument("archive")
    p.add_argument("--representation", choices=("sparse", "tf", "both"), default="both")
    p.add_argument("--observables", nargs="+", default=list(OBSERVABLES), choices=OBSERVABLES)
    p.add_argument("--truncation", type=float, default=0.0)
    p.add_argument("--json", help="also write reports to this JSON file")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("budget", help="precision allocation across the three observables")
    p.add_argument("--archive")
    p.add_argument("--lambda-v", type=float)
    p.add_argument("--lambda-p", type=float)
    p.add_argument("--lambda-vp", type=float)
    p.add_argument("--eps-targ", type=float, default=0.0016)
    p.add_argument("--truncation", type=float, default=0.0)
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("estimate", help="Toffoli/qubit call graphs for the estimation runs")
    p.add_argument("--archive")
    p.add_argument("--eps-targ", type=float, default=0.0016)
    p.add_argument("--truncation", type=float, default=0.0)
    p.add_argument("--observables", nargs="+", default=list(OBSERVABLES), choices=OBSERVABLES)
    p.add_argument("--format", choices=("json", "dot", "tsv", "all"), default="tsv")
    p.add_argument("-o", "--output", help="output directory")
    p.add_argument("--calibration", help="JSON file with calibration-constant overrides")
    _add_estimate_params(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("supermolecular", help="three-run total-energy baseline costs")
    p.add_argument("--lambda-ab", type=float, required=True)
    p.add_argument("--lambda-a", type=float, required=True)
    p.add_argument("--lambda-b", type=float, required=True)
    p.add_argument("--eps-targ", type=float, default=0.0016)
    p.add_argument("--n-orbs", type=int, nargs=3, metavar=("NAB", "NA", "NB"), required=True)
    p.add_argument("--calibration")
    p.add_argument("-o", "--output", help="write the call graph JSON here")
    p.set_defaults(func=cmd_supermolecular)

    p = sub.add_parser("verify", help="run the Fock-space oracle suite")
    p.add_argument("archive", nargs="?", help="optional small archive (built-in otherwise)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("convert-fcidump", help="attach a monomer Hamiltonian from FCIDUMP")
    p.add_argument("fcidump")
    p.add_argument("archive", help="archive to create or extend")
    p.add_argument("--monomer", choices=("A", "B"), required=True)
    p.add_argument("--new", action="store_true", help="start a fresh archive")
    p.add_argument("--n-orb-other", type=int, help="orbitals of the other monomer (new archive)")
    p.set_defaults(func=cmd_convert_fcidump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SaptError, OSError) as exc:  # bad input, or a path it cannot read or write
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault of saptkit itself, not of its input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"error: internal: {message}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
