import hashlib
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import saptkit.cli as cli
import saptkit.factorize as fz
import saptkit.fock as fock
from saptkit.active import renormalize_electrostatic, renormalize_exchange, renormalize_vp
from saptkit.archive import (
    DimerBasis,
    TensorArchive,
    demo_archive,
    load_archive,
    load_factor_cache,
    save_archive,
)
from saptkit.cli import main
from saptkit.costing import budget_errors
from saptkit.factorize import factorize_coefficients
from saptkit.norms import df_hamiltonian_norm, factorize_monomer_hamiltonian, tf_norm
from saptkit.tensors import build_majorana_coefficients

from .conftest import random_dimer
from .test_active import arrays
from .test_archive import assert_same_operator

FCIDUMP_TEXT = """&FCI NORB=2,NELEC=2,MS2=0,
&END
  0.5E+00   1   1   1   1
 -0.9E+00   1   1   0   0
"""


def rewrite_manifest(path, edit):
    """Apply ``edit`` to the JSON manifest of a saved archive, payload untouched."""
    raw = path.read_bytes()
    n = int.from_bytes(raw[8:16], "little")
    manifest = json.loads(raw[16 : 16 + n])
    edit(manifest)
    blob = json.dumps(manifest).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob + raw[16 + n :])


@pytest.fixture
def archive_path(tmp_path):
    path = tmp_path / "dimer.sapt"
    save_archive(path, demo_archive())
    return path


class TestVerify:
    def test_builtin_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_archive_passes(self, archive_path):
        assert main(["verify", str(archive_path)]) == 0

    @pytest.mark.parametrize(
        "n_a, n_b", [(7, 1), (5, 4), (6, 1), (3, 5), (5, 3), (1, 6), (4, 5)]
    )
    def test_oversized_archive_falls_back(self, tmp_path, monkeypatch, capsys, n_a, n_b):
        built = []
        spin_tables = fock._spin_tables
        monkeypatch.setattr(fock, "_spin_tables", lambda n: built.append(n) or spin_tables(n))
        path = tmp_path / "wide.sapt"
        save_archive(path, demo_archive(n_a, n_b))
        assert main(["verify", str(path)]) == 0
        assert "using the built-in dimer" in capsys.readouterr().out
        assert built and max(n_a, n_b) not in built  # refused before its larger table

    @pytest.mark.parametrize("n_a, n_b, refused", [(5, 3, True), (3, 2, False)])
    def test_every_check_reads_the_admitted_dimer(
        self, tmp_path, monkeypatch, capsys, n_a, n_b, refused
    ):
        # the round trip factorizes the sets the oracle checks built, once per verify
        import saptkit.verify as verify

        built, factorized = [], []
        build, factorize = verify.build_majorana_coefficients, verify.factorize_coefficients
        monkeypatch.setattr(
            verify, "build_majorana_coefficients", lambda v, s: built.append(v.shape) or build(v, s)
        )
        monkeypatch.setattr(
            verify, "factorize_coefficients",
            lambda c, *args: factorized.append(c.one_body_A.shape) or factorize(c, *args),
        )
        path = tmp_path / "dimer.sapt"
        save_archive(path, demo_archive(n_a, n_b))
        assert main(["verify", str(path)]) == 0
        assert ("archive refused" in capsys.readouterr().out) == refused
        n_a, n_b = (2, 2) if refused else (n_a, n_b)  # the built-in dimer is 2x2
        assert built == [(n_a, n_a, n_b, n_b)]
        assert factorized == [(n_a, n_a)] * 3

    # 1x4 and 4x2 are admitted at the default budget; one byte under the model, each falls
    # back with the exact message, while the built-in and embedding dimers stay under it
    @pytest.mark.parametrize("n_a, n_b", [(1, 4), (4, 2)], ids=["1x4", "4x2"])
    def test_over_model_budget_falls_back(self, tmp_path, monkeypatch, capsys, n_a, n_b):
        budget = fock.oracle_bytes(n_a, n_b) - 1
        monkeypatch.setattr(fock, "ORACLE_BUDGET", budget)
        path = tmp_path / "wide.sapt"
        save_archive(path, demo_archive(n_a, n_b))
        assert main(["verify", str(path)]) == 0
        need = fock.oracle_bytes(n_a, n_b) / 2**30
        line = capsys.readouterr().out.splitlines()[0]
        assert line == (
            f"archive refused: the oracle on {n_a}x{n_b} orbitals needs up to {need:.2f} GiB, "
            f"over its {budget / 2**30:g} GiB budget; using the built-in dimer"
        )


class TestNorms:
    def test_both_representations(self, archive_path, capsys):
        assert main(["norms", str(archive_path), "--representation", "both"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        # header + rule + two rows per observable
        assert len(lines) == 2 + 6

    def test_json_output(self, archive_path, tmp_path, capsys):
        out = tmp_path / "norms.json"
        assert main(["norms", str(archive_path), "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert {d["observable"] for d in data} == {"V", "P", "VPs"}

    @pytest.mark.parametrize("truncation", ["0", "1e-4"])
    def test_sets_handed_over_with_the_same_json(self, tmp_path, monkeypatch, capsys, truncation):
        # each set's sparse norms are taken before it is factorized and handed over
        path = tmp_path / "full.sapt"
        save_archive(path, decaying_archive())
        sets, outputs = [], []
        read, operators = cli._read_archive, cli._operators
        monkeypatch.setattr(cli, "_read_archive", lambda *a: sets.append(read(*a)) or sets[-1])
        for run in ("handed", "kept"):
            out = tmp_path / f"{run}.json"
            argv = ["norms", str(path), "--representation", "both", "--json", str(out)]
            assert main(argv + ["--truncation", truncation]) == 0
            outputs.append(out.read_bytes())
            # the next run keeps its sets
            monkeypatch.setattr(
                cli, "_operators", lambda coeffs, t, consume: operators(coeffs, t, consume=False)
            )
        handed, kept = (s[2] for s in sets)
        assert all(not c.two_body_blocks for c in handed.values())
        assert kept["VPs"].two_body_blocks
        assert outputs[0] == outputs[1]

    def test_sparse_rows_carry_the_overlap_norm(self, tmp_path, capsys):
        # the sparse P and VPs weights use s = l1(S); V holds no overlap term
        path = tmp_path / "demo.sapt"
        save_archive(path, demo_archive(3, 2))
        out = tmp_path / "norms.json"
        assert main(["norms", str(path), "--representation", "sparse", "--json", str(out)]) == 0
        s = float(np.abs(load_archive(path).S).sum())
        assert s > 0.0
        rows = {d["observable"]: d["lambda_s"] for d in json.loads(out.read_text())}
        assert rows == {"V": 0.0, "P": s, "VPs": s}


ESTIMATE = [
    "estimate", "--lambda-a", "53.9", "--lambda-b", "53.9", "--gap-a", "0.455", "--gap-b", "0.455",
    "--n-orb-a", "7", "--n-orb-b", "7",
    "--lambda-v", "0.43", "--lambda-p", "0.04", "--lambda-vp", "0.11", "--observables", "V",
]
SUPERMOLECULAR = [
    "supermolecular", "--lambda-ab", "142.8", "--lambda-a", "53.9", "--lambda-b", "53.9",
    "--n-orbs", "2", "1", "1",
]
BUDGET = ["budget", "--lambda-v", "65.54", "--lambda-p", "6.35", "--lambda-vp", "537.3"]


def assert_data_error(argv, capsys, message=""):
    """``argv`` exits 3 with one ``error:`` line on stderr that holds ``message``."""
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "internal" not in err
    assert message in err


class TestBudget:
    def test_explicit_values(self, capsys):
        assert main([
            "budget", "--lambda-v", "65.54", "--lambda-p", "6.35",
            "--lambda-vp", "537.3", "--eps-targ", "0.0016",
        ]) == 0
        data = json.loads(capsys.readouterr().out)
        ref = budget_errors(65.54, 6.35, 537.3, 0.0016)
        assert data["eps_V"] == pytest.approx(ref.eps_V)
        assert data["constraint_residual"] < 1e-12

    def test_missing_norm_is_data_error(self, capsys):
        assert_data_error(["budget", "--lambda-v", "1.0"], capsys, "norms for P, VPs")

    @pytest.mark.parametrize("command", ["budget", "estimate"])
    def test_flags_override_archive_norms(self, archive_path, monkeypatch, capsys, command):
        # only the observables no flag gives are factorized; with all three given, none
        calls, factorized, built = [], [], []
        budget, build = cli.budget_errors, cli._coefficient_sets
        factorize = cli.factorize_coefficients
        monkeypatch.setattr(cli, "budget_errors", lambda *a: calls.append(a) or budget(*a))
        monkeypatch.setattr(
            cli, "factorize_coefficients",
            lambda c, *a, **k: factorized.append(c.observable) or factorize(c, *a, **k),
        )
        monkeypatch.setattr(cli, "_coefficient_sets", lambda *a: built.append(1) or build(*a))
        assert main([command, "--archive", str(archive_path)]) == 0
        assert factorized == ["V", "P", "VPs"]
        assert main([command, "--archive", str(archive_path), "--lambda-p", "7.5"]) == 0
        assert factorized == ["V", "P", "VPs", "V", "VPs"]
        (lam_v, lam_p, lam_vp, eps), override = calls
        assert lam_p != 7.5 and override == (lam_v, 7.5, lam_vp, eps)
        flags = ["--lambda-v", "1.5", "--lambda-p", "7.5", "--lambda-vp", "2.5"]
        assert main([command, "--archive", str(archive_path)] + flags) == 0
        assert len(factorized) == 5 and len(built) == 2
        assert calls[-1] == (1.5, 7.5, 2.5, eps)

    @pytest.mark.parametrize("flag, value", [("--eps-targ", "0"), ("--truncation", "1.5")])
    def test_bad_settings_rejected_before_factorizing(
        self, archive_path, monkeypatch, capsys, flag, value
    ):
        monkeypatch.setattr(cli, "_coefficient_sets", lambda *a: pytest.fail("factorized"))
        for command in ("budget", "estimate"):
            assert_data_error([command, "--archive", str(archive_path), flag, value], capsys)


@pytest.mark.parametrize(
    "argv",
    [
        ESTIMATE + ["--eps-targ", "nan"],
        ESTIMATE + ["--eps-targ", "inf"],
        ESTIMATE + ["--lambda-a", "nan"],
        ESTIMATE + ["--gap-a", "nan"],
        ESTIMATE + ["--lambda-v", "nan"],
        SUPERMOLECULAR + ["--lambda-ab", "nan"],
        SUPERMOLECULAR + ["--eps-targ", "inf"],
        BUDGET + ["--lambda-v", "nan"],
        BUDGET + ["--eps-targ", "nan"],
        ESTIMATE + ["--eps-targ", "1e-320"],
        ESTIMATE + ["--gap-a", "1e-320"],
        ESTIMATE + ["--overlap-a", "1e-200"],
        ["supermolecular", "--lambda-ab", "1e300", "--lambda-a", "1", "--lambda-b", "1",
         "--n-orbs", "2", "1", "1", "--eps-targ", "1e-300"],
        SUPERMOLECULAR + ["--eps-targ", "1e-300", "--lambda-a", "1e-300"],  # its eps_A underflows
        ESTIMATE + ["--calibration", '{"be_prefactor": 1e308}'],  # the file's text
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}={argv[-1]}",
)
def test_non_finite_number_is_exit_3(argv, tmp_path, capsys):
    if argv[-2] == "--calibration":
        (tmp_path / "cal.json").write_text(argv[-1])
        argv = argv[:-1] + [str(tmp_path / "cal.json")]
    assert_data_error(argv, capsys, "finite")


@pytest.mark.parametrize("count", ["0", "-2"])
@pytest.mark.parametrize(
    "argv",
    [ESTIMATE + ["--n-orb-a", "{}"], SUPERMOLECULAR + ["--n-orbs", "{}", "1", "1"]],
    ids=["estimate", "supermolecular"],
)
def test_orbital_count_below_one_is_exit_3(argv, count, capsys):
    name = "n_orb_A" if argv[0] == "estimate" else "n_orb_AB"
    assert_data_error([a.format(count) for a in argv], capsys, f"orbital count {name}")


class TestCalibrationFile:
    @pytest.mark.parametrize(
        "text, message",
        [
            (None, "No such file"),
            ("{", "Expecting"),
            ("[16]", "must be a mapping"),
            ('{"b_cof": 12}', "'b_cof'"),
            ('{"b_coeff": "16"}', "b_coeff must be a positive integer"),
            ('{"b_coeff": 2.5}', "b_coeff must be a positive integer"),
            ('{"b_coeff": true}', "b_coeff must be a positive integer"),
            ('{"asp_rus": NaN}', "asp_rus must be a positive finite number"),
        ],
        ids=["missing", "bad-json", "list", "unknown-key", "string", "fraction", "bool", "nan"],
    )
    @pytest.mark.parametrize(
        "command", [ESTIMATE, SUPERMOLECULAR], ids=["estimate", "supermolecular"]
    )
    def test_faults_are_exit_3(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "calib.json"
        if text is not None:
            path.write_text(text)
        assert_data_error(command + ["--calibration", str(path)], capsys, message)

    def test_overrides_apply(self, tmp_path, capsys):
        path = tmp_path / "calib.json"
        path.write_text('{"b_coeff": 12, "qsp_prefactor": 2}')
        assert main(ESTIMATE) == 0
        default = capsys.readouterr().out
        assert main(ESTIMATE + ["--calibration", str(path)]) == 0
        assert capsys.readouterr().out != default


class TestFactorize:
    def test_writes_caches(self, archive_path, tmp_path, capsys):
        prefix = tmp_path / "cache"
        assert main(["factorize", str(archive_path), "-o", str(prefix)]) == 0
        fop = load_factor_cache(f"{prefix}.VPs.factors")
        assert fop.observable == "VPs"


class TestEstimate:
    def test_from_archive_with_outputs(self, archive_path, tmp_path, capsys):
        out = tmp_path / "est"
        code = main([
            "estimate", "--archive", str(archive_path), "--format", "all",
            "-o", str(out),
        ])
        assert code == 0
        assert (out / "estimate.V.json").exists()
        assert (out / "estimate.V.dot").exists()
        assert (out / "estimate.summary.tsv").exists()
        header = (out / "estimate.summary.tsv").read_text().splitlines()[0]
        assert header.startswith("observable\tlambda_F\teps_F\tLambda_F\tE_F\tASP")

    @pytest.mark.parametrize("given", [(), ("--lambda-a", "--lambda-b", "--gap-a", "--gap-b")])
    def test_system_parameters_read_before_the_payload_drops(self, archive_path, capsys, given):
        # the observable norms drop the archive's arrays; the monomer norms,
        # gaps and overlaps must have been read from it before
        archive = load_archive(archive_path)
        flags = {
            f"--{name}-{m.lower()}": repr(value)
            for m in "AB"
            for name, value in (
                ("lambda", df_hamiltonian_norm(*factorize_monomer_hamiltonian(
                    archive.arrays[f"h1_{m}"], archive.arrays[f"eri_{m}"]))),
                ("gap", archive.scalar(f"gap_{m}", 0.0)),
                ("overlap", archive.scalar(f"overlap_{m}", 1.0)),
            )
        }
        outputs = []
        for names in (given, flags):
            argv = ["estimate", "--archive", str(archive_path), "--format", "tsv"]
            assert main(argv + [x for name in names for x in (name, flags[name])]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("given, calls", [(("-a", "-b"), 0), (("-a",), 1), (("-b",), 1)])
    def test_monomer_factorized_only_without_its_lambda_flag(
        self, archive_path, monkeypatch, capsys, given, calls
    ):
        seen = []
        factorize = cli.factorize_monomer_hamiltonian
        monkeypatch.setattr(
            cli, "factorize_monomer_hamiltonian", lambda *a: seen.append(a) or factorize(*a)
        )
        flags = [x for m in given for x in (f"--lambda{m}", "53.9")]
        assert main(["estimate", "--archive", str(archive_path), *flags]) == 0
        assert len(seen) == calls

    def test_explicit_parameters(self, capsys):
        code = main([
            "estimate", "--lambda-a", "53.9", "--lambda-b", "53.9",
            "--gap-a", "0.455", "--gap-b", "0.455",
            "--n-orb-a", "7", "--n-orb-b", "7",
            "--lambda-v", "0.43", "--lambda-p", "0.04", "--lambda-vp", "0.11",
            "--observables", "V", "--format", "tsv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "total_toffolis=" in out

    def test_reference_row_precision_in_tsv(self, capsys):
        code = main([
            "estimate", "--lambda-a", "232.2", "--lambda-b", "361.8",
            "--gap-a", "0.0069", "--gap-b", "0.1212",
            "--overlap-a", "0.068174", "--overlap-b", "0.800254",
            "--n-orb-a", "43", "--n-orb-b", "40",
            "--lambda-v", "65.54", "--lambda-p", "6.35", "--lambda-vp", "537.3",
            "--observables", "V", "--format", "tsv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "7.29" in out and "e-05" in out  # allocated precision column

    def test_missing_parameters_is_data_error(self, capsys):
        assert main(["estimate", "--lambda-v", "1.0"]) == 3

    def test_orbital_counts_are_required(self, monkeypatch, capsys):
        # no 1-orbital placeholder: without an archive only the flags give them
        monkeypatch.setattr(cli, "estimate_observable", lambda *a: pytest.fail("priced"))
        argv = [a for a in ESTIMATE if a not in ("--n-orb-a", "--n-orb-b", "7")]
        assert_data_error(argv, capsys, "estimate needs n_orb_A, n_orb_B (flags or archive data)")
        assert_data_error(argv + ["--n-orb-a", "43"], capsys, "estimate needs n_orb_B (")


class TestSupermolecular:
    def test_outputs_split(self, capsys, tmp_path):
        out = tmp_path / "sm.json"
        code = main([
            "supermolecular", "--lambda-ab", "142.8", "--lambda-a", "53.9",
            "--lambda-b", "53.9", "--n-orbs", "14", "7", "7", "-o", str(out),
        ])
        assert code == 0
        eps = json.loads("".join(capsys.readouterr().out.split("}")[0]) + "}")
        assert eps["E_A"] == pytest.approx(eps["E_B"])
        assert out.exists()

    def test_orbital_counts_are_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(SUPERMOLECULAR[:-4])  # without --n-orbs
        assert exc.value.code == 2
        assert "--n-orbs" in capsys.readouterr().err


class TestErrors:
    def test_usage_error_is_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_archive_is_exit_3(self):
        assert main(["norms", "/definitely/not/here.sapt"]) == 3

    def test_manifest_without_dimer_is_exit_3(self, archive_path, capsys):
        rewrite_manifest(archive_path, lambda m: m.pop("dimer"))
        assert main(["norms", str(archive_path)]) == 3
        assert "[schema] manifest lacks dimer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda m: m.update(arrays=[]), "manifest arrays is not an object"),
            (
                lambda m: m["arrays"]["v"].update(shape="2,2,2,2"),
                "array 'v' shape is not a list of sizes",
            ),
            (
                lambda m: m["dimer"].update(n_orb_A="2"),
                "manifest dimer counts are not all integers",
            ),
        ],
        ids=["arrays-list", "shape-string", "count-string"],
    )
    def test_wrongly_typed_manifest_value_is_exit_3(self, archive_path, capsys, edit, message):
        rewrite_manifest(archive_path, edit)
        assert main(["norms", str(archive_path)]) == 3
        assert f"[schema] {message}" in capsys.readouterr().err

    def test_array_offset_past_payload_is_exit_3(self, archive_path, capsys):
        rewrite_manifest(archive_path, lambda m: m["arrays"]["v"].update(offset=m["payload_bytes"]))
        assert main(["norms", str(archive_path)]) == 3
        assert "[checksum] array 'v' extends outside the payload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["arrays"]["gap_A"].update(offset=m["arrays"]["gap_B"]["offset"]),
            lambda m: m["arrays"]["gap_A"].update(offset=m["arrays"]["gap_A"]["offset"] + 4),
        ],
        ids=["overlap", "misaligned"],
    )
    def test_array_offsets_must_tile_the_payload(self, archive_path, capsys, edit):
        rewrite_manifest(archive_path, edit)
        assert main(["norms", str(archive_path)]) == 3
        assert "overlaps another or leaves a gap" in capsys.readouterr().err

    def test_other_exception_is_exit_4_on_one_line(self, monkeypatch, capsys):
        def fail(args):
            raise ValueError("two\nlines")

        monkeypatch.setattr(cli, "cmd_budget", fail)
        assert main(["budget"]) == 4
        assert capsys.readouterr().err == "error: internal: ValueError: two lines\n"

    @pytest.mark.parametrize(
        "command", ["factorize", "norms", "estimate", "convert-fcidump", "supermolecular"]
    )
    def test_unwritable_output_is_exit_3(self, archive_path, tmp_path, capsys, command):
        missing = str(tmp_path / "missing" / "out")
        a_file = tmp_path / "a_file"  # an output directory that is a file
        a_file.write_text("")
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT)
        argv = {
            "factorize": ["factorize", str(archive_path), "-o", missing],
            "norms": ["norms", str(archive_path), "--json", missing],
            "estimate": ["estimate", "--archive", str(archive_path), "-o", str(a_file)],
            "convert-fcidump": [
                "convert-fcidump", str(fcid), missing, "--monomer", "A", "--new",
                "--n-orb-other", "2",
            ],
            "supermolecular": [*SUPERMOLECULAR, "-o", missing],
        }[command]
        assert_data_error(argv, capsys, str(tmp_path))

    def test_non_finite_array_is_exit_3(self, tmp_path, capsys):
        archive = demo_archive()
        archive.arrays["v"][0, 1, 0, 1] = np.nan
        path = tmp_path / "nan.sapt"
        save_archive(path, archive)
        assert main(["norms", str(path)]) == 3
        assert "[schema] array 'v' holds NaN or inf" in capsys.readouterr().err


def command_outputs(command, archive, out, truncation):
    """Run one command; every file it writes into the new directory ``out``, by name."""
    out.mkdir()
    argv = {
        "estimate": ["estimate", "--archive", str(archive), "--format", "all", "-o", str(out)],
        "norms": ["norms", str(archive), "--representation", "tf", "--json", str(out / "n.json")],
        "factorize": ["factorize", str(archive), "-o", str(out / "cache")],
    }[command]
    assert main(argv + ["--truncation", truncation]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture
def factorized_labels(monkeypatch):
    """Labels of every block passed to the outer factorization, in call order."""
    labels = []
    first = fz.first_factorize

    def record(block, label, *args):
        labels.append(label)
        return first(block, label, *args)

    monkeypatch.setattr(fz, "first_factorize", record)
    return labels


def decaying_archive():
    """The demo dimer with a `v` of outer weights 1, 1e-3 and 1e-6: truncation at 1e-4 cuts one."""
    archive = demo_archive(3, 2)
    rng = np.random.default_rng(5)
    x, y = (rng.normal(size=(3, n, n)) for n in (3, 2))
    x, y = x + x.transpose(0, 2, 1), y + y.transpose(0, 2, 1)
    archive.arrays["v"] = np.einsum("t,tab,tcd->abcd", [1.0, 1e-3, 1e-6], x, y)
    return archive


def partitioned_archive():
    """The 3x3 demo dimer with one core orbital per monomer."""
    archive = demo_archive(3, 3)
    archive.basis = DimerBasis(3, 3, 4, 4)
    archive.arrays["partition_A_core"] = np.array([0.0])
    archive.arrays["partition_B_core"] = np.array([2.0])
    return archive


class TestSharedBlocks:
    COMMANDS = ("estimate", "norms", "factorize")

    @pytest.mark.parametrize("truncation, kept", [("0", 3), ("1e-4", 2), ("1e-3", 1)])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_v_factorized_once_with_unshared_outputs(
        self, tmp_path, monkeypatch, capsys, factorized_labels, command, truncation, kept
    ):
        path = tmp_path / "full.sapt"
        save_archive(path, decaying_archive())
        fops, truncated = [], []
        factorize, truncate = cli.factorize_coefficients, fz.truncate_block

        def record(*args, **kwargs):
            fops.append(factorize(*args, **kwargs))
            assert fops[-1].observable == args[0].observable  # the coefficients come first
            return fops[-1]

        monkeypatch.setattr(cli, "factorize_coefficients", record)
        monkeypatch.setattr(
            fz, "truncate_block", lambda bf, *args: truncated.append(bf.label) or truncate(bf, *args)
        )
        shared = command_outputs(command, path, tmp_path / "shared", truncation)
        assert factorized_labels.count("v") == 1
        assert [fop.observable for fop in fops] == ["V", "P", "VPs"]
        # each factorized block is truncated once, and both observables hold the shared one
        assert sorted(truncated) == sorted({label for fop in fops for label in fop.blocks})
        assert fops[0].blocks["v"] is fops[2].blocks["v"]
        assert [fops[i].blocks["v"].outer.rank for i in (0, 2)] == [kept, kept]
        monkeypatch.setattr(cli, "shared_blocks", lambda sets, *args: {})
        factorized_labels.clear()
        unshared = command_outputs(command, path, tmp_path / "unshared", truncation)
        assert factorized_labels.count("v") == 2
        assert len(shared) == {"estimate": 7, "norms": 1, "factorize": 3}[command]
        assert shared == unshared

    @pytest.mark.parametrize("command", COMMANDS)
    def test_partitioned_archive_holds_nothing(
        self, tmp_path, monkeypatch, capsys, factorized_labels, command
    ):
        path = tmp_path / "cores.sapt"
        save_archive(path, partitioned_archive())
        held = []
        share = cli.shared_blocks
        monkeypatch.setattr(
            cli, "shared_blocks", lambda *args: held.append(share(*args)) or held[-1]
        )
        command_outputs(command, path, tmp_path / "out", "0")
        assert held == [{}]
        assert factorized_labels.count("v") == 2


class TestFactorizedBlocks:
    """Each command factorizes the blocks it reads: `estimate` and `budget` only
    those in the norm totals, `norms` and `factorize` every block."""

    TOTALS = {"v", "A2", "B2", "1m", "1l"}
    EXCLUDED = {"2", "3"}

    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    def test_blocks_each_command_factorizes(
        self, tmp_path, capsys, factorized_labels, partitioned
    ):
        path = tmp_path / "dimer.sapt"
        save_archive(path, partitioned_archive() if partitioned else decaying_archive())
        excluded = self.EXCLUDED | ({"2r", "3r"} if partitioned else set())
        assert set(cli._read_archive(path, cli.OBSERVABLES)[2]["VPs"].two_body_blocks) == (
            self.TOTALS | excluded
        )
        for command in ("estimate", "norms", "factorize"):
            factorized_labels.clear()
            command_outputs(command, path, tmp_path / command, "0")
            expected = self.TOTALS if command == "estimate" else self.TOTALS | excluded
            assert set(factorized_labels) == expected, command
        factorized_labels.clear()
        assert main(["budget", "--archive", str(path)]) == 0
        assert set(factorized_labels) == self.TOTALS

    @pytest.mark.parametrize("truncation", ["0", "1e-4"])
    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    def test_estimate_outputs_match_all_blocks(
        self, tmp_path, monkeypatch, capsys, factorized_labels, truncation, partitioned
    ):
        path = tmp_path / "dimer.sapt"
        save_archive(path, partitioned_archive() if partitioned else decaying_archive())
        totals_only = command_outputs("estimate", path, tmp_path / "totals", truncation)
        assert self.EXCLUDED.isdisjoint(factorized_labels)
        monkeypatch.setattr(cli, "EXCLUDED_BLOCKS", {})  # skip nothing: every block factorized
        every = command_outputs("estimate", path, tmp_path / "every", truncation)
        assert self.EXCLUDED <= set(factorized_labels)
        assert len(every) == 7 and every == totals_only


def cored_archive(n_a, n_b, core_a, core_b, seed=3):
    """A random n_a x n_b dimer with the given core lists, 4 active electrons per monomer."""
    v, s = random_dimer(np.random.default_rng(seed), n_a, n_b)
    named = {"v": v, "S": s}
    for m, core in (("A", core_a), ("B", core_b)):
        if core:
            named[f"partition_{m}_core"] = np.array(core, dtype=float)
    basis = DimerBasis(n_a, n_b, 4 + 2 * len(core_a), 4 + 2 * len(core_b))
    return TensorArchive(basis, named)


def set_digests(c):
    """sha256 of every array of a coefficient set, by name, with its tag."""
    out = {k: (x.shape, hashlib.sha256(x.tobytes()).hexdigest()) for k, x in arrays(c).items()}
    return out | {"space_tag": c.space_tag}


def traced_peak(f) -> int:
    """Traced peak of ``f()`` above the memory held before it, after a warm-up call."""
    f()  # cached contraction paths, imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFrozenCoreOrder:
    """A cored archive's tensors are gathered into active-then-core order once,
    as the archive is read; the sets are built from that one copy, as given.
    A full-space archive takes the same path with every orbital active."""

    LAYOUTS = {"leading": ([0, 1], [0]), "middle": ([5], [4, 7]), "one monomer": ([], [3, 9])}

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_sets_equal_library_sets_on_archive_order(self, tmp_path, layout):
        path = tmp_path / "cored.sapt"
        save_archive(path, cored_archive(12, 10, *self.LAYOUTS[layout]))
        sets = cli._read_archive(path, cli.OBSERVABLES)[2]
        archive = load_archive(path)
        part = archive.partition()
        library = {
            "V": renormalize_electrostatic(archive.v, part),
            "P": renormalize_exchange(archive.S, part),
            "VPs": renormalize_vp(archive.v, archive.S, part),
        }
        assert list(sets) == list(library)
        for name, c in library.items():
            assert set_digests(sets[name]) == set_digests(c), name

    def test_one_v_sized_array_beside_the_build(self, tmp_path):
        # at n_a = n_b a dressed tensor is the size of v: beside the sets it
        # returns, the read holds one copy of v and the build's three dressed
        # tensors' worth (the contraction, its C-contiguous copy and one
        # reduction's temporaries), without room for a second copy of v
        path = tmp_path / "cored.sapt"
        save_archive(path, cored_archive(12, 12, [0, 1], [1]))
        cli._read_archive(path, cli.OBSERVABLES)  # cached contraction paths, imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            sets = cli._read_archive(path, cli.OBSERVABLES)[2]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        held = sum(x.nbytes for c in sets.values() for x in arrays(c).values())
        v_bytes = dressed = 8 * 12**4
        assert peak < held + v_bytes + 3 * dressed

    @pytest.mark.parametrize("core_lists", [False, True], ids=["none", "empty"])
    def test_full_space_sets_equal_library_sets(self, tmp_path, core_lists):
        # core lists of length zero give the full-space arrays, tagged as a cored read
        archive = cored_archive(12, 10, [], [])
        if core_lists:
            archive.arrays |= {f"partition_{m}_core": np.zeros(0) for m in "AB"}
        path = tmp_path / "full.sapt"
        save_archive(path, archive)
        sets = cli._read_archive(path, cli.OBSERVABLES)[2]
        archive = load_archive(path)
        library = build_majorana_coefficients(archive.v, archive.S)
        assert list(sets) == list(library)
        tag = "active" if core_lists else "full"
        for name, c in library.items():
            assert set_digests(sets[name]) == set_digests(c) | {"space_tag": tag}, name
        assert sets["V"].two_body_blocks["v"] is sets["VPs"].two_body_blocks["v"]

    def test_full_space_read_holds_one_v(self, tmp_path):
        # the read peaks at the library build's peak plus the one v it gathers:
        # no second copy of v, held beside the build or made and freed in it
        path = tmp_path / "full.sapt"
        save_archive(path, cored_archive(12, 12, [], []))
        archive = load_archive(path)
        build = traced_peak(lambda: build_majorana_coefficients(archive.v, archive.S))
        read = traced_peak(lambda: cli._read_archive(path, cli.OBSERVABLES))
        assert read < build + 1.5 * archive.v.nbytes


class TestLifetimes:
    """The archive's payload is freed before the coefficient sets are built.
    By the first outer factorization of `estimate` and `budget` the sets hold
    only the blocks the norm totals read; when any outer factorization
    starts, no earlier block holds its outer vectors, and no factor cache
    stores them; `estimate` factorizes `1l` before any other VPs block."""

    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    @pytest.mark.parametrize("command", ["estimate", "budget", "norms", "factorize"])
    def test_held_at_first_factorization(self, tmp_path, monkeypatch, capsys, command, partitioned):
        self.check_held(tmp_path, monkeypatch, command, partitioned, "0")

    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    @pytest.mark.parametrize("command", ["estimate", "budget", "norms", "factorize"])
    def test_held_at_first_truncated_factorization(
        self, tmp_path, monkeypatch, capsys, command, partitioned
    ):
        # the outer vectors cut before the inner step are freed with the kept ones
        self.check_held(tmp_path, monkeypatch, command, partitioned, "1e-3")

    @staticmethod
    def check_held(tmp_path, monkeypatch, command, partitioned, truncation):
        path = tmp_path / "dimer.sapt"
        save_archive(path, partitioned_archive() if partitioned else decaying_archive())
        payloads, sets, seen, vectors = [], [], [], []
        load, build, first = cli.ar.load_archive, cli._coefficient_sets, fz.first_factorize

        def loaded(p):
            archive = load(p)
            payloads.append(weakref.ref(archive.arrays["v"].base))
            return archive

        def built(*args):
            # nothing views the freed payload, so no set array can
            assert payloads[-1]() is None
            sets.append(build(*args))
            return sets[-1]

        def factorized(block, label, *args):
            assert all(ref() is None for ref in vectors), label
            if not seen and command in ("estimate", "budget"):
                assert "exch" not in sets[-1]["P"].two_body_blocks
                assert {"2", "3", "2r", "3r"}.isdisjoint(sets[-1]["VPs"].two_body_blocks)
            seen.append(label)
            bf = first(block, label, *args)
            vectors.extend(weakref.ref(m) for m in (bf.outer.left, bf.outer.right))
            return bf

        monkeypatch.setattr(cli.ar, "load_archive", loaded)
        monkeypatch.setattr(cli, "_coefficient_sets", built)
        monkeypatch.setattr(fz, "first_factorize", factorized)
        if command == "budget":
            assert main(["budget", "--archive", str(path), "--truncation", truncation]) == 0
        else:
            command_outputs(command, path, tmp_path / "out", truncation)
        assert seen and len(payloads) == len(sets) == 1
        assert {"v", "A2", "B2", "1m", "1l"} <= set(seen)
        assert all(ref() is None for ref in vectors)

    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    @pytest.mark.parametrize("command", ["estimate", "budget", "norms", "factorize"])
    def test_only_factorize_hands_its_sets_over(
        self, tmp_path, monkeypatch, capsys, command, partitioned
    ):
        # `factorize` and `norms` drop each block from its set once it is
        # factorized, so a block nothing else holds (no block is shared with
        # cores) is freed before the next one starts; `estimate` and `budget`
        # keep their sets whole, as the library does by default: the sets are
        # read after the call
        path = tmp_path / "dimer.sapt"
        save_archive(path, partitioned_archive() if partitioned else decaying_archive())
        blocks, dropped = [], []
        first, factorize = fz.first_factorize, cli.factorize_coefficients

        def factorized(block, label, *args):
            if partitioned and command in ("factorize", "norms"):
                assert all(ref() is None for ref in blocks), label
            blocks.append(weakref.ref(block))
            return first(block, label, *args)

        def recorded(coeffs, *args, **kwargs):
            fop = factorize(coeffs, *args, **kwargs)
            dropped.append((set(fop.blocks), set(fop.blocks) - set(coeffs.two_body_blocks)))
            return fop

        monkeypatch.setattr(fz, "first_factorize", factorized)
        monkeypatch.setattr(cli, "factorize_coefficients", recorded)
        if command == "budget":
            assert main(["budget", "--archive", str(path)]) == 0
        else:
            command_outputs(command, path, tmp_path / "out", "0")
        assert len(dropped) == 3 and {"v", "1l"} <= dropped[2][0]
        for labels, gone in dropped:
            assert gone == (labels if command in ("factorize", "norms") else set())

    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    def test_1l_outer_step_beside_no_inner_factors(self, tmp_path, monkeypatch, capsys, partitioned):
        # 1l's unpacked outer eigh is the largest step of `estimate`: no VPs
        # block but the shared v may hold inner factors by then
        path = tmp_path / "dimer.sapt"
        save_archive(path, partitioned_archive() if partitioned else decaying_archive())
        inner, held_at_1l = [], []
        first, second = fz.first_factorize, fz.second_factorize

        def factorized(block, label, *args):
            if label == "1l":
                held_at_1l.append({bf.label for bf in (ref() for ref in inner) if bf is not None})
            return first(block, label, *args)

        def decomposed(bf):
            inner.append(weakref.ref(bf))
            return second(bf)

        monkeypatch.setattr(fz, "first_factorize", factorized)
        monkeypatch.setattr(fz, "second_factorize", decomposed)
        command_outputs("estimate", path, tmp_path / "out", "0")
        assert held_at_1l == [set() if partitioned else {"v"}]

    @pytest.mark.parametrize("truncation", ["0", "1e-3"])
    def test_factor_caches_hold_no_outer_vectors(self, tmp_path, monkeypatch, capsys, truncation):
        path = tmp_path / "dimer.sapt"
        save_archive(path, decaying_archive())
        estimate = command_outputs("estimate", path, tmp_path / "estimate", truncation)
        fops = []
        factorize = cli.factorize_coefficients
        monkeypatch.setattr(
            cli, "factorize_coefficients",
            lambda *a, **k: fops.append(factorize(*a, **k)) or fops[-1],
        )
        command_outputs("factorize", path, tmp_path / "out", truncation)
        assert [fop.observable for fop in fops] == list(cli.OBSERVABLES)
        for fop in fops:
            cache = tmp_path / "out" / f"cache.{fop.observable}.factors"
            names = load_archive(cache).arrays
            assert not [n for n in names if n.endswith((".outer.left", ".outer.right"))]
            loaded = load_factor_cache(cache)
            assert_same_operator(loaded, fop)  # the None outer vectors too
            assert all(bf.outer.left is bf.outer.right is None for bf in loaded.blocks.values())
            meta = json.loads(estimate[f"estimate.{fop.observable}.json"])["meta"]
            assert tf_norm(loaded).total == meta["lambda_F"]

    @pytest.mark.parametrize("truncation", ["0", "1e-3"])
    def test_totals_equal_factors_with_vectors(self, tmp_path, capsys, truncation):
        path = tmp_path / "dimer.sapt"
        save_archive(path, decaying_archive())
        archive = load_archive(path)
        ref = {
            name: tf_norm(factorize_coefficients(c, float(truncation))).total
            for name, c in build_majorana_coefficients(archive.v, archive.S).items()
        }
        assert ref["VPs"] != 0.0
        out = command_outputs("norms", path, tmp_path / "norms", truncation)
        assert {r["observable"]: r["total"] for r in json.loads(out["n.json"])} == ref
        out = command_outputs("estimate", path, tmp_path / "estimate", truncation)
        for name, total in ref.items():
            assert json.loads(out[f"estimate.{name}.json"])["meta"]["lambda_F"] == total
        capsys.readouterr()
        assert main(["budget", "--archive", str(path), "--truncation", truncation]) == 0
        budget = budget_errors(ref["V"], ref["P"], ref["VPs"], 0.0016)
        data = json.loads(capsys.readouterr().out)
        assert data["eps_V"] == budget.eps_V and data["eps_P"] == budget.eps_P
        assert data["eps_VP"] == budget.eps_VP


class TestTruncationDomain:
    @pytest.mark.parametrize("truncation", ["5", "1", "-0.5", "nan"])
    @pytest.mark.parametrize("command", ["norms", "factorize"])
    def test_checked_before_any_factorization(
        self, archive_path, tmp_path, capsys, factorized_labels, command, truncation
    ):
        # P holds no two-body block, so no block truncation would catch the value
        for observables in (["P"], list(cli.OBSERVABLES)):
            argv = [command, str(archive_path), "--observables", *observables]
            argv += ["--truncation", truncation, "-o" if command == "factorize" else "--json"]
            assert_data_error(argv + [str(tmp_path / "out")], capsys, "truncation threshold")
        assert factorized_labels == [] and list(tmp_path.glob("out*")) == []


class TestConvertFcidump:
    def test_creates_and_merges(self, tmp_path, capsys):
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT)
        out = tmp_path / "mono.sapt"
        code = main([
            "convert-fcidump", str(fcid), str(out), "--monomer", "A", "--new",
            "--n-orb-other", "2",
        ])
        assert code == 0
        from saptkit.archive import load_archive

        archive = load_archive(out)
        assert archive.arrays["h1_A"][0, 0] == pytest.approx(-0.9)

    def test_index_above_norb_is_exit_3(self, tmp_path, capsys):
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT + "  0.5   3   1   0   0\n")
        out = tmp_path / "mono.sapt"
        code = main([
            "convert-fcidump", str(fcid), str(out), "--monomer", "A", "--new",
            "--n-orb-other", "2",
        ])
        assert code == 3
        assert "[schema] FCIDUMP index outside 1..2" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_byte_is_exit_3(self, tmp_path, capsys):
        fcid = tmp_path / "m.fcidump"
        fcid.write_bytes(FCIDUMP_TEXT.encode() + b"  0.5   1   1   1 \xff\n")
        out = tmp_path / "mono.sapt"
        argv = [
            "convert-fcidump", str(fcid), str(out), "--monomer", "A", "--new",
            "--n-orb-other", "2",
        ]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "[schema] FCIDUMP line does not parse: '0.5   1   1   1 \\xff'" in err
        assert not out.exists()

    def test_norb_too_large_to_allocate_is_exit_3(self, tmp_path, capsys):
        # numpy refuses this size before it asks for memory
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT.replace("NORB=2", "NORB=10000000000"))
        out = tmp_path / "mono.sapt"
        argv = [
            "convert-fcidump", str(fcid), str(out), "--monomer", "A", "--new",
            "--n-orb-other", "2",
        ]
        assert_data_error(argv, capsys, "[shape] FCIDUMP NORB=10000000000 needs 8")
        assert not out.exists()

    @pytest.mark.parametrize("monomer", ["A", "B"])
    @pytest.mark.parametrize("n_orb_other", ["0", "-5"])
    def test_nonpositive_other_monomer_is_exit_3(self, tmp_path, capsys, monomer, n_orb_other):
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT)
        out = tmp_path / "mono.sapt"
        code = main([
            "convert-fcidump", str(fcid), str(out), "--monomer", monomer, "--new",
            "--n-orb-other", n_orb_other,
        ])
        assert code == 3
        assert "at least one orbital" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("new", [["--new"], []], ids=["new", "missing"])
    def test_new_archive_needs_the_other_count(self, tmp_path, monkeypatch, capsys, new):
        import saptkit.archive as ar

        monkeypatch.setattr(ar, "read_fcidump", lambda path: pytest.fail("FCIDUMP read"))
        out = tmp_path / "mono.sapt"
        assert main(["convert-fcidump", str(tmp_path / "m.fcidump"), str(out),
                     "--monomer", "A", *new]) == 2
        assert capsys.readouterr().err == "error: a new archive needs --n-orb-other\n"
        assert not out.exists()

    @pytest.mark.parametrize("new", [True, False])
    def test_each_fcidump_is_parsed_once(self, tmp_path, monkeypatch, new):
        import saptkit.archive as ar

        parses = []
        read = ar.read_fcidump
        monkeypatch.setattr(ar, "read_fcidump", lambda path: parses.append(path) or read(path))
        fcid = tmp_path / "m.fcidump"
        fcid.write_text(FCIDUMP_TEXT)
        out = tmp_path / "mono.sapt"
        if not new:
            save_archive(out, demo_archive())
        args = ["convert-fcidump", str(fcid), str(out), "--monomer", "B", "--n-orb-other", "3"]
        assert main(args + (["--new"] if new else [])) == 0
        assert len(parses) == 1
        archive = ar.load_archive(out)
        assert archive.arrays["h1_B"][0, 0] == pytest.approx(-0.9)
        assert archive.basis.n_orb_A == (3 if new else 2)


ARCHIVE_COMMANDS = ("norms", "budget", "estimate", "factorize", "verify")


def run_on_archive(command, path, out, capsys):
    """Run one archive-reading command in-process, every warning an error;
    returns (exit code, stderr)."""
    argv = {
        "norms": ["norms", str(path)],
        "budget": ["budget", "--archive", str(path)],
        "estimate": ["estimate", "--archive", str(path)],
        "factorize": ["factorize", str(path), "-o", str(out / "cache")],
        "verify": ["verify", str(path)],
    }[command]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def asymmetric_archive():
    """The 3x2 demo dimer with a `v` that breaks the p1 <-> p2 symmetry by 1."""
    archive = demo_archive(3, 2)
    archive.arrays["v"][0, 1, 0, 0] += 1.0
    return archive


# the fuzz test's edits, one per example: (kind, array or monomer, argument)
CORE_LISTS = {
    "2-d": [[0.0]], "fractional": [0.5], "negative": [-1.0], "out-of-range": [2.0],
    "repeated": [0.0, 0.0],
}
EDITS = st.one_of(
    st.sampled_from(["v", "S", "h1_A", "h1_B", "eri_A", "eri_B", "gap_A", "gap_B",
                     "overlap_A", "overlap_B"]).map(lambda name: ("delete", name)),
    st.tuples(
        st.just("reshape"), st.sampled_from(["gap_A", "gap_B", "overlap_A", "overlap_B"]),
        st.sampled_from([(2,), (1, 1), (0,)]),
    ),
    st.tuples(st.just("core"), st.sampled_from("AB"), st.sampled_from(sorted(CORE_LISTS))),
    st.just(("scale", "v", 1e300)),
)


def edited(archive, edit):
    kind, name, *rest = edit
    if kind == "delete":
        del archive.arrays[name]
    elif kind == "reshape":
        archive.arrays[name] = np.full(rest[0], 0.5)
    elif kind == "core":
        archive.arrays[f"partition_{name}_core"] = np.array(CORE_LISTS[rest[0]])
    else:
        archive.arrays[name] = archive.arrays[name] * rest[0]
    return archive


class TestInputContract:
    """Every archive a command reads runs, or exits 3 with one `error:` line
    that names what is wrong; no edit of a small archive gives exit 4 or a warning."""

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS)
    @pytest.mark.parametrize("name", ["v", "S"])
    def test_missing_v_or_s_is_exit_3(self, tmp_path, capsys, command, name):
        archive = demo_archive(3, 2)
        del archive.arrays[name]
        save_archive(tmp_path / "a.sapt", archive)
        code, err = run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys)
        assert (code, err) == (3, f"error: [schema] archive lacks array {name!r}\n")

    def test_converted_monomer_archive_is_exit_3(self, tmp_path, capsys):
        # the documented import of one monomer's FCIDUMP holds no v
        (tmp_path / "m.fcidump").write_text(FCIDUMP_TEXT)
        new = str(tmp_path / "new.sapt")
        assert main(["convert-fcidump", str(tmp_path / "m.fcidump"), new, "--monomer", "A",
                     "--new", "--n-orb-other", "2"]) == 0
        assert_data_error(["norms", new], capsys, "archive lacks array 'v'")

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS[:4])
    @pytest.mark.parametrize(
        "core, message",
        [([[0.0]], "[shape] array 'partition_A_core' has shape (1, 1)"),
         ([0.5], "[schema] a core list holds a non-integral orbital index")],
        ids=["2-d", "fractional"],
    )
    def test_malformed_core_list_is_exit_3(self, tmp_path, capsys, command, core, message):
        archive = partitioned_archive()
        archive.arrays["partition_A_core"] = np.array(core)
        save_archive(tmp_path / "a.sapt", archive)
        code, err = run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys)
        assert (code, err) == (3, f"error: {message}\n")

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS)
    @pytest.mark.parametrize("scale", [1.0, 1e300])
    def test_asymmetric_v_is_exit_3_at_any_scale(self, tmp_path, capsys, command, scale):
        save_archive(tmp_path / "a.sapt", edited(asymmetric_archive(), ("scale", "v", scale)))
        code, err = run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys)
        assert (code, err) == (3, "error: v violates four-fold symmetry beyond tolerance\n")

    @pytest.mark.parametrize("command", ARCHIVE_COMMANDS)
    def test_large_v_runs_without_warnings(self, tmp_path, capsys, command):
        save_archive(tmp_path / "a.sapt", edited(demo_archive(3, 2), ("scale", "v", 1e300)))
        assert run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys) == (0, "")

    @pytest.mark.parametrize("command", ["norms", "budget", "estimate"])
    def test_overflowing_norm_is_exit_3(self, tmp_path, capsys, command):
        save_archive(tmp_path / "a.sapt", edited(demo_archive(3, 2), ("scale", "v", 1e307)))
        code, err = run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys)
        rep = "sparse" if command == "norms" else "tensor_factorized"
        assert (code, err) == (3, f"error: V {rep} norm overflows\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["factorize", "{archive}", "-o", "{tmp}/missing/x"], "no output directory {missing}"),
            (["norms", "{archive}", "--json", "{tmp}/missing/x"], "no output directory {missing}"),
            # a cache path that is a directory, and a JSON path that is one
            (["factorize", "{archive}", "-o", "{tmp}/x"], "output path {tmp}/x.VPs.factors is a"),
            (["norms", "{archive}", "--json", "{tmp}/dir"], "output path {tmp}/dir is a directory"),
            # an estimate directory that is a file, or that would sit under one
            (["estimate", "--archive", "{archive}", "-o", "{tmp}/file"], "[Errno 17]"),
            (["estimate", "--archive", "{archive}", "-o", "{tmp}/file/x"], "[Errno 20]"),
        ],
        ids=[
            "factorize--o", "norms---json", "factorize-dir", "norms-dir",
            "estimate-file", "estimate-under-file",
        ],
    )
    def test_missing_output_directory_refused_before_the_archive_is_read(
        self, archive_path, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.setattr(cli.ar, "load_archive", lambda path: pytest.fail("archive read"))
        (tmp_path / "dir").mkdir()
        (tmp_path / "x.VPs.factors").mkdir()
        (tmp_path / "file").write_text("")
        argv = [arg.format(archive=archive_path, tmp=tmp_path) for arg in argv]
        assert_data_error(argv, capsys, message.format(tmp=tmp_path, missing=tmp_path / "missing"))

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n-orb-a", "0", "orbital count n_orb_A"),
            ("--n-orb-b", "-2", "orbital count n_orb_B"),
            ("--gap-a", "-1", "spectral gaps"),
            ("--gap-b", "nan", "spectral gaps"),
            ("--overlap-a", "1.5", "state overlaps"),
            ("--overlap-b", "0", "state overlaps"),
            ("--lambda-a", "-1", "Hamiltonian norms"),
            ("--lambda-b", "inf", "Hamiltonian norms"),
        ],
    )
    def test_monomer_flag_refused_before_the_archive_is_read(
        self, archive_path, monkeypatch, capsys, flag, value, message
    ):
        monkeypatch.setattr(cli.ar, "load_archive", lambda path: pytest.fail("archive read"))
        assert_data_error(["estimate", "--archive", str(archive_path), flag, value], capsys, message)

    @settings(
        max_examples=30,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(size=st.sampled_from([(2, 2), (3, 2)]), edit=EDITS)
    def test_edited_archive_runs_or_exits_3(self, tmp_path, capsys, size, edit):
        save_archive(tmp_path / "a.sapt", edited(demo_archive(*size), edit))
        for command in ARCHIVE_COMMANDS:
            code, err = run_on_archive(command, tmp_path / "a.sapt", tmp_path, capsys)
            assert code in (0, 1, 3), (command, err)
            if code == 3:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
            else:
                assert err == "", (command, err)
