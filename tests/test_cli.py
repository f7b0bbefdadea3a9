import json

import pytest

from saptkit.archive import demo_archive, load_factor_cache, save_archive
from saptkit.cli import main
from saptkit.costing import budget_errors

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

    @pytest.mark.parametrize("n_a, n_b", [(7, 1), (5, 4)])
    def test_oversized_archive_falls_back(self, tmp_path, capsys, n_a, n_b):
        path = tmp_path / "wide.sapt"
        save_archive(path, demo_archive(n_a, n_b))
        assert main(["verify", str(path)]) == 0
        assert "using the built-in dimer" in capsys.readouterr().out


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
