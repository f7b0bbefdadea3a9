import numpy as np
import pytest

from saptkit.archive import (
    TensorArchive,
    demo_archive,
    factor_arrays,
    load_archive,
    load_factor_cache,
    merge_fcidump,
    read_fcidump,
    save_archive,
    save_factor_cache,
)
from saptkit.errors import ArchiveError
from saptkit.factorize import factorize_coefficients, reconstruct_block
from saptkit.norms import tf_norm
from saptkit.tensors import DimerBasis, build_majorana_coefficients


class TestRoundTrip:
    def test_bit_identical(self, tmp_path):
        path = tmp_path / "dimer.sapt"
        archive = demo_archive()
        save_archive(path, archive)
        first = path.read_bytes()
        loaded = load_archive(path)
        for name, arr in archive.arrays.items():
            assert np.array_equal(np.asarray(loaded.arrays[name]).reshape(arr.shape), arr), name
        save_archive(path, loaded)
        assert path.read_bytes() == first

    def test_minimal_single_orbital(self, tmp_path):
        path = tmp_path / "one.sapt"
        basis = DimerBasis(1, 1, 1, 1)
        save_archive(
            path,
            TensorArchive(
                basis=basis,
                arrays={"v": np.full((1, 1, 1, 1), 0.3), "S": np.full((1, 1), 0.1)},
            ),
        )
        loaded = load_archive(path)
        assert loaded.v[0, 0, 0, 0] == 0.3

    def test_partition_from_core_lists(self, tmp_path):
        archive = demo_archive(3, 3)
        archive.basis = DimerBasis(3, 3, 4, 4)
        archive.arrays["partition_A_core"] = np.array([0.0])
        archive.arrays["partition_B_core"] = np.array([2.0])
        path = tmp_path / "p.sapt"
        save_archive(path, archive)
        part = load_archive(path).partition()
        assert part.core_A == (0,) and part.active_A == (1, 2)
        assert part.core_B == (2,) and part.active_B == (0, 1)
        assert part.n_act_elec_A == 2


class TestValidation:
    def test_truncated_payload_is_checksum_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        save_archive(path, demo_archive())
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "checksum"

    def test_corrupted_payload_is_checksum_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        save_archive(path, demo_archive())
        data = bytearray(path.read_bytes())
        data[-8] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "checksum"

    def test_bad_magic_is_schema_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        save_archive(path, demo_archive())
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "schema"

    def test_wrong_shape_is_shape_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        archive = demo_archive()
        archive.arrays["S"] = np.zeros((3, 5))
        save_archive(path, archive)
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "shape"

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(ArchiveError) as err:
            load_archive(tmp_path / "absent.sapt")
        assert err.value.code == "io"


class TestFactorCache:
    def test_cache_round_trip(self, tmp_path):
        archive = demo_archive()
        coeffs = build_majorana_coefficients(archive.v, archive.S)["VPs"]
        fop = factorize_coefficients(coeffs)
        path = tmp_path / "vps.factors"
        save_factor_cache(path, fop, archive.basis)
        loaded = load_factor_cache(path)
        assert loaded.observable == "VPs"
        assert tf_norm(loaded).total == pytest.approx(tf_norm(fop).total, rel=1e-14)
        for label, bf in fop.blocks.items():
            ref = reconstruct_block(bf)
            got = reconstruct_block(loaded.blocks[label])
            assert np.allclose(ref, got, atol=1e-14), label

    def test_factor_arrays_flat_names(self):
        archive = demo_archive()
        coeffs = build_majorana_coefficients(archive.v, archive.S)["P"]
        arrays = factor_arrays(factorize_coefficients(coeffs))
        assert "factor.overlap.values" in arrays
        assert all(name.startswith("factor.") for name in arrays)

    def test_cache_bytes_round_trip(self, tmp_path):
        archive = demo_archive()
        coeffs = build_majorana_coefficients(archive.v, archive.S)["V"]
        fop = factorize_coefficients(coeffs)
        first = tmp_path / "a.factors"
        second = tmp_path / "b.factors"
        save_factor_cache(first, fop, archive.basis)
        save_factor_cache(second, load_factor_cache(first), archive.basis)
        assert first.read_bytes() == second.read_bytes()


FCIDUMP_TEXT = """&FCI NORB=2,NELEC=2,MS2=0,
  ORBSYM=1,1,
  ISYM=1,
&END
  0.6744931033260081E+00   1   1   1   1
  0.6634581556323418E+00   1   1   2   2
  0.1812875358123322E+00   1   2   1   2
  0.6973979494693358E+00   2   2   2   2
 -0.1252477303939621E+01   1   1   0   0
 -0.4759344611440753E+00   2   2   0   0
  0.7137758743754461E+00   0   0   0   0
"""


class TestFcidump:
    def test_parse(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        path.write_text(FCIDUMP_TEXT)
        h1, eri, n_orb, n_elec, core = read_fcidump(path)
        assert n_orb == 2 and n_elec == 2
        assert core == pytest.approx(0.7137758743754461)
        assert h1[0, 0] == pytest.approx(-1.252477303939621)
        assert eri[0, 0, 1, 1] == pytest.approx(0.6634581556323418)
        assert eri[1, 1, 0, 0] == pytest.approx(0.6634581556323418)
        assert eri[0, 1, 0, 1] == pytest.approx(0.1812875358123322)
        assert eri[1, 0, 1, 0] == pytest.approx(0.1812875358123322)

    def test_merge_into_archive(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        path.write_text(FCIDUMP_TEXT)
        archive = demo_archive(2, 2)
        merged = merge_fcidump(archive, path, "A")
        assert merged.arrays["h1_A"][0, 0] == pytest.approx(-1.252477303939621)

    def test_wrong_size_rejected(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        path.write_text(FCIDUMP_TEXT)
        archive = demo_archive(3, 2)
        with pytest.raises(ArchiveError) as err:
            merge_fcidump(archive, path, "A")
        assert err.value.code == "shape"

    def test_not_fcidump(self, tmp_path):
        path = tmp_path / "bad.fcidump"
        path.write_text("hello world")
        with pytest.raises(ArchiveError) as err:
            read_fcidump(path)
        assert err.value.code == "schema"

    @pytest.mark.parametrize(
        "line",
        [
            "  0.5   3   1   1   1",
            "  0.5x  1   1   1   1",
            "  0.5   0   1   0   0",
            "  0.5   1   1   1   0",
            "  0.5   1  -1   0   0",
            "  0.5   1.0 1   1   1",
        ],
        ids=["above-norb", "bad-value", "zero-one-body", "zero-two-body", "negative", "float-index"],
    )
    def test_bad_body_line_is_schema_error(self, tmp_path, line):
        path = tmp_path / "bad.fcidump"
        path.write_text(FCIDUMP_TEXT + line + "\n")
        with pytest.raises(ArchiveError) as err:
            read_fcidump(path)
        assert err.value.code == "schema"

    def test_orbital_energy_lines_are_skipped(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        path.write_text(FCIDUMP_TEXT + "  -0.57   1   0   0   0\n  0.71   2   0   0   0\n")
        h1, eri, _, _, core = read_fcidump(path)
        plain = tmp_path / "plain.fcidump"
        plain.write_text(FCIDUMP_TEXT)
        ref_h1, ref_eri, _, _, ref_core = read_fcidump(plain)
        assert np.array_equal(h1, ref_h1) and np.array_equal(eri, ref_eri) and core == ref_core

    def test_header_ends_after_fci(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        text = FCIDUMP_TEXT.replace("&END", "/")
        path.write_text("! integrals from a/b\n" + text)
        h1, _, n_orb, n_elec, core = read_fcidump(path)
        assert (n_orb, n_elec) == (2, 2)
        assert h1[1, 1] == pytest.approx(-0.4759344611440753)
        assert core == pytest.approx(0.7137758743754461)
