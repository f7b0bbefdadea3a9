import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saptkit.archive import (
    TensorArchive,
    demo_archive,
    factor_archive,
    load_archive,
    load_factor_cache,
    merge_fcidump,
    read_fcidump,
    save_archive,
    save_factor_cache,
)
from saptkit.errors import ArchiveError
from saptkit.factorize import (
    _BLOCK_LABELS,
    _ONE_BODY,
    BlockFactors,
    Factorization,
    FactorizedOperator,
    decompose_matrix,
    factorize_coefficients,
    first_factorize,
    reconstruct_block,
)
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

    def test_array_shapes_round_trip(self, tmp_path):
        # 0-d scalars (gap_A) reload 0-d
        archive = demo_archive()
        fop = factorize_coefficients(build_majorana_coefficients(archive.v, archive.S)["VPs"])
        path = tmp_path / "dimer.sapt"
        save_archive(path, archive)
        loaded = load_archive(path).arrays
        assert {n: a.shape for n, a in loaded.items()} == {
            n: np.shape(a) for n, a in archive.arrays.items()
        }
        save_factor_cache(path, fop, archive.basis)
        loaded = load_archive(path).arrays
        for name, arr in factor_archive(fop, archive.basis).arrays.items():
            assert loaded[name].shape == np.shape(arr), name

    def test_one_element_scalars_still_load(self, tmp_path):
        # a scalar stored with shape (1,) reads as the same scalar
        archive = demo_archive()
        path = tmp_path / "dimer.sapt"
        flat = {n: np.reshape(a, -1) if np.ndim(a) == 0 else a for n, a in archive.arrays.items()}
        save_archive(path, TensorArchive(archive.basis, flat))
        assert load_archive(path).arrays["gap_A"].shape == (1,)
        assert load_archive(path).scalar("gap_A", 0.0) == archive.scalar("gap_A", 0.0) == 0.2

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

    def test_deeply_nested_manifest_is_schema_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        blob = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"SAPTKIT1" + len(blob).to_bytes(8, "little") + blob)
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "schema"

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
        cache = factor_archive(factorize_coefficients(coeffs), archive.basis)
        assert "factor.overlap.values" in cache.arrays
        assert all(re.fullmatch(r"factor\.[\w.]+\.(values|left|right)", n) for n in cache.arrays)
        assert cache.factors["overlap"]["symmetric"] == [False]
        assert json.loads(json.dumps(cache.factors)) == cache.factors  # JSON-native types

    def test_cache_bytes_round_trip(self, tmp_path):
        archive = demo_archive()
        coeffs = build_majorana_coefficients(archive.v, archive.S)["V"]
        fop = factorize_coefficients(coeffs)
        first = tmp_path / "a.factors"
        second = tmp_path / "b.factors"
        save_factor_cache(first, fop, archive.basis)
        save_factor_cache(second, load_factor_cache(first), archive.basis)
        assert first.read_bytes() == second.read_bytes()


def assert_same_factors(got, ref, where):
    assert got.symmetric == ref.symmetric, where
    for field in ("values", "left", "right"):
        a, b = getattr(got, field), getattr(ref, field)
        if a is None or b is None:  # the vectors of a block's outer step
            assert a is b is None, f"{where}.{field}"
        else:
            assert a.shape == b.shape and np.array_equal(a, b), f"{where}.{field}"


def assert_same_operator(got: FactorizedOperator, ref: FactorizedOperator):
    assert (got.observable, got.space_tag, got.threshold) == (
        ref.observable, ref.space_tag, ref.threshold
    )
    assert sorted(got.one_body) == sorted(ref.one_body)
    for name, fact in ref.one_body.items():
        assert_same_factors(got.one_body[name], fact, name)
    assert (got.overlap is None) == (ref.overlap is None)
    if ref.overlap is not None:
        assert_same_factors(got.overlap, ref.overlap, "overlap")
    assert sorted(got.blocks) == sorted(ref.blocks)
    for label, bf in ref.blocks.items():
        out = got.blocks[label]
        assert out.shape == bf.shape and out.discarded_weight == bf.discarded_weight
        assert_same_factors(out.outer, bf.outer, f"{label}.outer")
        assert (out.inner_right is out.inner_left) == (bf.inner_right is bf.inner_left)
        for side in ("inner_left", "inner_right"):
            assert len(getattr(out, side)) == len(getattr(bf, side)), label
            for t, (a, b) in enumerate(zip(getattr(out, side), getattr(bf, side))):
                assert_same_factors(a, b, f"{label}.{side}.{t}")


def old_layout_arrays(fop: FactorizedOperator) -> dict:
    """A factor cache as earlier versions wrote it: four arrays per factorization."""
    out = {}

    def put(prefix, fact):
        out[f"{prefix}.values"] = fact.values
        for field in ("left", "right"):
            if getattr(fact, field) is not None:
                out[f"{prefix}.{field}"] = getattr(fact, field)
        out[f"{prefix}.symmetric"] = np.array(float(fact.symmetric))

    for name, fact in fop.one_body.items():
        put(f"factor.one_body.{name}", fact)
    for label, bf in fop.blocks.items():
        put(f"factor.block.{label}.outer", bf.outer)
        out[f"factor.block.{label}.shape"] = np.array(bf.shape, dtype=float)
        out[f"factor.block.{label}.discarded"] = np.array(bf.discarded_weight)
        for t, fact in enumerate(bf.inner_left):
            put(f"factor.block.{label}.inner_left.{t:04d}", fact)
    out["factor.meta.threshold"] = np.array(fop.threshold)
    out["factor.meta.observable"] = np.array([float(ord(c)) for c in fop.observable])
    out["factor.meta.space"] = np.array(0.0)
    return out


class TestStackedCache:
    def test_truncated_vps_round_trips_exactly(self, tmp_path):
        archive = demo_archive(4, 3)
        coeffs = build_majorana_coefficients(archive.v, archive.S)["VPs"]
        fop = factorize_coefficients(coeffs, threshold=0.05)
        ranks = {f.rank for bf in fop.blocks.values() for f in bf.inner_left + bf.inner_right}
        assert len(ranks) > 2  # ragged inner ranks
        path = tmp_path / "vps.factors"
        save_factor_cache(path, fop, archive.basis)
        loaded = load_factor_cache(path)
        assert_same_operator(loaded, fop)
        assert tf_norm(loaded).total == tf_norm(fop).total

    def test_empty_symmetric_factors_keep_their_shapes(self, tmp_path):
        rng = np.random.default_rng(3)
        zero = decompose_matrix(np.zeros((3, 2)))
        zero_t = decompose_matrix(np.zeros((2, 3)))
        assert zero.symmetric and zero.left.shape == (3, 0) and zero.right.shape == (2, 0)
        outer = decompose_matrix(rng.normal(size=(6, 3)) @ rng.normal(size=(3, 6)))
        block = BlockFactors(
            label="2",
            shape=(3, 2, 2, 3),
            outer=Factorization(outer.values, None, None, outer.symmetric),
            inner_left=[decompose_matrix(rng.normal(size=(3, 2))), zero, zero],
            inner_right=[zero_t, decompose_matrix(np.outer([1.0, 2.0], [1.0, 0.0, 3.0])), zero_t],
        )
        assert block.outer.rank == 3
        # a whole VPs operator, so the cache holds every factor its observable needs
        archive = demo_archive(3, 2)
        fop = factorize_coefficients(build_majorana_coefficients(archive.v, archive.S)["VPs"])
        fop.space_tag, fop.overlap = "active", zero
        fop.blocks["2"], fop.one_body["p_A"] = block, decompose_matrix(np.zeros((3, 3)))
        path = tmp_path / "empty.factors"
        save_factor_cache(path, fop, DimerBasis(3, 2, 2, 2))
        assert_same_operator(load_factor_cache(path), fop)

    def test_no_right_factor_for_symmetric_slices(self):
        archive = demo_archive(3, 2)
        fop = factorize_coefficients(build_majorana_coefficients(archive.v, archive.S)["VPs"])
        arrays = factor_archive(fop, archive.basis).arrays
        all_symmetric = 0
        for prefix, facts in cache_lists(fop):
            stored = [f.rank for f in facts if not f.symmetric or not f.rank]
            if prefix.endswith(".outer"):  # values only
                assert {f"{prefix}.left", f"{prefix}.right"}.isdisjoint(arrays), prefix
            elif stored:
                assert arrays[f"{prefix}.right"].shape[0] == sum(stored), prefix
            else:
                all_symmetric += 1
                assert f"{prefix}.right" not in arrays, prefix
        assert all_symmetric >= 5  # the one-body factors at least
        assert not any(re.search(r"\.\d{4}\.", name) for name in arrays)

    def test_old_layout_is_rejected(self, tmp_path):
        archive = demo_archive()
        coeffs = build_majorana_coefficients(archive.v, archive.S)["V"]
        fop = factorize_coefficients(coeffs)
        path = tmp_path / "old.factors"
        save_archive(path, TensorArchive(basis=archive.basis, arrays=old_layout_arrays(fop)))
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"
        assert "re-run `saptkit factorize`" in str(err.value)
        # the stacked layout with the outer vectors earlier versions also stored
        cache = factor_archive(fop, archive.basis)
        outer = first_factorize(coeffs.two_body_blocks["v"], "v").outer
        cache.arrays["factor.block.v.outer.left"] = outer.left.T
        cache.arrays["factor.block.v.outer.right"] = outer.right.T
        save_archive(path, cache)
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"
        assert "factor.block.v.outer.left" in str(err.value)
        assert "re-run `saptkit factorize`" in str(err.value)

    def test_float_coded_layout_is_rejected(self, tmp_path):
        # stacked factors beside float arrays of ranks, flags, shapes and names
        archive = demo_archive()
        fop = factorize_coefficients(build_majorana_coefficients(archive.v, archive.S)["VPs"])
        path = tmp_path / "float-coded.factors"
        save_archive(path, TensorArchive(basis=archive.basis, arrays=float_coded_arrays(fop)))
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"
        assert "re-run `saptkit factorize`" in str(err.value)

    def test_inconsistent_stack_is_schema_error(self, tmp_path):
        cache = v_cache()
        ranks = cache.factors["blocks"]["v"]["inner_left"]["rank"]
        ranks[:] = [k + 1 for k in ranks]
        path = tmp_path / "bad.factors"
        save_archive(path, cache)
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"

    def test_memory_stays_below_half_the_file(self, tmp_path):
        # the writer streams the factors: no joined copy of the stacks
        archive = demo_archive(12, 10)
        coeffs = build_majorana_coefficients(archive.v, archive.S)["VPs"]
        fop = factorize_coefficients(coeffs, threshold=1e-4)
        path = tmp_path / "vps.factors"
        tracemalloc.start()
        try:
            save_factor_cache(path, fop, archive.basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size


def v_cache(n_a=3, n_b=2) -> TensorArchive:
    archive = demo_archive(n_a, n_b)
    fop = factorize_coefficients(build_majorana_coefficients(archive.v, archive.S)["V"])
    return factor_archive(fop, archive.basis)


def holder(factors: dict, path: tuple):
    """The dict or list that holds the entry at ``path`` of a factors object."""
    for key in path[:-1]:
        factors = factors[key]
    return factors


class TestCacheSchema:
    """Each case edits the factors object and saves it with a valid checksum,
    so the typed check itself must reject it, as a schema error."""

    def load_saved(self, path, cache):
        save_archive(path, cache)
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"
        return str(err.value)

    @pytest.mark.parametrize(
        "edit", [lambda r: r + 0.5, lambda r: -r - 1, lambda r: True, lambda r: float(r)],
        ids=["fractional", "negative", "bool", "float"],
    )
    def test_rank_that_is_not_a_count_is_schema_error(self, tmp_path, edit):
        cache = v_cache()
        ranks = cache.factors["blocks"]["v"]["inner_left"]["rank"]
        ranks[0] = edit(ranks[0])
        assert "not counts" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize(
        "shape", [[5, 5, 2, 2], [3, 3, 2], [3, 3, 2, 2.5], [3, 3, 2, True], "3322", None]
    )
    def test_block_shape_must_fit_its_factors(self, tmp_path, shape):
        cache = v_cache()
        assert cache.factors["blocks"]["v"]["shape"] == [3, 3, 2, 2]
        cache.factors["blocks"]["v"]["shape"] = shape
        self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize("name", ["factor.meta.space", "factor.block.v.discarded"])
    def test_scalar_must_hold_one_number(self, tmp_path, name):
        # the space name and the discarded weight each hold one value, not a list
        cache = v_cache()
        if name == "factor.meta.space":
            cache.factors["space"] = []
        else:
            cache.factors["blocks"]["v"]["discarded"] = []
        self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize(
        "name",
        [1e7, 86.5, -86, "W", "VP", "", "v", None],
        ids=[
            "past-unicode", "fractional", "negative", "other-name", "VP", "empty", "lower", "null"
        ],
    )
    def test_observable_must_spell_a_known_name(self, tmp_path, name):
        cache = v_cache()
        cache.factors["observable"] = name
        assert "no known observable" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize("flag", [2.0, 0.5, -1.0, 1, 0, "true", None])
    def test_symmetric_flags_must_be_zero_or_one(self, tmp_path, flag):
        # flags are JSON booleans: the numbers 0 and 1 are not read as flags
        cache = v_cache()
        cache.factors["blocks"]["v"]["inner_left"]["symmetric"][0] = flag
        assert "not true or false" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize("space", [2.0, 0.5, -1.0, 0.0, 1.0, "Full", "frozen"])
    def test_space_must_be_zero_or_one(self, tmp_path, space):
        # the space is "full" or "active": the numbers 0 and 1 are not read as spaces
        cache = v_cache()
        cache.factors["space"] = space
        assert "space (full, active)" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("threshold",), 1.0),
            (("threshold",), -1e-3),
            (("threshold",), math.nan),
            (("threshold",), "0"),
            (("threshold",), False),
            (("blocks", "v", "discarded"), -0.5),
            (("blocks", "v", "discarded"), math.inf),
            (("blocks", "v", "discarded"), math.nan),
            (("blocks", "v", "discarded"), True),
            (("blocks", "v", "discarded"), 10**400),
        ],
        ids=["t-one", "t-negative", "t-nan", "t-string", "t-bool",
             "d-negative", "d-inf", "d-nan", "d-bool", "d-huge-int"],
    )
    def test_weights_must_be_numbers_in_range(self, tmp_path, path, value):
        cache = v_cache()
        holder(cache.factors, path)[path[-1]] = value
        assert "not a" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize(
        "path",
        [("observable",), ("threshold",), ("one_body",), ("blocks",), ("blocks", "v", "shape"),
         ("blocks", "v", "outer"), ("blocks", "v", "inner_left"),
         ("blocks", "v", "outer", "rank"), ("one_body", "f_A", "symmetric")],
        ids=lambda path: ".".join(path),
    )
    def test_missing_entry_is_schema_error(self, tmp_path, path):
        cache = v_cache()
        del holder(cache.factors, path)[path[-1]]
        assert "lacks" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize("change", ["extra", "missing", "renamed"])
    def test_arrays_must_be_the_ones_the_object_names(self, tmp_path, change):
        cache = v_cache()
        arrays = cache.arrays
        if change == "extra":
            arrays["factor.block.v.rank"] = np.array([1.0])
        elif change == "missing":
            del arrays["factor.one_body.f_A.values"]
        else:
            arrays["factor.block.v.inner_left.lefts"] = arrays.pop("factor.block.v.inner_left.left")
        self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize(
        "observable, kind, name",
        [("V", "blocks", "v"), ("V", "one_body", "f_B"), ("P", "one_body", "p_A"),
         ("VPs", "blocks", "3"), ("VPs", "one_body", "p_B")],
    )
    def test_cache_without_a_needed_factorization_is_schema_error(
        self, tmp_path, observable, kind, name
    ):
        # the entry and its arrays both go, so the checksum and the array list stay valid
        archive = demo_archive(3, 2)
        coeffs = build_majorana_coefficients(archive.v, archive.S)[observable]
        cache = factor_archive(factorize_coefficients(coeffs), archive.basis)
        del cache.factors[kind][name]
        dropped = f"factor.{'block' if kind == 'blocks' else kind}.{name}."
        cache.arrays = {k: a for k, a in cache.arrays.items() if not k.startswith(dropped)}
        assert f"of {observable} lacks {name}" in self.load_saved(tmp_path / "c", cache)

    def test_unknown_block_label_is_schema_error(self, tmp_path):
        cache = v_cache()
        cache.factors["blocks"]["w"] = cache.factors["blocks"].pop("v")
        cache.arrays = {n.replace(".block.v.", ".block.w."): a for n, a in cache.arrays.items()}
        assert "unknown block" in self.load_saved(tmp_path / "c", cache)

    @pytest.mark.parametrize("side", ["inner_left", "inner_right"])
    def test_inner_list_must_match_outer_rank(self, tmp_path, side):
        archive = demo_archive(3, 2)
        coeffs = build_majorana_coefficients(archive.v, archive.S)["VPs"]
        fop = factorize_coefficients(coeffs)
        bf = fop.blocks["2"]  # a non-symmetric block: both sides are stored
        assert bf.inner_right is not bf.inner_left and bf.outer.rank > 1
        setattr(bf, side, getattr(bf, side)[:-1])
        path = tmp_path / "short.factors"
        save_factor_cache(path, fop, archive.basis)
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "schema"

    @pytest.mark.parametrize("key", ["threshold", "discarded"])
    def test_changed_digit_in_the_object_is_checksum_error(self, tmp_path, key):
        # the payload checksum covers the factors object
        archive = demo_archive(3, 2)
        coeffs = build_majorana_coefficients(archive.v, archive.S)["VPs"]
        fop = factorize_coefficients(coeffs, threshold=0.05)
        path = tmp_path / "vps.factors"
        save_factor_cache(path, fop, archive.basis)
        data = path.read_bytes()
        # the first nonzero digit after the point moves by one: a different number
        match = re.search(rb'"%s": \d\.\d*?[1-8]' % key.encode(), data)
        at = match.end() - 1
        path.write_bytes(data[:at] + bytes([data[at] + 1]) + data[at + 1 :])
        with pytest.raises(ArchiveError) as err:
            load_factor_cache(path)
        assert err.value.code == "checksum"

    def test_bad_dimer_counts_are_archive_errors(self, tmp_path):
        path = tmp_path / "d.sapt"
        save_archive(path, demo_archive())
        data = path.read_bytes()
        path.write_bytes(data.replace(b'"n_elec_A": 2', b'"n_elec_A": 9'))
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "shape"

    def test_manifest_longer_than_the_file_is_schema_error(self, tmp_path):
        path = tmp_path / "d.sapt"
        save_archive(path, demo_archive())
        data = bytearray(path.read_bytes())
        data[15] = 0x7F
        path.write_bytes(bytes(data))
        with pytest.raises(ArchiveError) as err:
            load_archive(path)
        assert err.value.code == "schema"


def cache_lists(fop: FactorizedOperator):
    """(array prefix, factorizations) of every list a factor cache stacks."""
    for name, fact in fop.one_body.items():
        yield f"factor.one_body.{name}", [fact]
    if fop.overlap is not None:
        yield "factor.overlap", [fop.overlap]
    for label, bf in fop.blocks.items():
        yield f"factor.block.{label}.outer", [bf.outer]
        yield f"factor.block.{label}.inner_left", bf.inner_left
        if bf.inner_right is not bf.inner_left:
            yield f"factor.block.{label}.inner_right", bf.inner_right


def joined_stacks(fop: FactorizedOperator) -> dict:
    """A factor cache's stacks, each joined by ``np.concatenate`` first: the
    reference the streaming writer must match byte for byte."""
    out = {}

    def stack(mats):
        return np.concatenate(mats) if mats else np.zeros((0, 0))

    for prefix, facts in cache_lists(fop):
        out[f"{prefix}.values"] = np.concatenate([f.values for f in facts] or [np.zeros(0)])
        if prefix.endswith(".outer"):
            continue  # a block's outer step stores its values only
        out[f"{prefix}.left"] = stack([f.left.T for f in facts])
        rights = [f.right.T for f in facts if not f.symmetric or not f.rank]
        if rights:
            out[f"{prefix}.right"] = stack(rights)
    return out


def float_coded_arrays(fop: FactorizedOperator) -> dict:
    """A factor cache as the float-coded layout held it: the stacks, plus
    ranks, flags, shapes, weights and names as float arrays."""
    out = joined_stacks(fop)
    for prefix, facts in cache_lists(fop):
        out[f"{prefix}.rank"] = np.array([f.rank for f in facts], dtype=float)
        out[f"{prefix}.symmetric"] = np.array([f.symmetric for f in facts], dtype=float)
    for label, bf in fop.blocks.items():
        out[f"factor.block.{label}.shape"] = np.array(bf.shape, dtype=float)
        out[f"factor.block.{label}.discarded"] = np.array(bf.discarded_weight)
    out["factor.meta.threshold"] = np.array(fop.threshold)
    out["factor.meta.observable"] = np.array([float(ord(c)) for c in fop.observable])
    out["factor.meta.space"] = np.array(1.0 if fop.space_tag == "active" else 0.0)
    return out


@st.composite
def factorizations(draw, rows: int, cols: int) -> Factorization:
    """Ranks 0-3, symmetric or not, in C or Fortran order, or a truncated view."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(0, 3))
    symmetric = draw(st.booleans()) and (rows == cols or not rank)
    extra = draw(st.integers(0, 2)) if rank else 0
    order = draw(st.sampled_from("CF"))
    left = np.asarray(rng.normal(size=(rows, rank + extra)), order=order)
    right = np.asarray(rng.normal(size=(cols, rank + extra)), order=order)
    if symmetric and rank:
        right = left
    fact = Factorization(rng.normal(size=rank + extra), left, right, symmetric)
    return fact.truncated(rank) if extra else fact


# stored index order of each block label's monomers
MONOMERS = {"v": "AABB", "A2": "AAAA", "B2": "BBBB", "1m": "AABB", "1l": "AABB",
            "2": "AABA", "2r": "AABA", "3": "ABBB", "3r": "ABBB"}


@st.composite
def factorized_operators(draw) -> FactorizedOperator:
    """Every factorization its observable needs; VPs with or without `2r`/`3r`."""
    n_a, n_b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    fop = FactorizedOperator(
        observable=draw(st.sampled_from(["V", "P", "VPs"])),
        space_tag=draw(st.sampled_from(["full", "active"])),
        threshold=draw(st.sampled_from([0.0, 1e-4, 0.05])),
    )
    for name in _ONE_BODY[fop.observable]:
        n = n_a if name.endswith("A") else n_b
        fop.one_body[name] = draw(factorizations(n, n))
    if draw(st.booleans()):
        fop.overlap = draw(factorizations(n_a, n_b))
    for label in _BLOCK_LABELS[fop.observable]:
        if label in ("2r", "3r") and not draw(st.booleans()):
            continue
        shape = tuple(n_a if x == "A" else n_b for x in MONOMERS[label])
        bf = BlockFactors(label=label, shape=shape, outer=None)
        (r1, r2), (c1, c2) = bf.row_shape, bf.col_shape
        outer = draw(factorizations(r1 * r2, c1 * c2))  # past the inner step: no vectors
        bf.outer = Factorization(outer.values, None, None, outer.symmetric)
        bf.inner_left = [draw(factorizations(r1, r2)) for _ in range(bf.outer.rank)]
        if (r1, r2) == (c1, c2) and draw(st.booleans()):
            bf.inner_right = bf.inner_left
        else:
            bf.inner_right = [draw(factorizations(c1, c2)) for _ in range(bf.outer.rank)]
        bf.discarded_weight = draw(st.sampled_from([0.0, 0.25]))
        fop.blocks[label] = bf
    return fop


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=6,
)


class TestCacheProperties:
    @settings(
        max_examples=60,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fop=factorized_operators())
    def test_streamed_cache_matches_joined_reference(self, tmp_path, fop):
        basis = DimerBasis(3, 3, 2, 2)
        path, ref = tmp_path / "streamed.factors", tmp_path / "joined.factors"
        save_factor_cache(path, fop, basis)
        factors = factor_archive(fop, basis).factors
        save_archive(ref, TensorArchive(basis=basis, arrays=joined_stacks(fop), factors=factors))
        assert path.read_bytes() == ref.read_bytes()
        assert_same_operator(load_factor_cache(path), fop)

    @settings(
        max_examples=150,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        flips=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), max_size=3),
        cut=st.one_of(st.none(), st.integers(0, 2**20)),
    )
    @pytest.mark.parametrize("kind", ["cache", "input"])
    def test_damaged_file_loads_or_raises_archive_error(self, tmp_path, kind, flips, cut):
        path = tmp_path / kind
        if not path.exists():
            if kind == "cache":
                save_archive(path, v_cache(2, 2))
            else:
                save_archive(path, demo_archive())
        data = bytearray(path.read_bytes())
        for at, mask in flips:
            data[at % len(data)] ^= mask
        if cut is not None:
            data = data[: cut % len(data)]
        damaged = tmp_path / "damaged"
        damaged.write_bytes(bytes(data))
        try:
            (load_factor_cache if kind == "cache" else load_archive)(damaged)
        except ArchiveError:
            pass

    @settings(
        max_examples=100,
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_edited_object_loads_or_raises_archive_error(self, tmp_path, data):
        # any entry of the factors object replaced or deleted, saved with a valid checksum
        cache = v_cache(2, 2)
        parent, key, node = cache, "factors", cache.factors
        while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = data.draw(st.sampled_from(keys))
            parent, node = node, node[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        elif parent is cache:
            cache.factors = data.draw(JSON_VALUES)
        else:
            parent[key] = data.draw(JSON_VALUES)
        save_archive(tmp_path / "edited", cache)
        try:
            load_factor_cache(tmp_path / "edited")
        except ArchiveError:
            pass


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


def read_fcidump_reference(path):
    """The line-by-line FCIDUMP reader the vectorized one replaced.

    It skips a body line that does not have five fields, where the vectorized
    reader rejects it; on well-formed files the two must agree bit for bit.
    """
    text = Path(path).read_text()
    lower = text.lower()
    start = lower.find("&fci")
    pos, token = min(
        (pos, token) for token in ("&end", "/") if (pos := lower.find(token, start)) != -1
    )
    header = text[start:pos]
    body = text[pos + len(token) :].replace("D", "E").replace("d", "e")
    n_orb = int(re.search(r"NORB\s*=\s*(\d+)", header, re.IGNORECASE).group(1))
    n_elec = int(re.search(r"NELEC\s*=\s*(\d+)", header, re.IGNORECASE).group(1))
    h1 = np.zeros((n_orb, n_orb))
    eri = np.zeros((n_orb, n_orb, n_orb, n_orb))
    core = 0.0
    for line in body.splitlines():
        parts = line.split()
        if len(parts) != 5:
            continue
        val = float(parts[0])
        i, j, k, l = map(int, parts[1:])
        if 0 < i <= n_orb and 0 < j <= n_orb and 0 < k <= n_orb and 0 < l <= n_orb:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                eri[p, q, r, s] = val
        elif k == l == 0 and 0 < i <= n_orb and 0 < j <= n_orb:
            h1[i - 1, j - 1] = val
            h1[j - 1, i - 1] = val
        elif i == j == k == l == 0:
            core = val
        elif not (j == k == l == 0 and 0 < i <= n_orb):
            raise ValueError(f"index outside 1..{n_orb}: {line.strip()!r}")
    return h1, eri, n_orb, n_elec, core


def random_fcidump_text(rng: np.random.Generator, n: int) -> str:
    """Seeded FCIDUMP text: shuffled lines, repeated orbits in permuted index
    order with new values, several core lines, orbital energies, and values
    in E, D and d exponent notation."""
    lines = []
    for _ in range(int(rng.integers(1, 3 * n**4 + 2))):
        i, j, k, l = (int(x) for x in rng.integers(1, n + 1, size=4))
        lines.append((i, j, k, l))
    for _ in range(int(rng.integers(0, 2 * n * n + 2))):
        i, j = (int(x) for x in rng.integers(1, n + 1, size=2))
        lines.append((i, j, 0, 0))
    lines += [(0, 0, 0, 0)] * int(rng.integers(0, 3))
    lines += [(int(i), 0, 0, 0) for i in rng.integers(1, n + 1, size=int(rng.integers(0, n + 1)))]
    order = rng.permutation(len(lines))
    out = [f" &FCI NORB={n},NELEC={2 * n},MS2=0,", "  ORBSYM=" + "1," * n, "  ISYM=1,", " &END"]
    for t in order:
        value = f"{rng.normal() * 10.0 ** int(rng.integers(-12, 3)):.16E}"
        value = value.replace("E", str(rng.choice(["E", "D", "d"])))
        out.append(f"{value} {'   '.join(str(x) for x in lines[t])}")
    return "\n".join(out) + "\n"


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

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_line_by_line_reference(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        path = tmp_path / "r.fcidump"
        path.write_text(random_fcidump_text(rng, 1 + seed % 5))
        h1, eri, n_orb, n_elec, core = read_fcidump(path)
        ref = read_fcidump_reference(path)
        assert (n_orb, n_elec) == ref[2:4]
        assert h1.tobytes() == ref[0].tobytes() and eri.tobytes() == ref[1].tobytes()
        assert type(core) is float and np.array(core).tobytes() == np.array(ref[4]).tobytes()

    def test_later_line_fills_the_whole_orbit(self, tmp_path):
        path = tmp_path / "o.fcidump"
        path.write_text(
            "&FCI NORB=4,NELEC=2,\n&END\n  0.25  1 2 3 4\n  0.75  2 1 4 3\n  0.5  3 4 1 2\n"
            "  0.125  4 3 2 1\n  -1.0  2 1 0 0\n  -2.0  1 2 0 0\n"
        )
        h1, eri, *_ = read_fcidump(path)
        orbit = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2),
                 (2, 3, 0, 1), (3, 2, 0, 1), (2, 3, 1, 0), (3, 2, 1, 0)]
        assert all(eri[o] == 0.125 for o in orbit)
        assert np.count_nonzero(eri) == 8
        assert h1[0, 1] == h1[1, 0] == -2.0

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["  0.7   1   1   2"], "line does not have 5 fields: '0.7   1   1   2'"),
            (["  0.7  1 1 2", "  0.3  1 1 1 1 1"], "line does not have 5 fields: '0.7  1 1 2'"),
            (["  nan   1   1   1   1"], "value is not finite: 'nan   1   1   1   1'"),
            (["  -inf  1   1   0   0"], "value is not finite: '-inf  1   1   0   0'"),
            (["  1D999 1   1   2   2"], "value is not finite: '1E999 1   1   2   2'"),
        ],
        ids=["four-fields", "four-then-six", "nan", "inf", "overflow"],
    )
    def test_strict_lines(self, tmp_path, lines, message):
        path = tmp_path / "bad.fcidump"
        path.write_text(FCIDUMP_TEXT + "\n".join(lines) + "\n")
        with pytest.raises(ArchiveError) as err:
            read_fcidump(path)
        assert err.value.code == "schema"
        assert f"FCIDUMP {message}" in str(err.value)

    def test_fortran_exponents(self, tmp_path):
        plain = tmp_path / "plain.fcidump"
        plain.write_text(FCIDUMP_TEXT)
        fortran = tmp_path / "fortran.fcidump"
        fortran.write_text(FCIDUMP_TEXT.replace("E+00", "D+00", 3).replace("E+00", "d+00"))
        assert "D+00" in fortran.read_text() and "d+00" in fortran.read_text()
        for got, want in zip(read_fcidump(fortran), read_fcidump(plain)):
            assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize(
        "line, quoted",
        [
            (b"  0.5x  1   1   1   1", "'0.5x  1   1   1   1'"),
            (b"  0.5   1   1   1 \xff", "'0.5   1   1   1 \\xff'"),
            (b"\xff\xfe0.5   1   1   1   1", "'\\xff\\xfe0.5   1   1   1   1'"),
            (b"  0.5d0 1   1   1   e", "'0.5e0 1   1   1   e'"),
        ],
        ids=["letter", "byte-0xff", "utf16-mark", "fortran-exponent"],
    )
    def test_unparsable_line_is_quoted(self, tmp_path, line, quoted):
        # the body is parsed as bytes: any byte is a schema error naming its line
        path = tmp_path / "bad.fcidump"
        path.write_bytes(FCIDUMP_TEXT.encode() + line + b"\n")
        with pytest.raises(ArchiveError) as err:
            read_fcidump(path)
        assert err.value.code == "schema"
        assert f"FCIDUMP line does not parse: {quoted}" in str(err.value)

    def test_blank_lines_do_not_shift_the_quoted_line(self, tmp_path):
        path = tmp_path / "bad.fcidump"
        path.write_text(FCIDUMP_TEXT.replace("\n", "\n\n   \n") + "  0.5   1   5   0   0\n")
        with pytest.raises(ArchiveError, match=r"index outside 1\.\.2: '0\.5   1   5   0   0'"):
            read_fcidump(path)

    def test_header_only_file_is_empty_hamiltonian(self, tmp_path):
        path = tmp_path / "empty.fcidump"
        path.write_text("&FCI NORB=2,NELEC=2,\n&END\n  \n")
        h1, eri, n_orb, _, core = read_fcidump(path)
        assert n_orb == 2 and core == 0.0 and not h1.any() and not eri.any()

    def test_header_ends_after_fci(self, tmp_path):
        path = tmp_path / "h2.fcidump"
        text = FCIDUMP_TEXT.replace("&END", "/")
        path.write_text("! integrals from a/b\n" + text)
        h1, _, n_orb, n_elec, core = read_fcidump(path)
        assert (n_orb, n_elec) == (2, 2)
        assert h1[1, 1] == pytest.approx(-0.4759344611440753)
        assert core == pytest.approx(0.7137758743754461)
