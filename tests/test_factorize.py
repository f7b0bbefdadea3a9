import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saptkit.active import (
    SpacePartition,
    renormalize_electrostatic,
    renormalize_exchange,
    renormalize_vp,
)
from saptkit.errors import DomainError, SymmetryError
from saptkit import factorize
from saptkit.factorize import (
    RANK_CUTOFF,
    BlockFactors,
    _check_stack,
    _decompose_stack,
    _fix_signs,
    _PairPacking,
    decompose_matrix,
    factorize_block,
    factorize_coefficients,
    first_factorize,
    inner_values,
    reconstruct_block,
    second_factorize,
    _symmetrize,
    shared_blocks,
    truncate_block,
)
from saptkit.norms import tf_norm
from saptkit.tensors import BLOCKS, SaptCoefficients, build_majorana_coefficients
from .conftest import random_dimer


class TestFirstFactorize:
    def test_zero_tensor_empty(self):
        bf = first_factorize(np.zeros((2, 2, 2, 2)), "v")
        assert bf.outer.rank == 0

    def test_rank_one(self, rng):
        n = 2
        x = rng.normal(size=n * n)
        c = 1.7
        block = (c * np.outer(x, x)).reshape(n, n, n, n)
        bf = first_factorize(block, "A2")
        assert bf.outer.rank == 1
        assert bf.outer.values[0] == pytest.approx(c * x @ x)
        got = bf.outer.left[:, 0]
        ref = x / np.linalg.norm(x)
        assert np.allclose(got, np.sign(ref[np.argmax(np.abs(ref))]) * ref)

    def test_trace_norm_bounded_by_entrywise(self, rng):
        m = rng.normal(size=(4, 4))
        m = m + m.T
        block = m.reshape(2, 2, 2, 2)
        bf = first_factorize(block, "A2")
        assert np.abs(bf.outer.values).sum() <= np.abs(m).sum() + 1e-12

    def test_nan_rejected(self):
        m = np.full((2, 2), np.nan)
        with pytest.raises(DomainError):
            decompose_matrix(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_nonfinite_entry_in_a_stack_rejected(self, rng, bad):
        ms = rng.normal(size=(3, 4, 4))
        ms[1, 2, 3] = bad
        with pytest.raises(DomainError):
            _check_stack(ms, None)


class TestSecondFactorize:
    def test_identity(self):
        f = decompose_matrix(np.eye(3))
        assert f.symmetric
        assert np.allclose(f.values, 1.0)
        assert np.allclose(f.reconstruct(), np.eye(3))

    def test_diagonal_ordering(self):
        f = decompose_matrix(np.diag([2.0, -1.0]))
        assert np.allclose(f.values, [2.0, -1.0])

    def test_rectangular_orthogonality(self, rng):
        m = rng.normal(size=(3, 2))
        f = decompose_matrix(m)
        assert not f.symmetric
        assert np.allclose(f.left.T @ f.left, np.eye(f.rank), atol=1e-12)
        assert np.allclose(f.right.T @ f.right, np.eye(f.rank), atol=1e-12)
        assert np.abs(f.reconstruct() - m).max() < 1e-12


class TestOverlapSvd:
    def test_identity(self):
        f = decompose_matrix(np.eye(2), symmetric=False)
        assert np.allclose(f.values, [1.0, 1.0])
        assert np.abs(f.values).sum() == pytest.approx(2.0)

    def test_diagonal(self):
        f = decompose_matrix(np.diag([1.0, 0.5]), symmetric=False)
        assert np.allclose(f.values, [1.0, 0.5])

    def test_rectangular_rank_and_reconstruction(self, rng):
        s = rng.normal(size=(4, 2))
        f = decompose_matrix(s, symmetric=False)
        assert f.rank <= 2
        assert np.all(f.values >= 0)
        assert np.abs(f.reconstruct() - s).max() < 1e-12


class TestOneBody:
    def test_zero_spectrum_empty(self):
        assert decompose_matrix(np.zeros((3, 3)), symmetric=True).rank == 0

    def test_diagonal(self):
        f = decompose_matrix(np.diag([3.0, -1.0]), symmetric=True)
        assert np.allclose(f.values, [3.0, -1.0])

    def test_random_reconstruction(self, rng):
        m = rng.normal(size=(5, 5))
        m = m + m.T
        f = decompose_matrix(m, symmetric=True)
        assert np.abs(f.reconstruct() - m).max() < 1e-12
        assert np.allclose(f.left.T @ f.left, np.eye(5), atol=1e-12)

    def test_rejects_asymmetric(self, rng):
        with pytest.raises(SymmetryError):
            decompose_matrix(rng.normal(size=(3, 3)), symmetric=True)


class TestRoundTrip:
    @pytest.mark.parametrize("label,shape", [
        ("v", (3, 3, 2, 2)),
        ("A2", (3, 3, 3, 3)),
        ("1l", (3, 3, 2, 2)),
        ("2", (3, 3, 2, 3)),
        ("3", (3, 2, 2, 2)),
    ])
    def test_blocks_reconstruct(self, rng, label, shape):
        block = rng.normal(size=shape)
        bf = factorize_block(block, label)
        rec = reconstruct_block(bf)
        assert np.linalg.norm(rec - block) < 1e-10 * max(np.linalg.norm(block), 1.0)

    def test_all_observable_blocks_round_trip(self, rng):
        v, s = random_dimer(rng, 4, 3)
        coeffs = build_majorana_coefficients(v, s)
        for c in coeffs.values():
            fop = factorize_coefficients(c)
            for label, bf in fop.blocks.items():
                ref = c.two_body_blocks[label]
                err = np.linalg.norm(reconstruct_block(bf) - ref)
                assert err < 1e-10 * max(np.linalg.norm(ref), 1.0), label

    def test_zero_factors_zero_tensor(self):
        bf = factorize_block(np.zeros((2, 2, 2, 2)), "v")
        assert not reconstruct_block(bf).any()

    def test_determinism(self, rng):
        block = rng.normal(size=(3, 3, 3, 3))
        block = 0.5 * (block + block.transpose(2, 3, 0, 1))
        a, b = (first_factorize(block.copy(), "A2") for _ in range(2))
        assert np.array_equal(a.outer.values, b.outer.values)
        assert np.array_equal(a.outer.left, b.outer.left)
        a, b = second_factorize(a), second_factorize(b)
        for t in range(a.outer.rank):
            assert np.array_equal(a.inner_left[t].left, b.inner_left[t].left)

    def test_degenerate_eigenvalues_deterministic(self):
        m = np.kron(np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]))
        a = decompose_matrix(m.copy())
        b = decompose_matrix(m.copy())
        assert np.array_equal(a.left, b.left)


def coefficient_sets(rng, partitioned):
    """The V, P and VPs sets of a random 5 x 4 dimer, in the full space or with
    one core orbital per monomer (whose VPs set carries 2r and 3r)."""
    v, s = random_dimer(rng, 5, 4)
    if not partitioned:
        return list(build_majorana_coefficients(v, s).values())
    part = SpacePartition((0,), (1, 2, 3, 4), (0,), (1, 2, 3), 2, 2)
    return [
        renormalize_electrostatic(v, part),
        renormalize_exchange(s, part),
        renormalize_vp(v, s, part),
    ]


class TestInputUnchanged:
    """factorize_coefficients leaves the coefficient set it factorizes as it was:
    callers, and the benchmark's factor probe, read the set after the call."""

    @pytest.mark.parametrize("held", [None, ("v", "1l", "2r")], ids=["all", "subset"])
    @pytest.mark.parametrize("threshold", [0.0, 1e-4])
    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    def test_blocks_unchanged(self, rng, held, threshold, partitioned):
        for coeffs in coefficient_sets(rng, partitioned):
            for label in set(coeffs.two_body_blocks) - set(held or coeffs.two_body_blocks):
                del coeffs.two_body_blocks[label]  # as the CLI drops the blocks it skips
            blocks = dict(coeffs.two_body_blocks)
            copies = {label: block.copy() for label, block in blocks.items()}
            fop = factorize_coefficients(coeffs, threshold)
            assert set(fop.blocks) == set(blocks)
            assert coeffs.two_body_blocks == blocks  # same keys, same array objects
            for label, block in blocks.items():
                assert block.tobytes() == copies[label].tobytes(), label

    @pytest.mark.parametrize("threshold", [0.0, 1e-4])
    @pytest.mark.parametrize("partitioned", [False, True], ids=["full", "cores"])
    def test_consume_hands_each_block_over(self, rng, threshold, partitioned):
        # the same factors, and the set keeps no block it factorized
        for coeffs in coefficient_sets(rng, partitioned):
            kept = factorize_coefficients(coeffs, threshold)
            fop = factorize_coefficients(coeffs, threshold, consume=True)
            assert coeffs.two_body_blocks == {} and set(fop.blocks) == set(kept.blocks)
            for label, bf in fop.blocks.items():
                assert_same_block(bf, kept.blocks[label])

    def test_viewed_symmetric_block_unchanged(self, rng):
        # symmetric to SYM_TOL but neither exactly so nor pair-symmetric: the
        # eigendecomposition gets a view of the caller's array, to symmetrize
        coeffs = build_majorana_coefficients(*random_dimer(rng, 3, 2))["VPs"]
        x = rng.normal(size=(3, 3, 3, 3))
        block = x + x.transpose(2, 3, 0, 1) + 1e-13 * rng.normal(size=x.shape)
        coeffs.two_body_blocks["A2"] = block
        copy = block.copy()
        assert factorize_coefficients(coeffs).blocks["A2"].outer.symmetric
        assert coeffs.two_body_blocks["A2"] is block and block.tobytes() == copy.tobytes()


class TestSymmetrizeInPlace:
    @pytest.mark.parametrize("n", [600, 512, 5, 1])
    def test_bits_of_the_out_of_place_sum(self, rng, n):
        m = rng.normal(size=(n, n))
        want = m + m.T
        want *= 0.5
        _symmetrize(m)
        assert m.tobytes() == want.tobytes()

    def test_first_factorize_keeps_the_bits(self, rng):
        # "1l" is the one label whose grouped matrix is a copy, symmetrized in place
        block = build_majorana_coefficients(*random_dimer(rng, 4, 3))["VPs"].two_body_blocks["1l"]
        m = np.transpose(block, BLOCKS["1l"].axes).reshape(1, 12, 12)
        want = _decompose_stack(m, *_check_stack(m, None))[0]
        got = first_factorize(block, "1l").outer
        assert got.symmetric and want.symmetric
        for a, b in ((got.values, want.values), (got.left, want.left)):
            assert a.tobytes() == b.tobytes()


class TestTruncate:
    def test_zero_threshold_identity(self, rng):
        block = rng.normal(size=(3, 3, 2, 2))
        bf = factorize_block(block, "v")
        assert truncate_block(bf, 0.0) is bf

    def test_never_drops_all(self, rng):
        x = rng.normal(size=4)
        block = np.outer(x, x).reshape(2, 2, 2, 2)
        bf = factorize_block(block, "A2")
        cut = truncate_block(bf, 0.5)
        assert cut.outer.rank >= 1

    def test_threshold_domain(self, rng):
        bf = factorize_block(rng.normal(size=(2, 2, 2, 2)), "v")
        with pytest.raises(DomainError):
            truncate_block(bf, 1.0)

    def test_residual_within_bound(self, rng):
        block = rng.normal(size=(4, 4, 3, 3))
        bf = factorize_block(block, "v")
        cut = truncate_block(bf, 0.05)
        residual = np.linalg.norm(reconstruct_block(cut) - block)
        assert residual <= 2.0 * max(cut.discarded_weight, 1e-14)

    def test_lambda_monotone_under_truncation(self, rng):
        v, s = random_dimer(rng, 4, 4)
        coeffs = build_majorana_coefficients(v, s)["V"]
        totals = []
        for thr in (0.0, 1e-4, 1e-2, 0.1):
            totals.append(tf_norm(factorize_coefficients(coeffs, thr)).total)
        assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(totals, totals[1:]))


def fix_sign_columns_reference(u, v=None):
    """Per-column sign rule: largest-magnitude entry positive, ties to the lowest index."""
    for k in range(u.shape[1]):
        col = u[:, k]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.nonzero(mags >= top - 1e-12 * top)[0][0])
        if col[lead] < 0:
            u[:, k] = -col
            if v is not None:
                v[:, k] = -v[:, k]
    return u, v


class TestSignRule:
    def test_matches_column_loop_on_random_stacks(self, rng):
        u = rng.normal(size=(5, 7, 6))
        v = rng.normal(size=(5, 4, 6))
        ref_u, ref_v = u.copy(), v.copy()
        for i in range(len(u)):
            fix_sign_columns_reference(ref_u[i], ref_v[i])
        _fix_signs(u, v)
        assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)

    def test_matches_column_loop_on_ties(self):
        top = 0.6
        cols = [
            [top, -top, 0.1],  # exact tie, lowest index positive
            [-top, top, 0.1],  # exact tie, lowest index negative
            [0.1, top * (1 - 5e-13), -top],  # near tie inside 1e-12: lowest index leads
            [0.1, -top * (1 - 5e-13), top],
            [0.1, -top * (1 - 5e-12), top],  # outside 1e-12: the largest leads
            [-top * (1 - 5e-12), 0.1, top],
            [0.0, 0.0, 0.0],
        ]
        u = np.array(cols).T
        v = np.arange(1.0, 1.0 + u.size).reshape(u.shape)
        ref_u, ref_v = fix_sign_columns_reference(u.copy(), v.copy())
        _fix_signs(u, v)
        assert np.array_equal(u, ref_u) and np.array_equal(v, ref_v)
        flipped = np.all(ref_u == -np.array(cols).T, axis=0) & np.any(ref_u, axis=0)
        assert list(flipped) == [False, True, False, True, False, False, False]

    @pytest.mark.parametrize("shape, symmetric", [((6, 6), True), ((6, 4), False), ((3, 5), False)])
    def test_decompositions_follow_the_rule(self, rng, shape, symmetric):
        m = rng.normal(size=shape)
        m = m + m.T if symmetric else m
        f = decompose_matrix(m)
        assert f.symmetric == symmetric and follows_sign_rule(f.left)
        assert np.abs(f.reconstruct() - m).max() < 1e-12


def follows_sign_rule(u):
    return np.array_equal(fix_sign_columns_reference(u.copy())[0], u)


class TestBatchedInner:
    @pytest.mark.parametrize("label, inner_symmetric", [("1l", False), ("v", True)])
    def test_equals_per_matrix_decomposition(self, rng, label, inner_symmetric):
        v, s = random_dimer(rng, 4, 3)
        block = build_majorana_coefficients(v, s)["VPs"].two_body_blocks[label]
        bf, outer = factorize_with_outer_vectors(block, label)
        assert bf.outer.left is bf.outer.right is None  # consumed by the inner step
        for facts, vecs, shape in (
            (bf.inner_left, outer.left, bf.row_shape),
            (bf.inner_right, outer.right, bf.col_shape),
        ):
            assert len(facts) == bf.outer.rank > 0
            for t, fact in enumerate(facts):
                ref = decompose_matrix(vecs[:, t].reshape(shape))
                assert fact.symmetric == ref.symmetric == inner_symmetric
                for got, want in zip(
                    (fact.values, fact.left, fact.right), (ref.values, ref.left, ref.right)
                ):
                    assert np.array_equal(got, want)

    def test_every_label_equals_per_matrix_decomposition(self, rng):
        pairs = blocks_of_every_label(rng)
        # an A2 block 3e-12 off pair symmetry is not packed, and its inner stack
        # mixes matrices symmetric to SYM_TOL (unpacked eigh) with svd ones
        a2 = dict(pairs)["A2"]
        noise = rng.normal(size=a2.shape)
        noise = noise - noise.transpose(1, 0, 2, 3)
        noise = noise + noise.transpose(2, 3, 0, 1)
        pairs.append(("A2", a2 + 3e-12 * np.abs(a2).max() * noise))
        seen = set()
        for label, block in pairs:
            bf, outer = factorize_with_outer_vectors(block, label)
            for facts, vecs, shape, packed in sides(bf, outer):
                assert len(facts) == bf.outer.rank > 0, label
                for t, fact in enumerate(facts):
                    ref = decompose_matrix(vecs[:, t].reshape(shape))
                    assert_same_factors(fact, ref, f"{label}[{t}]")
                    assert follows_sign_rule(fact.left), label
                    seen.add((packed, fact.symmetric))
            if label in ("2", "3", "2r", "3r"):
                assert bf.packed[0] != bf.packed[1], label  # one packed side, one not
        # packed sides (always eigh), unpacked eigh sides and unpacked svd sides
        assert seen == {(True, True), (False, True), (False, False)}

    def test_packed_inner_matrices_are_exactly_symmetric(self, rng):
        packed_sides = 0
        for label, block in blocks_of_every_label(rng):
            bf = first_factorize(block, label)
            for _, vecs, shape, packed in sides(bf, bf.outer):
                if packed:
                    ms = vecs.T.reshape(-1, *shape)
                    assert np.array_equal(ms, ms.transpose(0, 2, 1)), label
                    packed_sides += 1
        assert packed_sides > 0

    def test_missing_packing_record_takes_checked_path(self, rng, monkeypatch):
        checked = []
        check = factorize._check_stack
        monkeypatch.setattr(
            factorize, "_check_stack", lambda ms, sym: checked.append(ms.shape) or check(ms, sym)
        )
        for label, block in blocks_of_every_label(rng):
            first = first_factorize(block, label)
            bare = BlockFactors(label=label, shape=first.shape, outer=first.outer)
            assert bare.packed == (False, False)
            n_sides = 1 if first.outer.symmetric else 2
            checked.clear()
            fast = second_factorize(first)
            assert len(checked) == sum(not p for p in first.packed[:n_sides]), label
            checked.clear()
            slow = second_factorize(bare)
            assert len(checked) == n_sides, label  # every side through _check_stack
            for side in ("inner_left", "inner_right"):
                got, want = getattr(slow, side), getattr(fast, side)
                assert len(got) == len(want), label
                for t, (g, w) in enumerate(zip(got, want)):
                    assert_same_factors(g, w, f"{label}[{t}]")

    def test_inner_values_equal_second_factorize_values(self, rng):
        # eigvalsh and values-only svd are other LAPACK drivers than eigh and
        # svd, so the values agree to rounding; the kept counts agree exactly
        for label, block in blocks_of_every_label(rng):
            first = first_factorize(block, label)
            values = inner_values(first)
            facts = factorize_block(block, label).inner_left
            assert len(values) == len(facts), label
            for got, fact in zip(values, facts):
                assert got.shape == fact.values.shape, label
                assert np.abs(got - fact.values).max() <= 1e-13 * np.abs(fact.values).max(), label
            # without the packing record the checked path gives the same bits
            bare = BlockFactors(label=label, shape=first.shape, outer=first.outer)
            for got, want in zip(inner_values(bare), values):
                assert np.array_equal(got, want), label


def assert_same_factors(got, want, where):
    assert got.symmetric == want.symmetric, where
    for a, b in zip((got.values, got.left, got.right), (want.values, want.left, want.right)):
        assert a.shape == b.shape and np.array_equal(a, b), where


def factorize_with_outer_vectors(block, label):
    """factorize_block's factors, and the outer step of its first_factorize,
    with the vectors its inner step consumed."""
    first = first_factorize(block, label)
    outer = first.outer
    return second_factorize(first), outer


def sides(bf, outer):
    """(inner factors, grouped vectors, matrix shape, packed) of each side of a
    block, the vectors those of ``outer``, the block's first_factorize step."""
    return (
        (bf.inner_left, outer.left, bf.row_shape, bf.packed[0]),
        (bf.inner_right, outer.right, bf.col_shape, bf.packed[1]),
    )


def blocks_of_every_label(rng):
    """(label, block) pairs at 4 x 3 orbitals covering every label of BLOCKS.

    The full-space coefficient sets, plus the active-space sets of a 5 x 4
    dimer with one core orbital per monomer, which carry 2r and 3r.
    """
    v, s = random_dimer(rng, 5, 4)
    part = SpacePartition((0,), (1, 2, 3, 4), (0,), (1, 2, 3), 2, 2)
    sets = [
        *build_majorana_coefficients(v[1:, 1:, 1:, 1:], s[1:, 1:]).values(),
        renormalize_exchange(s, part),
        renormalize_vp(v, s, part),
    ]
    pairs = [item for c in sets for item in c.two_body_blocks.items()]
    assert {label for label, _ in pairs} == set(BLOCKS)
    return pairs


class TestPackedOuter:
    def test_packed_sides_match_unpacked_reference(self, rng):
        packed_labels = set()
        for label, block in blocks_of_every_label(rng):
            t = np.transpose(block, BLOCKS[label].axes)
            n1, n2, n3, n4 = t.shape
            m = t.reshape(n1 * n2, n3 * n4)
            ref = decompose_matrix(m)
            bf, outer = factorize_with_outer_vectors(block, label)
            assert bf.outer.symmetric == ref.symmetric and bf.outer.rank == ref.rank, label
            top = np.abs(ref.values).max()
            assert np.abs(bf.outer.values - ref.values).max() <= 1e-12 * top, label
            rec = reconstruct_block(bf)
            assert np.abs(rec - block).max() <= 1e-12 * np.abs(block).max(), label

            scale = np.abs(m).max()
            sides = []
            for vecs, (a, b), swapped in (
                (outer.left, (n1, n2), t.transpose(1, 0, 2, 3)),
                (outer.right, (n3, n4), t.transpose(0, 1, 3, 2)),
            ):
                pair_symmetric = a == b and np.abs(t - swapped).max() <= 1e-12 * scale
                sides.append((vecs.reshape(a, b, -1), pair_symmetric))
            if ref.symmetric and not all(sym for _, sym in sides):
                continue  # an eigendecomposition packs both sides or neither
            for vecs, pair_symmetric in sides:
                if pair_symmetric:
                    assert np.array_equal(vecs, vecs.transpose(1, 0, 2)), label
                    packed_labels.add(label)
        assert packed_labels == set(BLOCKS) - {"1l"}

    @pytest.mark.parametrize("threshold", [0.0, 1e-3])
    def test_finished_block_keeps_packing_record(self, rng, threshold):
        # truncate_block builds a new block, and packed is not an init field
        packed = set()
        for label, block in blocks_of_every_label(rng):
            want = first_factorize(block, label).packed
            assert factorize_block(block, label, threshold).packed == want, label
            packed.add(want)
        assert (True, True) in packed

    @pytest.mark.parametrize("n1, n2", [(3, 3), (3, 2), (1, 1)])
    def test_packing_decision_matches_full_swap(self, rng, n1, n2):
        # the asymmetry read from the packed rows decides as the full
        # 4-index swap difference does, also at the cutoff
        t = rng.normal(size=(n1, n2, 2, 4))
        if n1 == n2:
            t = t + t.swapaxes(0, 1)
            t[0, -1, 1, 2] += 1e-9
        m = t.reshape(n1 * n2, -1)
        asym = np.abs(t - t.swapaxes(0, 1)).max() if n1 == n2 else None
        cut = (asym or 0.0) / RANK_CUTOFF
        for scale in (cut, np.nextafter(cut, 0), np.abs(m).max()):
            full = asym is not None and asym <= RANK_CUTOFF * scale
            assert (_PairPacking.of(m, n1, n2, scale) is not None) == full

    def test_slightly_asymmetric_block_is_not_packed(self, rng):
        v, s = random_dimer(rng, 4, 3)
        block = build_majorana_coefficients(v, s)["V"].two_body_blocks["v"]
        noise = rng.normal(size=block.shape)
        block = block + 1e-9 * np.abs(block).max() * (noise - noise.transpose(1, 0, 2, 3))
        first = first_factorize(block, "v")
        ref = decompose_matrix(block.reshape(16, 9))
        for got, want in zip(
            (first.outer.values, first.outer.left, first.outer.right),
            (ref.values, ref.left, ref.right),
        ):
            assert np.array_equal(got, want)
        rec = reconstruct_block(second_factorize(first))
        assert np.abs(rec - block).max() <= 1e-10 * np.abs(block).max()


def assert_same_block(got, want):
    """Two BlockFactors bit for bit: outer values, inner factors, sharing, weight."""
    assert (got.label, got.shape, got.packed) == (want.label, want.shape, want.packed)
    assert got.outer.symmetric == want.outer.symmetric
    assert got.outer.values.tobytes() == want.outer.values.tobytes()
    assert (got.outer.left, got.outer.right) == (want.outer.left, want.outer.right) == (None, None)
    assert (got.inner_right is got.inner_left) == (want.inner_right is want.inner_left)
    for side in ("inner_left", "inner_right"):
        assert len(getattr(got, side)) == len(getattr(want, side)), side
        for t, (a, b) in enumerate(zip(getattr(got, side), getattr(want, side))):
            assert_same_factors(a, b, f"{side}[{t}]")
            assert a.values.tobytes() == b.values.tobytes()
    assert np.array(got.discarded_weight).tobytes() == np.array(want.discarded_weight).tobytes()


# grouped [row pair, col pair] shape of each label's block, in orbitals of a and b
GROUPED = {"v": "aabb", "A2": "aaaa", "1l": "abab", "2": "aaba"}
KEEP_ONE = 1.0 - 1e-9  # every level keeps only its largest factor


class TestTruncateAsYouGo:
    """Each block is truncated as soon as it is factorized, its inner step run
    only on the outer vectors the truncation keeps: the factors are those of
    first_factorize, second_factorize and truncate_block composed."""

    @pytest.mark.parametrize("threshold", [0.0, 1e-12, 1e-3, KEEP_ONE])
    @pytest.mark.parametrize("grouped_symmetric", [False, True], ids=["svd", "eigh"])
    @pytest.mark.parametrize("pair", [False, True], ids=["unpacked", "packed"])
    @pytest.mark.parametrize("label", sorted(GROUPED))
    @settings(max_examples=6, deadline=None, derandomize=True, database=None)
    @given(n=st.tuples(st.integers(1, 3), st.integers(1, 3)), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_composed_steps(self, label, pair, grouped_symmetric, threshold, n, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(n["ab".index(c)] for c in GROUPED[label])
        rows, cols = shape[0] * shape[1], shape[2] * shape[3]
        r = min(rows, cols)
        # a grouped matrix with outer weights over six decades
        u, w = (np.linalg.qr(rng.normal(size=(k, r)))[0] for k in (rows, cols))
        m = (u * 10.0 ** -rng.uniform(0, 6, size=r)) @ w.T
        if grouped_symmetric and rows == cols:
            m = m + m.T  # an eigendecomposition
        t = m.reshape(shape)
        if pair:  # pair-symmetric sides are decomposed in packed pair space
            if shape[0] == shape[1]:
                t = t + t.transpose(1, 0, 2, 3)
            if shape[2] == shape[3]:
                t = t + t.transpose(0, 1, 3, 2)
        block = np.ascontiguousarray(np.transpose(t, np.argsort(BLOCKS[label].axes)))
        want = truncate_block(second_factorize(first_factorize(block, label)), threshold)
        eye_a, eye_b = np.eye(n[0]), np.eye(n[1])
        coeffs = SaptCoefficients(
            "V" if label == "v" else "VPs", 0.0, eye_a, eye_b, {label: block},
            vp4_one_body_A=eye_a, vp4_one_body_B=eye_b,
        )
        got = factorize_coefficients(coeffs, threshold).blocks[label]
        assert_same_block(got, want)
        assert_same_block(factorize_block(block, label, threshold), want)
        if threshold == KEEP_ONE:
            assert got.outer.rank == 1 and all(f.rank <= 1 for f in got.inner_left)
