"""Single-file tensor archive: JSON manifest plus checksummed binary payload.

Layout: 8-byte magic ``SAPTKIT1``, an 8-byte little-endian manifest length,
the UTF-8 manifest, then the payload of little-endian row-major float64
arrays at the offsets the manifest declares.  Writing sorts array names, so
save/load round trips are bit-exact and files diff deterministically.

The container is streamed: the writer hashes and writes each array from its
own memory in one pass, with no joined copy of the payload, then fills the
payload hash into the manifest; the reader reads the payload once into one
aligned buffer, hashes it, and returns every array as a view of it.
Loading rejects array extents that do not tile the payload exactly
(overlap, gap, misalignment) and any NaN or inf.

The recognized array names are ``v``, ``S``, ``h1_A``, ``h1_B``, ``eri_A``,
``eri_B``, ``partition_A_core``, ``partition_B_core``, ``gap_A``, ``gap_B``,
``overlap_A``, ``overlap_B``; each is shape-checked against the dimer
metadata (a core list is 1-d, of at most its monomer's orbital count), and
``v`` is symmetry-projected on load, in place.  Any of them may be absent;
reading an absent ``v`` or ``S`` is a schema error.  Additional names pass
through untouched.

Factor caches ride in the same container.  The manifest's ``factors``
object holds ``observable``, ``space`` (full/active), ``threshold``, each
block's ``shape`` and ``discarded`` weight, and, per list of factorizations
(one-body, overlap, outer, each inner side), a ``rank`` and a ``symmetric``
flag for each.  The payload holds only the stacked factors, per list under
``factor.`` names: ``values``, the transposed ``left`` factors row-wise, and
``right`` likewise where the right factor is not the left, streamed from
the factors themselves (:class:`RowStack`).  A block's outer step stores its
``values`` only: past the inner step it has no vectors.  The payload
checksum covers the object too, hashed first as sorted-key JSON.  Caches of
earlier versions, without the object or with outer vectors, are rejected;
re-run ``saptkit factorize``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .active import SpacePartition
from .errors import ArchiveError, ShapeError
from .factorize import _BLOCK_LABELS, _ONE_BODY, BlockFactors, Factorization, FactorizedOperator
from .tensors import OPTIONAL_BLOCKS, DimerBasis, symmetrize_v, validate_overlap

MAGIC = b"SAPTKIT1"
SCHEMA_VERSION = 1

_SHAPE_RULES = {
    "v": lambda na, nb: {(na, na, nb, nb)},
    "S": lambda na, nb: {(na, nb)},
    "h1_A": lambda na, nb: {(na, na)},
    "h1_B": lambda na, nb: {(nb, nb)},
    "eri_A": lambda na, nb: {(na, na, na, na)},
    "eri_B": lambda na, nb: {(nb, nb, nb, nb)},
    "gap_A": lambda na, nb: {(), (1,)},
    "gap_B": lambda na, nb: {(), (1,)},
    "overlap_A": lambda na, nb: {(), (1,)},
    "overlap_B": lambda na, nb: {(), (1,)},
    "partition_A_core": lambda na, nb: {(k,) for k in range(na + 1)},
    "partition_B_core": lambda na, nb: {(k,) for k in range(nb + 1)},
}


class RowStack:
    """A row-wise stack of arrays with equally shaped rows, kept as its pieces.

    Stands in for the joined array wherever :func:`save_archive` takes one:
    ``shape`` and ``nbytes`` are the joined array's, and the writer joins a
    bounded number of rows at a time, so the full join is never formed.
    ``empty`` is the shape of a stack without pieces.
    """

    def __init__(self, pieces: list[np.ndarray], empty: tuple[int, ...]):
        tail = pieces[0].shape[1:] if pieces else empty[1:]
        if any(p.shape[1:] != tail for p in pieces):
            raise ValueError("stacked pieces differ in shape")
        self.pieces = pieces
        self.shape = (sum(len(p) for p in pieces), *tail)
        self.nbytes = 8 * math.prod(self.shape)


@dataclass
class TensorArchive:
    """Named dense arrays plus dimer metadata; a saved array may be a :class:`RowStack`."""

    basis: DimerBasis
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    factors: dict | None = None  # a factor cache's description of its arrays

    @property
    def v(self) -> np.ndarray:
        return self._required("v")

    @property
    def S(self) -> np.ndarray:
        return self._required("S")

    def _required(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            raise ArchiveError("schema", f"archive lacks array {name!r}")
        return self.arrays[name]

    def scalar(self, name: str, default: float) -> float:
        """The number stored under ``name``, or ``default`` if there is none."""
        arr = self.arrays.get(name)
        return default if arr is None else float(np.asarray(arr).reshape(-1)[0])

    def partition(self) -> SpacePartition:
        """Core/active split from the stored core lists of whole orbital indices.

        Orbitals absent from the core lists are treated as active; archives
        that carry virtuals should list them nowhere and trim the tensors.
        """
        cores = [self.arrays.get(f"partition_{m}_core", np.zeros(0)) for m in "AB"]
        if any((np.floor(core) != core).any() for core in cores):
            raise ArchiveError("schema", "a core list holds a non-integral orbital index")
        core_a, core_b = ([int(x) for x in core] for core in cores)
        active_a = [p for p in range(self.basis.n_orb_A) if p not in core_a]
        active_b = [q for q in range(self.basis.n_orb_B) if q not in core_b]
        return SpacePartition.from_counts(
            core_a, active_a, core_b, active_b, self.basis.n_elec_A, self.basis.n_elec_B
        )


def _manifest(archive: TensorArchive, arrays: dict[str, np.ndarray]) -> dict:
    entries = {}
    offset = 0
    for name, arr in arrays.items():
        entries[name] = {"dtype": "float64", "shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    manifest = {} if archive.factors is None else {"factors": archive.factors}
    return manifest | {
        "schema_version": SCHEMA_VERSION,
        "dimer": {
            "n_orb_A": archive.basis.n_orb_A,
            "n_orb_B": archive.basis.n_orb_B,
            "n_elec_A": archive.basis.n_elec_A,
            "n_elec_B": archive.basis.n_elec_B,
            "units": "hartree",
        },
        "arrays": entries,
        "payload_bytes": offset,
    }


# bytes of RowStack rows joined into one C-ordered chunk at a time
_CHUNK_BYTES = 1 << 20


def _chunks(arr):
    """The payload bytes of one stored array, as flat little-endian float64 arrays.

    A :class:`RowStack` is joined ``_CHUNK_BYTES`` of rows at a time, so the
    full join is never formed.
    """
    if not isinstance(arr, RowStack):
        yield arr.reshape(-1)
        return
    tail = arr.shape[1:]
    step = max(1, _CHUNK_BYTES // max(1, 8 * math.prod(tail)))  # rows per chunk
    batch, rows = [], 0
    for piece in arr.pieces:
        for lo in range(0, len(piece), step):
            part = piece[lo : lo + step]
            if rows + len(part) > step:
                yield np.concatenate(batch, out=np.empty((rows, *tail), "<f8")).reshape(-1)
                batch, rows = [], 0
            batch.append(part)
            rows += len(part)
    if batch:
        yield np.concatenate(batch, out=np.empty((rows, *tail), "<f8")).reshape(-1)


def _digest(factors: dict | None):
    """The payload hash, started with a factor cache's ``factors`` object."""
    return hashlib.sha256(b"" if factors is None else json.dumps(factors, sort_keys=True).encode())


def save_archive(path, archive: TensorArchive) -> None:
    # streamed: each array is hashed and written from its own memory in one
    # pass (copied only when it is not contiguous little-endian float64;
    # unlike np.ascontiguousarray, np.require keeps a 0-d array 0-d)
    arrays = {
        name: arr if isinstance(arr, RowStack) else np.require(arr, "<f8", "C")
        for name, arr in sorted(archive.arrays.items())
    }
    manifest = _manifest(archive, arrays)
    digest = _digest(archive.factors)
    # the manifest is rewritten once the payload is hashed; a hex digest has
    # a fixed length, so the placeholder keeps the manifest's size
    manifest["payload_sha256"] = "0" * 2 * digest.digest_size
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        for arr in arrays.values():
            for chunk in _chunks(arr):
                digest.update(chunk)
                fh.write(chunk)
        manifest["payload_sha256"] = digest.hexdigest()
        fh.seek(16)
        fh.write(json.dumps(manifest, sort_keys=True).encode("utf-8"))


def _required(entry, keys: tuple[str, ...], where: str) -> list:
    """Values of the required ``keys`` of one manifest entry, in order."""
    missing = [k for k in keys if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise ArchiveError("schema", f"{where} lacks {', '.join(missing)}")
    return [entry[k] for k in keys]


def _extents(array_meta: dict, payload_bytes: int) -> dict[str, tuple[tuple, slice]]:
    """Shape and payload byte range of every array, checked to tile the payload.

    In offset order each array must start where the one before it ends and
    the last must end the payload: no overlap, no gap, 8-byte aligned.
    """
    extents = {}
    for name, meta in array_meta.items():
        dtype, shape, offset = _required(meta, ("dtype", "shape", "offset"), f"array {name!r}")
        if dtype != "float64":
            raise ArchiveError("schema", f"array {name!r} has unsupported dtype")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ArchiveError("schema", f"array {name!r} shape is not a list of sizes")
        nbytes = 8 * math.prod(shape)
        if type(offset) is not int or not 0 <= offset <= payload_bytes - nbytes:
            raise ArchiveError("checksum", f"array {name!r} extends outside the payload")
        extents[name] = (tuple(shape), slice(offset, offset + nbytes))
    covered = 0
    by_offset = sorted(extents.items(), key=lambda kv: (kv[1][1].start, kv[1][1].stop))
    for name, (_, extent) in by_offset:
        if extent.start != covered:
            raise ArchiveError("checksum", f"array {name!r} overlaps another or leaves a gap")
        covered = extent.stop
    if covered != payload_bytes:
        raise ArchiveError("checksum", "declared array sizes do not cover the payload")
    return extents


def load_archive(path) -> TensorArchive:
    """Read and check an archive; its arrays are views of one payload buffer."""
    path = Path(path)
    if not path.exists():
        raise ArchiveError("io", f"no such archive: {path}")
    with open(path, "rb") as fh:
        head = fh.read(16)
        if head[: len(MAGIC)] != MAGIC:
            raise ArchiveError("schema", "bad magic bytes; not a tensor archive")
        n = int.from_bytes(head[8:16], "little")
        size = os.fstat(fh.fileno()).st_size - 16 - n
        if size < 0:
            raise ArchiveError("schema", "manifest length exceeds the file")
        try:
            manifest = json.loads(fh.read(n).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise ArchiveError("schema", f"manifest does not parse: {exc}") from exc
        if not isinstance(manifest, dict):
            raise ArchiveError("schema", "manifest is not an object")
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise ArchiveError("schema", f"unsupported schema {manifest.get('schema_version')}")
        payload_bytes, sha256, dimer, array_meta = _required(
            manifest, ("payload_bytes", "payload_sha256", "dimer", "arrays"), "manifest"
        )
        if type(payload_bytes) is not int or size != payload_bytes:
            raise ArchiveError("checksum", "payload length mismatch")
        payload = np.empty(size, dtype=np.uint8)
        if fh.readinto(payload) != size:
            raise ArchiveError("checksum", "payload length mismatch")
    factors = manifest.get("factors")
    digest = _digest(factors)
    digest.update(payload)
    if digest.hexdigest() != sha256:
        raise ArchiveError("checksum", "payload checksum mismatch")

    counts = _required(dimer, ("n_orb_A", "n_orb_B", "n_elec_A", "n_elec_B"), "manifest dimer")
    if not all(type(c) is int for c in counts):
        raise ArchiveError("schema", "manifest dimer counts are not all integers")
    try:
        basis = DimerBasis(*counts)
    except ShapeError as exc:
        raise ArchiveError("shape", f"manifest dimer: {exc}") from None
    if not isinstance(array_meta, dict):
        raise ArchiveError("schema", "manifest arrays is not an object")
    arrays = {}
    for name, (shape, extent) in _extents(array_meta, size).items():
        rule = _SHAPE_RULES.get(name)
        if rule is not None and shape not in rule(basis.n_orb_A, basis.n_orb_B):
            raise ArchiveError("shape", f"array {name!r} has shape {shape}")
        arr = payload[extent].view("<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise ArchiveError("schema", f"array {name!r} holds NaN or inf")
        arrays[name] = arr

    # projected in place: a replaced v would stay pinned in the shared buffer
    if "v" in arrays:
        arrays["v"][...] = symmetrize_v(arrays["v"])
    if "S" in arrays:
        validate_overlap(arrays["S"])
    return TensorArchive(basis=basis, arrays=arrays, factors=factors)


# ---------------------------------------------------------------------------
# factor caches ride in the same container


def _put_factors(arrays: dict, prefix: str, facts: list[Factorization], vectors=True) -> dict:
    """Stack a list of factorizations of equally shaped matrices; return its
    ``factors`` entry, the ``rank`` and ``symmetric`` flag of each.

    ``values`` concatenates their values and ``left`` their transposed left
    factors, row by row.  ``right`` holds, likewise, the right factors of the
    non-symmetric and the empty factorizations only: a symmetric one's right
    factor is its left, but the empty one of a zero matrix keeps its own
    column count.  It is written only when one of those is in the list.
    ``vectors=False`` writes ``values`` alone.  The stacks are
    :class:`RowStack` views of the factors' own memory.
    """
    arrays[f"{prefix}.values"] = RowStack([f.values for f in facts], (0,))
    if vectors:
        arrays[f"{prefix}.left"] = RowStack([f.left.T for f in facts], (0, 0))
        rights = [f.right.T for f in facts if not f.symmetric or not f.rank]
        if rights:
            arrays[f"{prefix}.right"] = RowStack(rights, (0, 0))
    return {"rank": [f.rank for f in facts], "symmetric": [bool(f.symmetric) for f in facts]}


def factor_archive(fop: FactorizedOperator, basis: DimerBasis) -> TensorArchive:
    """A factor cache: the operator's ``factors`` object and the stacks it names."""
    arrays: dict[str, RowStack] = {}
    factors = {"observable": fop.observable, "space": fop.space_tag, "one_body": {}, "blocks": {}}
    factors["threshold"] = float(fop.threshold)
    for name, fact in fop.one_body.items():
        factors["one_body"][name] = _put_factors(arrays, f"factor.one_body.{name}", [fact])
    if fop.overlap is not None:
        factors["overlap"] = _put_factors(arrays, "factor.overlap", [fop.overlap])
    for label, bf in fop.blocks.items():
        prefix = f"factor.block.{label}"
        block = factors["blocks"][label] = {
            "shape": [int(n) for n in bf.shape],
            "discarded": float(bf.discarded_weight),
            "outer": _put_factors(arrays, f"{prefix}.outer", [bf.outer], vectors=False),
            "inner_left": _put_factors(arrays, f"{prefix}.inner_left", bf.inner_left),
        }
        if bf.inner_right is not bf.inner_left:
            block["inner_right"] = _put_factors(arrays, f"{prefix}.inner_right", bf.inner_right)
    return TensorArchive(basis=basis, arrays=arrays, factors=factors)


def save_factor_cache(path, fop: FactorizedOperator, basis: DimerBasis) -> None:
    save_archive(path, factor_archive(fop, basis))


_EARLIER = "caches written by earlier versions are not read, re-run `saptkit factorize`"


def _invalid(what: str) -> ArchiveError:
    return ArchiveError("schema", f"factor cache {what}")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0  # a JSON int; type(True) is bool


def _get_factors(arrays: dict, named: set, prefix: str, entry, count=None, vectors=True) -> list:
    """The factorizations of one ``factors`` entry, as views of the stacks
    :func:`_put_factors` wrote (vectors None unless ``vectors``); their names
    are added to ``named``, which :func:`load_factor_cache` checks."""
    ranks, flags = _required(entry, ("rank", "symmetric"), f"factor cache entry {prefix}")
    if not isinstance(ranks, list) or not all(_is_count(k) for k in ranks):
        raise _invalid(f"entry {prefix} holds ranks that are not counts")
    if not isinstance(flags, list) or not all(type(s) is bool for s in flags):
        raise _invalid(f"entry {prefix} holds symmetric flags that are not true or false")
    stored = [k for k, sym in zip(ranks, flags) if not sym or not k]  # ranks of the right stack
    fields = ("values", "left", "right")[: 2 + bool(stored) if vectors else 1]
    named.update(f"{prefix}.{field}" for field in fields)
    values, left, right = (
        arrays.get(f"{prefix}.{field}", np.zeros((0,) * ndim))  # a missing one fails below
        for field, ndim in (("values", 1), ("left", 2), ("right", 2))
    )
    if (
        len(ranks) != len(flags)
        or (count is not None and len(ranks) != count)
        or (values.ndim, left.ndim, right.ndim) != (1, 2, 2)
        or len(values) != sum(ranks)
        or (vectors and (len(left), len(right)) != (sum(ranks), sum(stored)))
    ):
        raise _invalid(f"arrays {prefix}.* do not fit together")
    facts = []
    lo = lo_right = 0
    for k, sym in zip(ranks, flags):
        u = v = None
        if vectors and sym and k:
            u = v = left[lo : lo + k].T
        elif vectors:
            u, v = left[lo : lo + k].T, right[lo_right : lo_right + k].T
            lo_right += k
        facts.append(Factorization(values[lo : lo + k], u, v, sym))
        lo += k
    return facts


def _check_block(bf: BlockFactors) -> None:
    """Schema error unless a loaded block's factors fit its label and shape.

    Each side of the inner step holds one factorization per outer factor,
    and those factorize matrices of the grouped index sizes.
    """
    try:
        (r1, r2), (c1, c2) = bf.row_shape, bf.col_shape
    except KeyError:
        raise _invalid(f"holds unknown block {bf.label!r}") from None
    for facts, n1, n2 in ((bf.inner_left, r1, r2), (bf.inner_right, c1, c2)):
        shapes = {(f.left.shape[0], f.right.shape[0]) for f in facts}
        if len(facts) != bf.outer.rank or not shapes <= {(n1, n2)}:
            raise _invalid(f"block {bf.label!r} does not fit its shape {list(bf.shape)}")


def load_factor_cache(path) -> FactorizedOperator:
    """The operator a factor cache holds, walked from its ``factors`` object."""
    archive = load_archive(path)
    meta, arrays, named = archive.factors, archive.arrays, set()
    if meta is None:
        raise _invalid(f"lacks its factors object; {_EARLIER}")
    observable, space, threshold, one_body, blocks = _required(
        meta, ("observable", "space", "threshold", "one_body", "blocks"), "factor cache object"
    )
    if observable not in ("V", "P", "VPs") or space not in ("full", "active"):
        raise _invalid("names no known observable (V, P, VPs) or space (full, active)")
    if type(threshold) is not float or not 0.0 <= threshold < 1.0:
        raise _invalid("threshold is not a number in [0, 1)")
    if not isinstance(one_body, dict) or not isinstance(blocks, dict):
        raise _invalid("one_body or blocks is not an object")
    fop = FactorizedOperator(observable=observable, space_tag=space, threshold=threshold)
    for name, entry in one_body.items():
        (fop.one_body[name],) = _get_factors(arrays, named, f"factor.one_body.{name}", entry, 1)
    if "overlap" in meta:
        (fop.overlap,) = _get_factors(arrays, named, "factor.overlap", meta["overlap"], 1)
    for label, block in blocks.items():
        prefix = f"factor.block.{label}"
        fields = ("shape", "discarded", "outer", "inner_left")
        shape, discarded, outer, inner = _required(block, fields, f"factor cache block {label!r}")
        if not isinstance(shape, list) or len(shape) != 4 or not all(map(_is_count, shape)):
            raise _invalid(f"block {label!r} shape is not 4 counts")
        if type(discarded) is not float or not 0.0 <= discarded < math.inf:
            raise _invalid(f"block {label!r} discarded weight is not a finite number >= 0")
        (outer,) = _get_factors(arrays, named, f"{prefix}.outer", outer, 1, vectors=False)
        bf = BlockFactors(label, tuple(shape), outer, discarded_weight=discarded)
        bf.inner_left = _get_factors(arrays, named, f"{prefix}.inner_left", inner)
        bf.inner_right = bf.inner_left
        if "inner_right" in block:
            right = block["inner_right"]
            bf.inner_right = _get_factors(arrays, named, f"{prefix}.inner_right", right)
        _check_block(bf)
        fop.blocks[label] = bf
    missing = [name for name in _ONE_BODY[observable] if name not in one_body]
    missing += [k for k in _BLOCK_LABELS[observable] if k not in (*blocks, *OPTIONAL_BLOCKS)]
    if missing:
        raise _invalid(f"of {observable} lacks {', '.join(missing)}")
    if set(arrays) != named:
        diff = sorted(set(arrays) ^ named)
        raise _invalid(f"arrays differ from those its object names: {diff}; {_EARLIER}")
    return fop


# ---------------------------------------------------------------------------
# FCIDUMP import for monomer Hamiltonians


_FCIDUMP_ROW = np.dtype([("value", "f8"), ("i", "i8"), ("j", "i8"), ("k", "i8"), ("l", "i8")])
_FORTRAN_EXPONENT = bytes.maketrans(b"Dd", b"Ee")


def _last_per_key(key: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each distinct key."""
    _, first_from_end = np.unique(key[::-1], return_index=True)
    return len(key) - 1 - first_from_end


def _quoted(line: bytes) -> str:
    """A body line as an error message quotes it: stripped, non-ASCII bytes as \\xNN."""
    return repr(line.strip())[1:]  # the repr of bytes, without its b prefix


def _unparsable_line(body: bytes, detail: str) -> ArchiveError:
    """The schema error quoting the first body line that does not parse."""
    for line in body.splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 5:
            return ArchiveError("schema", f"FCIDUMP line does not have 5 fields: {_quoted(line)}")
        try:
            float(parts[0])
            [int(x) for x in parts[1:]]
        except ValueError:
            return ArchiveError("schema", f"FCIDUMP line does not parse: {_quoted(line)}")
    return ArchiveError("schema", f"FCIDUMP body does not parse: {detail}")


def read_fcidump(path):
    """Parse an FCIDUMP integral file (chemist convention, 8-fold symmetry).

    Every body line holds a value and four indices.  ``i j k l`` in 1..NORB
    is a two-body integral, ``i j 0 0`` a one-body one, ``0 0 0 0`` the core
    energy, and ``i 0 0 0`` an orbital energy, which is skipped.  A repeated
    integral takes its last value.  Any other line, and any value that is
    not finite, is an :class:`ArchiveError` ("schema").

    Returns (h1, eri, n_orb, n_elec, core_energy).
    """
    path = Path(path)
    if not path.exists():
        raise ArchiveError("io", f"no such file: {path}")
    data = path.read_bytes()  # parsed as bytes: no decoding, no text copy of the body
    start = re.search(b"&fci", data, re.IGNORECASE)
    end = start and re.compile(b"&end|/", re.IGNORECASE).search(data, start.end())
    if not end:
        raise ArchiveError("schema", "not an FCIDUMP file (missing &FCI header)")
    header = data[start.start() : end.start()]
    body = data[end.end() :]
    del data
    if b"D" in body or b"d" in body:
        body = body.translate(_FORTRAN_EXPONENT)

    def header_int(key: str) -> int:
        match = re.search(rb"%s\s*=\s*(\d+)" % key.encode(), header, re.IGNORECASE)
        if match is None:
            raise ArchiveError("schema", f"FCIDUMP header lacks {key}")
        return int(match.group(1))

    n_orb = header_int("NORB")
    n_elec = header_int("NELEC")
    rows = np.zeros(0, dtype=_FCIDUMP_ROW)
    if body and not body.isspace():
        try:
            rows = np.loadtxt(io.BytesIO(body), dtype=_FCIDUMP_ROW, comments=None, ndmin=1)
        except ValueError as exc:
            raise _unparsable_line(body, str(exc)) from None
    val = rows["value"]
    idx = np.stack([rows[c] for c in "ijkl"])
    inside = (idx >= 1) & (idx <= n_orb)
    zero = idx == 0
    two = inside.all(axis=0)
    one = inside[0] & inside[1] & zero[2] & zero[3]
    core = zero.all(axis=0)
    orbital_energy = inside[0] & zero[1:].all(axis=0)
    nonfinite = ~np.isfinite(val)
    bad = ~(two | one | core | orbital_energy) | nonfinite
    if bad.any():
        row = int(np.argmax(bad))  # loadtxt skips blank lines, so count the others
        line = [x for x in body.splitlines() if x.strip()][row]
        what = "value is not finite" if nonfinite[row] else f"index outside 1..{n_orb}"
        raise ArchiveError("schema", f"FCIDUMP {what}: {_quoted(line)}")

    try:
        h1 = np.zeros((n_orb, n_orb))
        eri = np.zeros((n_orb, n_orb, n_orb, n_orb))
    except (MemoryError, ValueError):  # ValueError: a size past numpy's index range
        need = 8 * (n_orb**2 + n_orb**4)
        raise ArchiveError("shape", f"FCIDUMP NORB={n_orb} needs {need} bytes") from None
    # lines of one symmetry orbit write the same entries, of two orbits
    # disjoint ones: keep the last line of each orbit, then scatter
    a, b, c, d = idx[:, two] - 1
    ab = np.maximum(a, b) * n_orb + np.minimum(a, b)
    cd = np.maximum(c, d) * n_orb + np.minimum(c, d)
    last = _last_per_key(np.maximum(ab, cd) * n_orb**2 + np.minimum(ab, cd))
    a, b, c, d, v = a[last], b[last], c[last], d[last], val[two][last]
    flat = eri.reshape(-1)
    for pq in (a * n_orb + b, b * n_orb + a):
        for rs in (c * n_orb + d, d * n_orb + c):
            flat[pq * n_orb**2 + rs] = flat[rs * n_orb**2 + pq] = v
    a, b = idx[:2, one] - 1
    last = _last_per_key(np.maximum(a, b) * n_orb + np.minimum(a, b))
    h1[a[last], b[last]] = h1[b[last], a[last]] = val[one][last]
    core_energy = float(val[core][-1]) if core.any() else 0.0
    return h1, eri, n_orb, n_elec, core_energy


def merge_fcidump(archive: TensorArchive, path, which: str) -> TensorArchive:
    """Attach a monomer Hamiltonian from an FCIDUMP file to an archive."""
    if which not in ("A", "B"):
        raise ArchiveError("schema", "monomer must be 'A' or 'B'")
    h1, eri, n_orb, _, _ = read_fcidump(path)
    expected = archive.basis.n_orb_A if which == "A" else archive.basis.n_orb_B
    if n_orb != expected:
        raise ArchiveError("shape", f"FCIDUMP has {n_orb} orbitals, expected {expected}")
    arrays = dict(archive.arrays)
    arrays[f"h1_{which}"] = h1
    arrays[f"eri_{which}"] = eri
    return TensorArchive(basis=archive.basis, arrays=arrays)


# ---------------------------------------------------------------------------
# built-in miniature dimer (used by `verify` and the tests)


def demo_archive(n_a: int = 2, n_b: int = 2, seed: int = 7) -> TensorArchive:
    from .tensors import sym_v4

    rng = np.random.default_rng(seed)
    v = sym_v4(rng.normal(size=(n_a, n_a, n_b, n_b)))
    s = rng.normal(size=(n_a, n_b))
    s = 0.4 * s / np.abs(s).max()
    h1 = {}
    eri = {}
    for which, n in (("A", n_a), ("B", n_b)):
        m = rng.normal(size=(n, n))
        h1[which] = 0.5 * (m + m.T)
        e = sym_v4(rng.normal(size=(n, n, n, n)))
        eri[which] = 0.5 * (e + e.transpose(2, 3, 0, 1))
    basis = DimerBasis(n_orb_A=n_a, n_orb_B=n_b, n_elec_A=2, n_elec_B=2)
    return TensorArchive(
        basis=basis,
        arrays={
            "v": v,
            "S": s,
            "h1_A": h1["A"],
            "h1_B": h1["B"],
            "eri_A": eri["A"],
            "eri_B": eri["B"],
            "gap_A": np.array(0.2),
            "gap_B": np.array(0.3),
            "overlap_A": np.array(0.8),
            "overlap_B": np.array(0.9),
        },
    )
