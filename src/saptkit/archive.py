"""Single-file tensor archive: JSON manifest plus checksummed binary payload.

Layout: 8-byte magic ``SAPTKIT1``, an 8-byte little-endian manifest length,
the UTF-8 manifest, then the payload of little-endian row-major float64
arrays at the offsets the manifest declares.  Writing sorts array names, so
save/load round trips are bit-exact and files diff deterministically.

The recognized array names are ``v``, ``S``, ``h1_A``, ``h1_B``, ``eri_A``,
``eri_B``, ``partition_A_core``, ``partition_B_core``, ``gap_A``, ``gap_B``,
``overlap_A``, ``overlap_B``; the first two are shape-checked against the
dimer metadata and symmetry-projected on load.  Additional names (factor
caches use a ``factor.`` prefix) pass through untouched.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .active import SpacePartition
from .errors import ArchiveError
from .factorize import BlockFactors, Factorization, FactorizedOperator
from .tensors import DimerBasis, symmetrize_v, validate_overlap

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
}


@dataclass
class TensorArchive:
    """Named dense arrays plus dimer metadata."""

    basis: DimerBasis
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def v(self) -> np.ndarray:
        return self.arrays["v"]

    @property
    def S(self) -> np.ndarray:
        return self.arrays["S"]

    def scalar(self, name: str, default: float | None = None) -> float:
        if name in self.arrays:
            return float(np.asarray(self.arrays[name]).reshape(-1)[0])
        if default is None:
            raise ArchiveError("shape", f"archive lacks required scalar {name!r}")
        return default

    def partition(self) -> SpacePartition:
        """Core/active split from the stored core lists.

        Orbitals absent from the core lists are treated as active; archives
        that carry virtuals should list them nowhere and trim the tensors.
        """
        core_a = [int(x) for x in self.arrays.get("partition_A_core", np.zeros(0))]
        core_b = [int(x) for x in self.arrays.get("partition_B_core", np.zeros(0))]
        active_a = [p for p in range(self.basis.n_orb_A) if p not in core_a]
        active_b = [q for q in range(self.basis.n_orb_B) if q not in core_b]
        return SpacePartition.from_counts(
            core_a, active_a, core_b, active_b, self.basis.n_elec_A, self.basis.n_elec_B
        )


def _manifest(archive: TensorArchive, payload_parts: list[bytes]) -> dict:
    arrays = {}
    offset = 0
    for name in sorted(archive.arrays):
        arr = np.ascontiguousarray(archive.arrays[name], dtype="<f8")
        payload_parts.append(arr.tobytes())
        arrays[name] = {"dtype": "float64", "shape": list(arr.shape), "offset": offset}
        offset += arr.nbytes
    return {
        "schema_version": SCHEMA_VERSION,
        "dimer": {
            "n_orb_A": archive.basis.n_orb_A,
            "n_orb_B": archive.basis.n_orb_B,
            "n_elec_A": archive.basis.n_elec_A,
            "n_elec_B": archive.basis.n_elec_B,
            "units": "hartree",
        },
        "arrays": arrays,
    }


def save_archive(path, archive: TensorArchive) -> None:
    parts: list[bytes] = []
    manifest = _manifest(archive, parts)
    payload = b"".join(parts)
    manifest["payload_bytes"] = len(payload)
    manifest["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(blob).to_bytes(8, "little"))
        fh.write(blob)
        fh.write(payload)


def _required(entry, keys: tuple[str, ...], where: str) -> list:
    """Values of the required ``keys`` of one manifest entry, in order."""
    missing = [k for k in keys if not isinstance(entry, dict) or k not in entry]
    if missing:
        raise ArchiveError("schema", f"{where} lacks {', '.join(missing)}")
    return [entry[k] for k in keys]


def load_archive(path) -> TensorArchive:
    path = Path(path)
    if not path.exists():
        raise ArchiveError("io", f"no such archive: {path}")
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ArchiveError("schema", "bad magic bytes; not a tensor archive")
    n = int.from_bytes(raw[8:16], "little")
    try:
        manifest = json.loads(raw[16 : 16 + n].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArchiveError("schema", f"manifest does not parse: {exc}") from exc
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise ArchiveError("schema", f"unsupported schema {manifest.get('schema_version')}")
    payload = raw[16 + n :]
    payload_bytes, sha256, dimer, array_meta = _required(
        manifest, ("payload_bytes", "payload_sha256", "dimer", "arrays"), "manifest"
    )
    if len(payload) != payload_bytes:
        raise ArchiveError("checksum", "payload length mismatch")
    if hashlib.sha256(payload).hexdigest() != sha256:
        raise ArchiveError("checksum", "payload checksum mismatch")

    counts = _required(dimer, ("n_orb_A", "n_orb_B", "n_elec_A", "n_elec_B"), "manifest dimer")
    if not all(type(c) is int for c in counts):
        raise ArchiveError("schema", "manifest dimer counts are not all integers")
    basis = DimerBasis(*counts)
    if not isinstance(array_meta, dict):
        raise ArchiveError("schema", "manifest arrays is not an object")
    declared = 0
    arrays = {}
    for name, meta in array_meta.items():
        dtype, shape, offset = _required(meta, ("dtype", "shape", "offset"), f"array {name!r}")
        if dtype != "float64":
            raise ArchiveError("schema", f"array {name!r} has unsupported dtype")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise ArchiveError("schema", f"array {name!r} shape is not a list of sizes")
        shape = tuple(shape)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        declared += 8 * count
        if not isinstance(offset, int) or not 0 <= offset <= offset + 8 * count <= len(payload):
            raise ArchiveError("checksum", f"array {name!r} extends outside the payload")
        arr = np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)
        arrays[name] = np.array(arr)  # writable copy in native order
        rule = _SHAPE_RULES.get(name)
        if rule is not None and shape not in rule(basis.n_orb_A, basis.n_orb_B):
            raise ArchiveError("shape", f"array {name!r} has shape {shape}")
    if declared != manifest["payload_bytes"]:
        raise ArchiveError("checksum", "declared array sizes do not cover the payload")

    if "v" in arrays:
        arrays["v"] = symmetrize_v(arrays["v"])
    if "S" in arrays:
        arrays["S"] = validate_overlap(arrays["S"])
    return TensorArchive(basis=basis, arrays=arrays)


# ---------------------------------------------------------------------------
# factor caches ride in the same container


def factor_arrays(fop: FactorizedOperator) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}

    def put_fact(prefix: str, fact: Factorization):
        out[f"{prefix}.values"] = fact.values
        out[f"{prefix}.left"] = fact.left
        out[f"{prefix}.right"] = fact.right
        out[f"{prefix}.symmetric"] = np.array(1.0 if fact.symmetric else 0.0)

    for name, fact in fop.one_body.items():
        put_fact(f"factor.one_body.{name}", fact)
    if fop.overlap is not None:
        put_fact("factor.overlap", fop.overlap)
    for label, bf in fop.blocks.items():
        prefix = f"factor.block.{label}"
        put_fact(f"{prefix}.outer", bf.outer)
        out[f"{prefix}.shape"] = np.array(bf.shape, dtype=float)
        out[f"{prefix}.discarded"] = np.array(bf.discarded_weight)
        for t, fact in enumerate(bf.inner_left):
            put_fact(f"{prefix}.inner_left.{t:04d}", fact)
        if bf.inner_right is not bf.inner_left:
            for t, fact in enumerate(bf.inner_right):
                put_fact(f"{prefix}.inner_right.{t:04d}", fact)
    out["factor.meta.threshold"] = np.array(fop.threshold)
    return out


def save_factor_cache(path, fop: FactorizedOperator, basis: DimerBasis) -> None:
    arrays = factor_arrays(fop)
    arrays["factor.meta.observable"] = np.array(
        [float(ord(c)) for c in fop.observable], dtype=float
    )
    arrays["factor.meta.space"] = np.array(1.0 if fop.space_tag == "active" else 0.0)
    save_archive(path, TensorArchive(basis=basis, arrays=arrays))


def load_factor_cache(path) -> FactorizedOperator:
    archive = load_archive(path)
    arrays = archive.arrays

    def get_fact(prefix: str) -> Factorization:
        return Factorization(
            values=arrays[f"{prefix}.values"],
            left=arrays[f"{prefix}.left"],
            right=arrays[f"{prefix}.right"],
            symmetric=bool(arrays[f"{prefix}.symmetric"].reshape(-1)[0]),
        )

    observable = "".join(
        chr(int(x)) for x in arrays["factor.meta.observable"].reshape(-1)
    )
    fop = FactorizedOperator(
        observable=observable,
        space_tag="active" if arrays["factor.meta.space"].reshape(-1)[0] else "full",
        threshold=float(arrays["factor.meta.threshold"].reshape(-1)[0]),
    )
    for name in arrays:
        if name.startswith("factor.one_body.") and name.endswith(".values"):
            key = name[len("factor.one_body.") : -len(".values")]
            fop.one_body[key] = get_fact(f"factor.one_body.{key}")
    if "factor.overlap.values" in arrays:
        fop.overlap = get_fact("factor.overlap")
    labels = {
        name.split(".")[2]
        for name in arrays
        if name.startswith("factor.block.") and name.endswith(".outer.values")
    }
    for label in sorted(labels):
        prefix = f"factor.block.{label}"
        bf = BlockFactors(
            label=label,
            shape=tuple(int(x) for x in arrays[f"{prefix}.shape"]),
            outer=get_fact(f"{prefix}.outer"),
            discarded_weight=float(arrays[f"{prefix}.discarded"].reshape(-1)[0]),
        )
        t = 0
        while f"{prefix}.inner_left.{t:04d}.values" in arrays:
            bf.inner_left.append(get_fact(f"{prefix}.inner_left.{t:04d}"))
            t += 1
        if f"{prefix}.inner_right.0000.values" in arrays:
            t = 0
            while f"{prefix}.inner_right.{t:04d}.values" in arrays:
                bf.inner_right.append(get_fact(f"{prefix}.inner_right.{t:04d}"))
                t += 1
        else:
            bf.inner_right = bf.inner_left
        fop.blocks[label] = bf
    return fop


# ---------------------------------------------------------------------------
# FCIDUMP import for monomer Hamiltonians


def read_fcidump(path):
    """Parse an FCIDUMP integral file (chemist convention, 8-fold symmetry).

    Returns (h1, eri, n_orb, n_elec, core_energy).
    """
    path = Path(path)
    if not path.exists():
        raise ArchiveError("io", f"no such file: {path}")
    text = path.read_text()
    lower = text.lower()
    end = None
    for token in ("&end", "/"):
        pos = lower.find(token)
        if pos != -1:
            end = (pos, token)
            break
    if end is None or "&fci" not in lower:
        raise ArchiveError("schema", "not an FCIDUMP file (missing &FCI header)")
    header = text[: end[0]]
    body = text[end[0] + len(end[1]) :]

    import re

    def header_int(key: str) -> int:
        match = re.search(rf"{key}\s*=\s*(\d+)", header, re.IGNORECASE)
        if match is None:
            raise ArchiveError("schema", f"FCIDUMP header lacks {key}")
        return int(match.group(1))

    n_orb = header_int("NORB")
    n_elec = header_int("NELEC")
    h1 = np.zeros((n_orb, n_orb))
    eri = np.zeros((n_orb, n_orb, n_orb, n_orb))
    core = 0.0
    for line in body.splitlines():
        parts = line.split()
        if len(parts) != 5:
            continue
        val = float(parts[0].replace("D", "E").replace("d", "e"))
        i, j, k, l = (int(x) for x in parts[1:])
        if i == j == k == l == 0:
            core = val
        elif k == 0 and l == 0:
            h1[i - 1, j - 1] = val
            h1[j - 1, i - 1] = val
        else:
            a, b, c, d = i - 1, j - 1, k - 1, l - 1
            for p, q, r, s in (
                (a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
                (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a),
            ):
                eri[p, q, r, s] = val
    return h1, eri, n_orb, n_elec, core


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
