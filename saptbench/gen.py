"""Seeded input generator for the saptkit benchmark workloads.

Writes tensor archives (schema 1, written here independently of saptkit so
the program under test never produces its own inputs) and FCIDUMP files into
an output directory, plus ``inputs.json`` with each file's sha256 and the
reason the workload was chosen.  The same seed gives byte-identical files.

    python3 saptbench/gen.py --workload estimate-heme --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

MAGIC = b"SAPTKIT1"

# the paper's heme reference row: spectral gaps and squared initial-state overlaps
HEME_SCALARS = {"gap_A": 0.0069, "gap_B": 0.1212, "overlap_A": 0.068174, "overlap_B": 0.800254}

WORKLOADS = {
    "estimate-heme": (
        "the paper's 43x40 reference row through `estimate --format all`: "
        "factorization-bound main user path"
    ),
    "verify-oracle": (
        "Fock-space oracle on 64x64 and 256x4 monomer spaces, either side of "
        "the dense/sparse line: oracle-bound, factorization flat"
    ),
    "ingest-cache": (
        "FCIDUMP import, frozen-core renormalization, truncated factorization and "
        "cache write/reload: archive I/O and truncation beside reads"
    ),
}


def write_archive(path: Path, dims: tuple[int, int, int, int], arrays: dict) -> None:
    """Schema-1 archive: sorted names, contiguous little-endian float64 payload."""
    n_orb_a, n_orb_b, n_elec_a, n_elec_b = dims
    table, parts, offset = {}, [], 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        table[name] = {"dtype": "float64", "shape": list(arr.shape), "offset": offset}
        parts.append(arr.tobytes())
        offset += arr.nbytes
    payload = b"".join(parts)
    manifest = {
        "schema_version": 1,
        "dimer": {
            "n_orb_A": n_orb_a,
            "n_orb_B": n_orb_b,
            "n_elec_A": n_elec_a,
            "n_elec_B": n_elec_b,
            "units": "hartree",
        },
        "arrays": table,
        "payload_bytes": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + len(blob).to_bytes(8, "little") + blob + payload)


def sym4(v: np.ndarray) -> np.ndarray:
    """Projection onto the (p1<->p2) x (q1<->q2) symmetric subspace."""
    return 0.25 * (
        (v + v.transpose(1, 0, 3, 2)) + (v.transpose(1, 0, 2, 3) + v.transpose(0, 1, 3, 2))
    )


def random_overlap(rng: np.random.Generator, n_a: int, n_b: int, scale: float = 0.4):
    s = rng.normal(size=(n_a, n_b))
    return scale * s / np.abs(s).max()


def random_eri(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank eri with the eightfold real symmetry."""
    e = sym4(rng.normal(size=(n, n, n, n)))
    return 0.5 * (e + e.transpose(2, 3, 0, 1))


def random_h1(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def decaying_v(rng: np.random.Generator, n_a: int, n_b: int, decades: float = 6.0):
    """Coulomb tensor whose grouped spectrum decays geometrically over ``decades``."""

    def pair_basis(n: int, rank: int) -> np.ndarray:
        x = rng.normal(size=(n, n, rank))
        x = 0.5 * (x + x.transpose(1, 0, 2))
        return np.linalg.qr(x.reshape(n * n, rank))[0]

    rank = min(n_a * (n_a + 1) // 2, n_b * (n_b + 1) // 2)
    sigma = 10.0 ** (-decades * np.arange(rank) / (rank - 1))
    u, w = pair_basis(n_a, rank), pair_basis(n_b, rank)
    return sym4(((u * sigma) @ w.T).reshape(n_a, n_a, n_b, n_b))


def write_fcidump(path: Path, h1: np.ndarray, eri: np.ndarray, n_elec: int) -> None:
    """FCIDUMP with one line per eightfold-unique integral, then h1, then the core energy."""
    n = h1.shape[0]
    i, j = np.tril_indices(n)  # pair (i >= j), pair index in row-major order
    p, q = np.tril_indices(len(i))  # pair-of-pairs (ij >= kl)
    a, b, c, d = i[p], j[p], i[q], j[q]
    fmt = "%23.16E %4d %4d %4d %4d"
    lines = [f" &FCI NORB={n},NELEC={n_elec},MS2=0,", "  ORBSYM=" + "1," * n, "  ISYM=1,", " &END"]
    lines += map(fmt.__mod__, zip(eri[a, b, c, d].tolist(), *(x.tolist() for x in (a + 1, b + 1, c + 1, d + 1))))
    lines += map(fmt.__mod__, zip(h1[i, j].tolist(), (i + 1).tolist(), (j + 1).tolist(), [0] * len(i), [0] * len(i)))
    lines.append(fmt % (0.0, 0, 0, 0, 0))
    path.write_text("\n".join(lines) + "\n")


def gen_estimate_heme(rng: np.random.Generator, out: Path) -> dict:
    n_a, n_b = 43, 40
    arrays = {
        "v": sym4(rng.normal(size=(n_a, n_a, n_b, n_b))),
        "S": random_overlap(rng, n_a, n_b),
        "h1_A": random_h1(rng, n_a),
        "eri_A": random_eri(rng, n_a),
        "h1_B": random_h1(rng, n_b),
        "eri_B": random_eri(rng, n_b),
    }
    arrays.update({k: np.array(x) for k, x in HEME_SCALARS.items()})
    write_archive(out / "heme.sapt", (n_a, n_b, 40, 36), arrays)
    return {"archive": "heme.sapt"}


def gen_verify_oracle(rng: np.random.Generator, out: Path) -> dict:
    names = []
    for n_a, n_b in ((3, 3), (4, 1)):
        name = f"oracle_{n_a}x{n_b}.sapt"
        arrays = {"v": sym4(rng.normal(size=(n_a, n_a, n_b, n_b))), "S": random_overlap(rng, n_a, n_b)}
        write_archive(out / name, (n_a, n_b, 2, min(2, 2 * n_b)), arrays)
        names.append(name)
    return {"archives": names}


def gen_ingest_cache(rng: np.random.Generator, out: Path) -> dict:
    n_a, n_b, core_a, core_b = 43, 40, 8, 7
    arrays = {
        "v": decaying_v(rng, n_a, n_b),
        "S": random_overlap(rng, n_a, n_b),
        "partition_A_core": np.arange(core_a, dtype=float),
        "partition_B_core": np.arange(core_b, dtype=float),
    }
    write_archive(out / "ingest.sapt", (n_a, n_b, 40, 36), arrays)
    for which, n, n_elec in (("A", n_a, 40), ("B", n_b, 36)):
        write_fcidump(out / f"{which}.fcidump", random_h1(rng, n), random_eri(rng, n), n_elec)
    return {"archive": "ingest.sapt", "fcidump": {"A": "A.fcidump", "B": "B.fcidump"}}


GENERATORS = {
    "estimate-heme": gen_estimate_heme,
    "verify-oracle": gen_verify_oracle,
    "ingest-cache": gen_ingest_cache,
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs into ``out`` and return the inputs record."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**64, sorted(GENERATORS).index(workload)])
    files = GENERATORS[workload](rng, out)
    record = {
        "workload": workload,
        "seed": seed,
        "why": WORKLOADS[workload],
        "files": files,
        "sha256": {p.name: sha256_file(p) for p in sorted(out.iterdir()) if p.name != "inputs.json"},
    }
    (out / "inputs.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    record = generate(args.workload, args.seed, args.out)
    print(json.dumps(record["sha256"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
