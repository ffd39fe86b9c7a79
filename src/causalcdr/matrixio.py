"""Named-matrix container: a deterministic binary format for checkpoints.

Layout (all integers little-endian, no padding):

    magic   4 bytes  b"NMC1"
    u32     number of metadata entries
    per entry: u16 key length, key utf-8, u32 value length, value utf-8
    u32     number of matrices
    per matrix: u16 name length, name utf-8, u32 rows, u32 cols,
                rows*cols float64 little-endian in row-major order

Entries are written in sorted key/name order so identical contents yield
identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"NMC1"


class ContainerError(ValueError):
    pass


def write_container(path, matrices: dict, meta: dict | None = None) -> None:
    meta = meta or {}
    chunks = [MAGIC, struct.pack("<I", len(meta))]
    for key in sorted(meta):
        kb = key.encode("utf-8")
        vb = str(meta[key]).encode("utf-8")
        chunks.append(struct.pack("<H", len(kb)) + kb)
        chunks.append(struct.pack("<I", len(vb)) + vb)
    chunks.append(struct.pack("<I", len(matrices)))
    for name in sorted(matrices):
        matrix = np.ascontiguousarray(matrices[name], dtype=np.float64)
        if matrix.ndim != 2:
            raise ContainerError(f"{name!r} is not a matrix (ndim={matrix.ndim})")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)) + nb)
        chunks.append(struct.pack("<II", matrix.shape[0], matrix.shape[1]))
        chunks.append(matrix.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def read_container(path) -> tuple[dict, dict]:
    """(matrices, metadata) of a container file.

    A file that ends early, holds bytes after its last matrix, or repeats
    a metadata key or a matrix name raises ContainerError naming the byte
    offset.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise ContainerError(f"{path}: not a named-matrix container")
    offset = 4

    def claim(size, what):
        nonlocal offset
        if size > len(blob) - offset:
            raise ContainerError(f"{path}: truncated at byte {len(blob)}: {what} "
                                 f"needs {size} bytes from offset {offset}")
        start = offset
        offset += size
        return start

    def take(fmt, what):
        return struct.unpack_from(fmt, blob, claim(struct.calcsize(fmt), what))

    def take_str(length, what):
        start = claim(length, what)
        try:
            return blob[start:start + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContainerError(f"{path}: {what} at offset {start} is not "
                                 f"utf-8") from exc

    meta = {}
    (n_meta,) = take("<I", "metadata count")
    for _ in range(n_meta):
        entry = offset
        (klen,) = take("<H", "metadata key length")
        key = take_str(klen, "metadata key")
        if key in meta:
            raise ContainerError(f"{path}: metadata key {key!r} repeated at offset {entry}")
        (vlen,) = take("<I", "metadata value length")
        meta[key] = take_str(vlen, f"metadata value {key!r}")

    matrices = {}
    (n_matrices,) = take("<I", "matrix count")
    for _ in range(n_matrices):
        entry = offset
        (nlen,) = take("<H", "matrix name length")
        name = take_str(nlen, "matrix name")
        if name in matrices:
            raise ContainerError(f"{path}: matrix {name!r} repeated at offset {entry}")
        rows, cols = take("<II", f"shape of {name!r}")
        count = rows * cols
        start = claim(count * 8, f"values of {name!r}")
        data = np.frombuffer(blob, dtype="<f8", count=count, offset=start)
        matrices[name] = data.reshape(rows, cols).astype(np.float64)
    if offset != len(blob):
        raise ContainerError(f"{path}: {len(blob) - offset} trailing bytes after "
                             f"the last matrix at offset {offset}")
    return matrices, meta
