r"""Dense tensors with a fixed linearization convention, plus file IO.

Every tensor in this package is a numpy float64 array of order 1 to 4.
The canonical linearization runs the *first* index fastest: a tensor of
extents (n1, n2, n3) stores entry (i1, i2, i3) at flat position
i1 + n1*(i2-1) + n1*n2*(i3-1) (1-based).  That is column-major order, so
``vec``/``unvec`` are Fortran-order ravels and every reshaping operator in
the package is defined relative to it.

The DKT1 byte format serializes one tensor: magic ``b"DKT1"``, one byte
for the order k (1..4), then k little-endian uint64 extents, then the
entries as little-endian IEEE-754 float64 in canonical order.
``read_dkt_stack`` reads a list of files of equal extents, such as a
directory of images, into one preallocated ``(n, *dims)`` array, each
file's entries read straight into its own row; ``read_dkt`` reads one file
as a stack of one.  Both read through ``_read_dkt_rows``, which the solver
(``dkn_fit``) also uses to read such files block by block into a buffer of
its own.  A malformed file is refused with a :class:`DataFormatError`
naming it.

Every JSON file goes through one writer and one reader: ``_write_json``
writes strict JSON (sorted keys, indent 2, a non-finite float as null),
and ``_read_json`` returns the JSON object in a file, refusing invalid JSON
or a non-object with a :class:`DataFormatError` naming the file.
"""

import json
import math
import os
import struct

import numpy as np

from .errors import DataFormatError, DegenerateDataError, DimensionError

__all__ = [
    "as_tensor",
    "vec",
    "unvec",
    "inner",
    "fro_norm",
    "dist",
    "block",
    "write_dkt",
    "read_dkt",
    "read_dkt_stack",
]

MAX_ORDER = 4
_MAGIC = b"DKT1"


def as_tensor(data, dims=None):
    """Coerce ``data`` to a float64 array and validate its extents.

    If ``dims`` is given, flat input is unflattened in canonical order and
    shaped input must match exactly.
    """
    t = np.asarray(data, dtype=np.float64)
    if dims is not None:
        dims = tuple(int(d) for d in dims)
        if t.ndim == 1 and t.shape != dims:
            t = unvec(t, dims)
        elif t.shape != dims:
            raise DimensionError(f"expected extents {dims}, got {t.shape}")
    if t.ndim == 0 or t.ndim > MAX_ORDER:
        raise DimensionError(f"tensor order must be 1..{MAX_ORDER}, got {t.ndim}")
    if any(n < 1 for n in t.shape):
        raise DimensionError(f"extents must be positive, got {t.shape}")
    return t


def vec(t):
    """Flatten in canonical order (first index fastest)."""
    return np.asarray(t, dtype=np.float64).ravel(order="F")


def unvec(v, dims):
    """Inverse of :func:`vec` for the given extents."""
    v = np.asarray(v, dtype=np.float64)
    dims = tuple(int(d) for d in dims)
    if v.size != int(np.prod(dims)):
        raise DimensionError(f"cannot reshape {v.size} entries into {dims}")
    return v.reshape(dims, order="F")


def inner(a, b):
    """Frobenius inner product of two tensors with identical extents."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"extent mismatch: {a.shape} vs {b.shape}")
    return float(np.dot(a.ravel(order="F"), b.ravel(order="F")))


def fro_norm(t):
    return float(np.linalg.norm(np.asarray(t, dtype=np.float64).ravel()))


def dist(a, b):
    """Scale- and sign-invariant angular distance between two tensors.

    dist(a, b) = sqrt(1 - <a,b>^2 / (|a|^2 |b|^2)), lying in [0, 1]; it is
    0 exactly when b is a nonzero scalar multiple of a.  Zero-norm inputs
    have no direction and raise :class:`DegenerateDataError`.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"extent mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a.ravel())
    nb = np.linalg.norm(b.ravel())
    if na == 0.0 or nb == 0.0:
        raise DegenerateDataError("dist is undefined for zero-norm tensors")
    c = np.dot(a.ravel(order="F"), b.ravel(order="F")) / (na * nb)
    # |c| can exceed 1 by rounding; clamp so the sqrt stays real.
    return float(np.sqrt(max(0.0, 1.0 - min(1.0, c * c))))


def block(t, index, block_dims):
    """Contiguous sub-tensor of extents ``block_dims`` at a 1-based grid position.

    The tensor is partitioned into a grid of blocks of extents
    ``block_dims``; ``index`` selects one block per mode, counting from 1.
    Block (h, j, k) of a (d, p, q) tensor with blocks (d'', p'', q'')
    starts at global index ((h-1)*d''+1, (j-1)*p''+1, (k-1)*q''+1).
    """
    t = as_tensor(t)
    index = tuple(int(i) for i in index)
    block_dims = tuple(int(b) for b in block_dims)
    if len(index) != t.ndim or len(block_dims) != t.ndim:
        raise DimensionError(
            f"index and block extents must have order {t.ndim}, "
            f"got {len(index)} and {len(block_dims)}"
        )
    slices = []
    for n, i, bd in zip(t.shape, index, block_dims):
        if bd < 1 or n % bd != 0:
            raise DimensionError(f"block extent {bd} does not divide {n}")
        if not 1 <= i <= n // bd:
            raise DimensionError(f"block index {i} out of range 1..{n // bd}")
        slices.append(slice((i - 1) * bd, i * bd))
    return t[tuple(slices)].copy()


def write_dkt(path, t):
    """Write one tensor to ``path`` in the DKT1 byte format."""
    t = as_tensor(t)
    payload = bytearray()
    payload += _MAGIC
    payload += struct.pack("<B", t.ndim)
    payload += struct.pack(f"<{t.ndim}Q", *t.shape)
    payload += t.ravel(order="F").astype("<f8").tobytes()
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(bytes(payload))
    os.replace(tmp, path)


def _read_header(fh, path):
    """Check the DKT1 header at the start of ``fh`` and the file's length
    against it, before any payload is read or allocated; return the extents.
    Every error is a :class:`DataFormatError` naming ``path``."""
    lead = fh.read(5)
    if len(lead) < 5:
        raise DataFormatError(f"{path}: truncated header")
    if lead[:4] != _MAGIC:
        raise DataFormatError(f"{path}: bad magic {lead[:4]!r}")
    order = lead[4]
    if not 1 <= order <= MAX_ORDER:
        raise DataFormatError(f"{path}: order byte {order} outside 1..{MAX_ORDER}")
    extents = fh.read(8 * order)
    if len(extents) < 8 * order:
        raise DataFormatError(f"{path}: truncated extent list")
    dims = struct.unpack(f"<{order}Q", extents)
    if any(n < 1 for n in dims):
        raise DataFormatError(f"{path}: non-positive extent in {dims}")
    expected = 5 + 8 * order + 8 * math.prod(dims)
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise DataFormatError(
            f"{path}: expected {expected} bytes for extents {dims}, got {size}"
        )
    return dims


def read_dkt(path):
    """Read one tensor from a DKT1 file, validating the header byte by byte:
    :func:`read_dkt_stack` of the one file."""
    return read_dkt_stack([path])[0]


def read_dkt_stack(paths):
    """Read DKT1 files of equal extents into one ``(n, *dims)`` float64 array.

    The array is allocated once, from the first file's header, and each
    file's entries are read straight into their own row by
    :func:`_read_dkt_rows`: one copy per file and no per-file tensor.  In
    memory each image is column-major, the images one after another.
    """
    paths = list(paths)
    shape = _dkt_extents(paths)
    rows = np.empty((len(paths), math.prod(shape)), dtype="<f8")
    _read_dkt_rows(paths, rows, shape, paths[0])
    # Row i holds image i's vec; reversing its axes views it column-major.
    k = len(shape)
    stack = rows.reshape((len(paths),) + shape[::-1]).transpose(0, *range(k, 0, -1))
    return stack.astype(np.float64, copy=False)


def _dkt_extents(paths):
    """The extents in the header of the first of the DKT1 files ``paths``,
    checked as :func:`_read_header` checks them."""
    if not paths:
        raise DimensionError("need at least one DKT1 file")
    with open(paths[0], "rb") as fh:
        return _read_header(fh, paths[0])


def _read_dkt_rows(paths, rows, shape, first):
    """Read the entries of the DKT1 files ``paths`` into the rows of the
    little-endian float64 matrix ``rows``, one file per row, in order.  Each
    file's header and length are checked before its entries are read, and a
    file whose extents are not ``shape``, those of the file ``first``, is
    refused, naming both."""
    for path, row in zip(paths, rows):
        with open(path, "rb") as fh:
            dims = _read_header(fh, path)
            if dims != shape:
                raise DataFormatError(f"{path}: extents {dims} differ from {shape} in {first}")
            if fh.readinto(row) != row.nbytes:
                raise DataFormatError(f"{path}: file shrank while it was read")


def _sanitize(obj):
    """``obj`` as strict JSON holds it: tuples as lists, floats as plain
    floats, and a non-finite float as None."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _write_json(path, payload):
    """Write ``payload`` to ``path``, or to standard output when ``path`` is
    None, as strict JSON with sorted keys: a non-finite float becomes null."""
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True, allow_nan=False)
    if path is None:
        print(text)
        return
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _read_json(path):
    """The JSON object in the file at ``path``; invalid JSON or any other
    JSON value is refused with a :class:`DataFormatError` naming ``path``."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise DataFormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj
