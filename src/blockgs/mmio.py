"""MatrixMarket text format support for dense real matrices.

The writer emits the array format (header line
``%%MatrixMarket matrix array real general``, column-major entries).  The
reader additionally accepts the coordinate format and materializes it
densely.  Entries must be finite.
"""

from __future__ import annotations

import numpy as np

from .core import as_matrix

_BANNER = "%%MatrixMarket"
_ARRAY_HEADER = "%%MatrixMarket matrix array real general"


def write_matrix_market(path, a) -> None:
    """Write ``a`` in MatrixMarket array format with 17 significant digits."""
    a = as_matrix(a)
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    m, n = a.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_ARRAY_HEADER + "\n")
        fh.write(f"{m} {n}\n")
        for j in range(n):
            for i in range(m):
                fh.write(f"{a[i, j]:.17g}\n")


def _parse_header(line: str, path) -> tuple[str, str, str]:
    tokens = line.split()
    if len(tokens) < 5 or tokens[0] != _BANNER or tokens[1].lower() != "matrix":
        raise ValueError(f"{path}: not a MatrixMarket matrix file: {line!r}")
    layout, field, symmetry = (t.lower() for t in tokens[2:5])
    if layout not in {"array", "coordinate"}:
        raise ValueError(f"{path}: unsupported MatrixMarket layout {layout!r}")
    if field != "real":
        raise ValueError(f"{path}: only real matrices are supported, got {field!r}")
    if symmetry != "general":
        raise ValueError(f"{path}: only general symmetry is supported, got {symmetry!r}")
    return layout, field, symmetry


def read_matrix_market(path) -> np.ndarray:
    """Read a MatrixMarket array or coordinate file into a dense matrix."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline()
        layout, _, _ = _parse_header(header, path)
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.lstrip().startswith("%")]
    if not lines:
        raise ValueError(f"{path}: missing size line")
    size_tokens = lines[0].split()
    body = lines[1:]
    if layout == "array":
        if len(size_tokens) != 2:
            raise ValueError(f"{path}: array size line must be 'm n', got {lines[0]!r}")
        m, n = (int(t) for t in size_tokens)
        if len(body) != m * n:
            raise ValueError(f"{path}: expected {m * n} entries, found {len(body)}")
        data = np.array([float(tok) for tok in body], dtype=np.float64)
        a = np.asfortranarray(data.reshape((m, n), order="F"))
    else:
        if len(size_tokens) != 3:
            raise ValueError(f"{path}: coordinate size line must be 'm n nnz', got {lines[0]!r}")
        m, n, nnz = (int(t) for t in size_tokens)
        if len(body) != nnz:
            raise ValueError(f"{path}: expected {nnz} entries, found {len(body)}")
        a = np.zeros((m, n), dtype=np.float64, order="F")
        seen = set()
        for ln in body:
            tokens = ln.split()
            if len(tokens) != 3:
                raise ValueError(f"{path}: bad coordinate entry {ln!r}")
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            if not (0 <= i < m and 0 <= j < n):
                raise ValueError(f"{path}: entry ({i + 1}, {j + 1}) outside {m}x{n}")
            if (i, j) in seen:
                raise ValueError(f"{path}: duplicate entry for ({i + 1}, {j + 1})")
            seen.add((i, j))
            a[i, j] = float(tokens[2])
    if not np.isfinite(a).all():
        raise ValueError(f"{path}: matrix contains non-finite entries")
    return as_matrix(a)
