"""Dense named tensors and the deterministic numerical kernels built on them.

A tensor is a plain ``numpy.ndarray`` of dtype float32 or float64; a named
tensor map is an insertion-ordered ``dict[str, np.ndarray]``.  All reductions
accumulate in float64 with numpy's fixed pairwise tree, so results are
reproducible across runs and thread counts, and every kernel is a pure
function of its inputs.  :func:`map_layers` is the one walk over aligned
maps: every per-tensor operation goes through its key and shape checks.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DTypeError, KeyMismatchError, ShapeError

SUPPORTED_DTYPES = (np.float32, np.float64)

# Stability constant added to the norm product in cosine_similarity.  Distinct
# from the merge epsilon; keeps the ratio strictly inside (-1, 1).
COSINE_EPS = 1e-12

NamedTensorMap = dict[str, np.ndarray]


def tensor(values, dtype="f64", allow_nonfinite: bool = False) -> np.ndarray:
    """Build a validated, read-only tensor from array-like data.

    ``dtype`` is ``"f32"``/``"f64"`` or a numpy float dtype.  Non-finite
    values are rejected unless ``allow_nonfinite`` is set.
    """
    np_dtype = {"f32": np.float32, "F32": np.float32, "f64": np.float64, "F64": np.float64}.get(
        dtype, dtype
    )
    np_dtype = np.dtype(np_dtype)
    if np_dtype.type not in SUPPORTED_DTYPES:
        raise DTypeError(f"unsupported dtype {np_dtype!r}; expected float32 or float64")
    arr = np.array(values, dtype=np_dtype)
    if not allow_nonfinite and arr.size and not np.isfinite(arr).all():
        raise DTypeError("tensor contains non-finite values (pass allow_nonfinite=True to keep them)")
    arr.flags.writeable = False
    return arr


def check_tensor(x: np.ndarray, name: str = "tensor") -> np.ndarray:
    if not isinstance(x, np.ndarray):
        raise DTypeError(f"{name}: expected a numpy array, got {type(x).__name__}")
    if x.dtype.type not in SUPPORTED_DTYPES:
        raise DTypeError(f"{name}: unsupported dtype {x.dtype}; expected float32 or float64")
    return x


def _check_pair(x: np.ndarray, y: np.ndarray, op: str, x_name: str = "x", y_name: str = "y"):
    check_tensor(x, x_name)
    check_tensor(y, y_name)
    if x.shape != y.shape:
        raise ShapeError(
            f"{op}: shape mismatch between {x_name} {x.shape} and {y_name} {y.shape}"
        )
    if x.dtype != y.dtype:
        raise DTypeError(f"{op}: dtype mismatch between {x_name} ({x.dtype}) and {y_name} ({y.dtype})")


def combine(terms, dtype) -> np.ndarray:
    """Read-only ``sum(c * x for c, x in terms)``, rounded once to ``dtype``.

    Products and the left-to-right sum are float64 (under numpy 2 a Python
    float times a float32 array stays float32).  Callers check shapes.
    """
    terms = iter(terms)
    c, x = next(terms)
    total = np.multiply(c, x, dtype=np.float64)
    for c, x in terms:
        # Not ``+=``: that left the heap more fragmented on many small tensors.
        # Large sums reuse the product's buffer (numpy elides the temporary).
        total = total + np.multiply(c, x, dtype=np.float64)
    out = total.astype(dtype, copy=False)
    out.flags.writeable = False
    return out


def linear_combine(a: float, x: np.ndarray, b: float, y: np.ndarray) -> np.ndarray:
    """Elementwise ``a*x + b*y`` computed in float64, cast back to the input dtype."""
    _check_pair(x, y, "linear_combine")
    return combine(((float(a), x), (float(b), y)), x.dtype)


def l1_norm(x: np.ndarray) -> float:
    """Sum of absolute values, accumulated in float64 in a fixed reduction order."""
    check_tensor(x)
    return float(np.sum(np.abs(x.astype(np.float64, copy=False)), dtype=np.float64))


def l2_norm(x: np.ndarray) -> float:
    check_tensor(x)
    return math.sqrt(float(np.sum(np.square(x.astype(np.float64, copy=False)), dtype=np.float64)))


def inner_product(x: np.ndarray, y: np.ndarray) -> float:
    """Dot product in float64.

    The elementwise products are commutative and the reduction tree is fixed,
    so ``inner_product(x, y) == inner_product(y, x)`` bit-exactly.
    """
    _check_pair(x, y, "inner_product")
    return float(
        np.sum(x.astype(np.float64, copy=False) * y.astype(np.float64, copy=False), dtype=np.float64)
    )


def cosine_similarity(x: np.ndarray, y: np.ndarray) -> float:
    """Cosine of the angle between flattened tensors; 0 when either norm is 0."""
    _check_pair(x, y, "cosine_similarity")
    nx = l2_norm(x)
    ny = l2_norm(y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    return inner_product(x, y) / (nx * ny + COSINE_EPS)


def check_same_keys(a: NamedTensorMap, b: NamedTensorMap, op: str, a_name: str = "left", b_name: str = "right"):
    """Raise KeyMismatchError listing the symmetric difference of two maps' keys."""
    if a.keys() == b.keys():
        return
    only_a = sorted(a.keys() - b.keys())
    only_b = sorted(b.keys() - a.keys())
    raise KeyMismatchError(
        f"{op}: key sets differ; only in {a_name}: {only_a}; only in {b_name}: {only_b}"
    )


def map_layers(
    op: str, fn: Callable, maps: dict[str, NamedTensorMap], threads: int = 1
) -> Iterator[tuple[str, object]]:
    """Lazily yield ``(name, fn(name, *layers))`` over aligned tensor maps.

    ``maps`` maps a label (for error messages) to a tensor map.  The first map
    sets the order and the key set (KeyMismatchError, checked now); each
    name's layers must share one shape (ShapeError, checked on reaching it).
    """
    (first_label, first), *others = maps.items()
    for label, other in others:
        check_same_keys(other, first, op, label, first_label)
    return _walk(op, fn, maps, first, threads)


def _walk(op: str, fn: Callable, maps: dict, names: Iterable, threads: int) -> Iterator:
    """Up to ``2 * threads`` calls in flight.  Layers are fetched on the consuming
    thread, so a caller may replace a name's entries once it has been yielded."""

    def args(name: str) -> list:
        layers = [tensor_map[name] for tensor_map in maps.values()]
        shapes = [getattr(layer, "shape", None) for layer in layers]
        if shapes.count(shapes[0]) != len(shapes):
            listed = " vs ".join(f"{label} {shape}" for label, shape in zip(maps, shapes))
            raise ShapeError(f"{op}: tensor {name!r}: shape mismatch {listed}")
        return [name, *layers]

    if threads <= 1:
        for name in names:
            yield name, fn(*args(name))
        return
    # Imported here: only a walk with threads > 1 needs the pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for name in names:
            pending.append((name, pool.submit(fn, *args(name))))
            if len(pending) >= 2 * threads:
                name, future = pending.popleft()
                yield name, future.result()
        while pending:
            name, future = pending.popleft()
            yield name, future.result()
