"""Dense named tensors and the deterministic numerical kernels built on them.

A tensor is a plain ``numpy.ndarray`` of dtype float32 or float64; a named
tensor map is an insertion-ordered ``dict[str, np.ndarray]``.  All reductions
accumulate in float64 with numpy's fixed pairwise tree, so results are
reproducible across runs and thread counts, and every kernel is a pure
function of its inputs.  :func:`map_layers` is the one walk over aligned
maps: every per-tensor operation goes through its key and shape checks.
:func:`_blockwise` is the one walk within a tensor: the merge kernels stream
a large tensor through small scratch blocks instead of whole-tensor
temporaries, with the same bits as the whole-tensor expressions.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DTypeError, KeyMismatchError, ShapeError

SUPPORTED_DTYPES = (np.float32, np.float64)

NamedTensorMap = dict[str, np.ndarray]

# Elements per block of a kernel's walk over a large tensor.  A float64 block
# is 256 KiB, so the few scratch blocks of a call stay in a core's L2 cache.
_BLOCK = 32 * 1024


def tensor(values, dtype="f64") -> np.ndarray:
    """Build a validated, read-only tensor from array-like data.

    ``dtype`` is ``"f32"``/``"f64"`` or a numpy float dtype.  Non-finite
    values are rejected.
    """
    np_dtype = {"f32": np.float32, "F32": np.float32, "f64": np.float64, "F64": np.float64}.get(
        dtype, dtype
    )
    np_dtype = np.dtype(np_dtype)
    if np_dtype.type not in SUPPORTED_DTYPES:
        raise DTypeError(f"unsupported dtype {np_dtype!r}; expected float32 or float64")
    arr = np.array(values, dtype=np_dtype)
    if arr.size and not np.isfinite(arr).all():
        raise DTypeError("tensor contains non-finite values")
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


def _blocked(*arrays: np.ndarray) -> bool:
    """Whether a kernel walks these aligned arrays with :func:`_blockwise`:
    they hold more than one block, share one shape and are row-major
    contiguous, so a flat slice is a block and memory order is the order in
    which numpy sums.  Other arrays keep the kernels' whole-array code."""
    first = arrays[0]
    return first.size > _BLOCK and all(
        a.shape == first.shape and a.flags.c_contiguous for a in arrays
    )


def _blockwise(size: int, leaf: Callable, *scratch) -> object:
    """``leaf(lo, hi, *blocks)`` over consecutive blocks of a ``size``-element
    walk, the results added up the tree of numpy's pairwise summation.

    ``blocks`` are views ``hi - lo`` long of one fresh array per ``scratch``
    dtype, allocated once per walk, so concurrent walks share nothing.  A span
    longer than ``_BLOCK`` splits where numpy's pairwise sum splits it, at
    half its length rounded down to a multiple of 8, so each block is a node
    of that tree: float64 block sums added this way equal ``np.sum`` over the
    whole span bit for bit.  Elementwise leaves return 0.
    """
    return _node(0, size, leaf, [np.empty(_BLOCK, dtype) for dtype in scratch])


def _node(lo: int, hi: int, leaf: Callable, buffers: list) -> object:
    # Module level, not a closure: a self-referencing closure is a cycle that
    # would keep the walk's scratch and tensors alive until the next GC pass.
    if hi - lo <= _BLOCK:
        return leaf(lo, hi, *[buffer[: hi - lo] for buffer in buffers])
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _node(lo, mid, leaf, buffers) + _node(mid, hi, leaf, buffers)


def combine(terms, dtype) -> np.ndarray:
    """Read-only ``sum(c * x for c, x in terms)``, rounded once to ``dtype``.

    Products and the left-to-right sum are float64 (under numpy 2 a Python
    float times a float32 array stays float32).  Callers check shapes.
    """
    terms = tuple(terms)
    # The size test inline: small calls skip a call.
    if terms[0][1].size > _BLOCK and _blocked(*[x for _, x in terms]):
        return _combine_blocks(terms, dtype)
    terms = iter(terms)
    c, x = next(terms)
    total = np.multiply(c, x, dtype=np.float64)
    for c, x in terms:
        # Not ``+=``: that left the heap more fragmented on many small tensors.
        # Large sums reuse the product's buffer (numpy elides the temporary).
        total = total + np.multiply(c, x, dtype=np.float64)
    out = np.asarray(total.astype(dtype, copy=False))  # a 0-d total is a numpy scalar
    out.flags.writeable = False
    return out


def _combine_blocks(terms: tuple, dtype) -> np.ndarray:
    """:func:`combine` a block at a time through two float64 scratch blocks."""
    (c0, x0), *rest = [(c, x.reshape(-1)) for c, x in terms]
    out = np.empty(terms[0][1].shape, dtype)
    flat_out = out.reshape(-1)

    def leaf(lo: int, hi: int, total: np.ndarray, product: np.ndarray) -> int:
        np.multiply(c0, x0[lo:hi], out=total, dtype=np.float64)
        for c, x in rest:
            np.add(total, np.multiply(c, x[lo:hi], out=product, dtype=np.float64), out=total)
        flat_out[lo:hi] = total
        return 0

    _blockwise(out.size, leaf, np.float64, np.float64)
    out.flags.writeable = False
    return out


def _abs_sum(block: np.ndarray, scratch: np.ndarray) -> np.float64:
    """The L1 leaf of a blocked walk: the float64 sum of ``|block|``, taken
    through a float64 ``scratch`` block as long as ``block`` (which may be
    ``scratch`` itself)."""
    return np.sum(np.abs(block, out=scratch))


def l1_norm(x: np.ndarray, axis=None):
    """Sum of absolute values, accumulated in float64 in a fixed reduction
    order: a float, or with numpy's reduction ``axis`` a float64 array."""
    check_tensor(x)
    norms = np.sum(np.abs(x.astype(np.float64, copy=False)), axis=axis, dtype=np.float64)
    return float(norms) if axis is None else norms


def inner_product(x: np.ndarray, y: np.ndarray) -> float:
    """Dot product in float64.

    The elementwise products are commutative and the reduction tree is fixed,
    so ``inner_product(x, y) == inner_product(y, x)`` bit-exactly.
    """
    _check_pair(x, y, "inner_product")
    return float(
        np.sum(x.astype(np.float64, copy=False) * y.astype(np.float64, copy=False), dtype=np.float64)
    )


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
    check_aligned(op, maps)
    names = next(iter(maps.values()))
    calls = ((name, partial(fn, *_layer_args(op, maps, name))) for name in names)
    return _walk(calls, threads)


def check_aligned(op: str, maps: dict[str, NamedTensorMap]):
    """The key check of :func:`map_layers`: every map has the first map's keys."""
    (first_label, first), *others = maps.items()
    for label, other in others:
        check_same_keys(other, first, op, label, first_label)


def _layer_args(op: str, maps: dict, name: str) -> list:
    layers = [tensor_map[name] for tensor_map in maps.values()]
    check_shapes(op, maps, name, layers)
    return [name, *layers]


def check_shapes(op: str, labels: Iterable[str], name: str, layers: list):
    """The check of :func:`map_layers`: one name's layers, one per label, share one shape."""
    shapes = [getattr(layer, "shape", None) for layer in layers]
    if shapes.count(shapes[0]) != len(shapes):
        listed = " vs ".join(f"{label} {shape}" for label, shape in zip(labels, shapes))
        raise ShapeError(f"{op}: tensor {name!r}: shape mismatch {listed}")


def _walk(calls: Iterable[tuple[object, Callable]], threads: int) -> Iterator:
    """``(key, call())`` for each ``(key, call)``, in order, with up to
    ``2 * threads`` calls in flight.  ``calls`` is advanced on the consuming
    thread, so the layers it fetches are fetched there, and a caller may
    replace a name's entries once it has been yielded."""
    # Each ``del call`` drops the call's layers before the next fetch.
    if threads <= 1:
        for key, call in calls:
            result = call()
            del call
            yield key, result
        return
    # Imported here: only a walk with threads > 1 needs the pool.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for key, call in calls:
            pending.append((key, pool.submit(call)))
            del call
            if len(pending) >= 2 * threads:
                key, future = pending.popleft()
                yield key, future.result()
        while pending:
            key, future = pending.popleft()
            yield key, future.result()
