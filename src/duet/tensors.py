"""Dense named tensors and the deterministic numerical kernels built on them.

A tensor is a plain ``numpy.ndarray`` of dtype float32 or float64; a named
tensor map is an insertion-ordered ``dict[str, np.ndarray]``.  All reductions
accumulate in float64 with numpy's fixed pairwise tree, so results are
reproducible across runs and thread counts, and every kernel is a pure
function of its inputs.  :func:`map_layers` is the one walk over aligned
maps: every per-tensor operation goes through its key and shape checks.
A map may also be a :class:`LazyTensorMap`, whose layers are made when
they are looked up; its :attr:`~LazyTensorMap.layout` gives each layer's
dtype and shape without making it.
:func:`_blockwise` is the one walk within a tensor: every per-layer kernel
(:func:`combine`, the merge statistics, the sign counts, the DC-loss terms and
the distance sums) streams a tensor through small scratch blocks instead of
whole-tensor temporaries, with the same bits as the whole-tensor expressions.
"""

from __future__ import annotations

import math
from collections import deque
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import DTypeError, KeyMismatchError, ShapeError

SUPPORTED_DTYPES = (np.float32, np.float64)

NamedTensorMap = dict[str, np.ndarray]

# Elements per block of a kernel's walk over a large tensor.  A float64 block
# is 256 KiB, so the few scratch blocks of a call stay in a core's L2 cache.
_BLOCK = 32 * 1024


class TensorLayout(NamedTuple):
    """A tensor's dtype and shape, as a container header states them,
    without its values.  Like an array it has ``size`` and ``nbytes``, so a
    map of arrays is its own layout."""

    dtype: np.dtype
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize


class LazyTensorMap:
    """A read-only tensor map whose layers are made one at a time, when they
    are looked up.  ``layout`` maps each name, in map order, to an array or a
    :class:`TensorLayout` of its layer's dtype and shape; a subclass sets it
    and defines ``__getitem__``.  ``items()`` and ``values()`` make each layer
    once, in order, so a walk over them never holds the whole map."""

    layout: dict

    def keys(self):
        return self.layout.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self.layout)

    def __len__(self) -> int:
        return len(self.layout)

    def __contains__(self, name) -> bool:
        return name in self.layout

    def items(self) -> Iterator[tuple[str, np.ndarray]]:
        return ((name, self[name]) for name in self)

    def values(self) -> Iterator[np.ndarray]:
        return (self[name] for name in self)


class _Subset(LazyTensorMap):
    """The named tensors of a map, in the order given, looked up in it on
    access: a view that reads nothing until it is indexed."""

    def __init__(self, source, names: Iterable[str]):
        self._source = source
        source_layout = layout_of(source)
        self.layout = {name: source_layout[name] for name in names}

    def __getitem__(self, name: str):
        if name not in self.layout:
            raise KeyError(name)
        return self._source[name]


def layout_of(tensor_map) -> dict:
    """The names, dtypes and shapes of a map's layers, read without making
    them: a lazy map's ``layout``, or a map of arrays itself."""
    return tensor_map.layout if isinstance(tensor_map, LazyTensorMap) else tensor_map


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


def check_layout_entry(x, name: str = "tensor"):
    """:func:`check_tensor` for a layout entry, an array or a :class:`TensorLayout`."""
    if not isinstance(x, TensorLayout):
        return check_tensor(x, name)
    if x.dtype.type not in SUPPORTED_DTYPES:
        raise DTypeError(f"{name}: unsupported dtype {x.dtype}; expected float32 or float64")
    return x


def check_same_shape(op: str, **arrays: np.ndarray):
    """ShapeError unless the arrays, named by their keywords, share one shape."""
    (a, x), *others = arrays.items()
    for b, y in others:
        if y.shape != x.shape:
            raise ShapeError(f"{op}: shape mismatch between {a} {x.shape} and {b} {y.shape}")


def _blockwise(arrays: Iterable[np.ndarray], leaf: Callable, *scratch) -> object:
    """``leaf(*blocks, *scratch_blocks)`` over consecutive blocks of aligned
    arrays of one size, the results added up the tree of numpy's pairwise
    summation.

    Each array is walked flat, row-major (a non-row-major one is copied
    first); its blocks are views, so a leaf may write into them.  The scratch
    blocks are views of one fresh array per ``scratch`` dtype, at most one
    block long and made once per walk, so concurrent walks share nothing.  A
    span longer than ``_BLOCK`` splits where numpy's pairwise sum splits it,
    at half its length rounded down to a multiple of 8, so each block is a
    node of that tree: float64 block sums added this way equal ``np.sum``
    over the whole span bit for bit.  Elementwise leaves return 0.
    """
    flats = [x.reshape(-1) for x in arrays]
    size = flats[0].size
    buffers = [np.empty(min(size, _BLOCK), dtype) for dtype in scratch]
    return _node(0, size, leaf, flats, buffers)


def _node(lo: int, hi: int, leaf: Callable, flats: list, buffers: list) -> object:
    # Module level, not a closure: a self-referencing closure is a cycle that
    # would keep the walk's scratch and tensors alive until the next GC pass.
    if hi - lo <= _BLOCK:
        return leaf(*[x[lo:hi] for x in flats], *[buffer[: hi - lo] for buffer in buffers])
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _node(lo, mid, leaf, flats, buffers) + _node(mid, hi, leaf, flats, buffers)


def combine(terms, dtype) -> np.ndarray:
    """Read-only ``sum(c * x for c, x in terms)``, rounded once to ``dtype``,
    a block at a time.  Each ``c`` is a number; callers check that the ``x``
    share one shape.  Products and the left-to-right sum are float64 (under
    numpy 2 a Python float times a float32 array stays float32).
    """
    (c0, *rest), arrays = zip(*terms)
    out = np.empty(np.shape(arrays[0]), dtype)

    def leaf(out_block, x0, *blocks_and_scratch) -> int:
        *blocks, total, product = blocks_and_scratch
        np.multiply(c0, x0, out=total, dtype=np.float64)
        for c, x in zip(rest, blocks):
            np.add(total, np.multiply(c, x, out=product, dtype=np.float64), out=total)
        out_block[...] = total
        return 0

    _blockwise((out, *arrays), leaf, np.float64, np.float64)
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
    check_same_shape("inner_product", x=check_tensor(x, "x"), y=check_tensor(y, "y"))
    if x.dtype != y.dtype:
        raise DTypeError(f"inner_product: dtype mismatch between x ({x.dtype}) and y ({y.dtype})")
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
