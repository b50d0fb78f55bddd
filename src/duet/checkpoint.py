"""Bit-exact checkpoint container I/O and partition manifests.

The container layout is an 8-byte little-endian header length, a minimal
UTF-8 JSON header mapping tensor name to ``{"dtype", "shape",
"data_offsets"}``, then the concatenated little-endian row-major tensor
payload (layout-compatible with the common safetensors container, so
fixtures can come from ordinary export scripts).

Serialization is canonical: keys in map order, minimal JSON, offsets tightly
packed from zero.  Identical maps therefore serialize to identical bytes and
identical SHA-256 fingerprints.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import CheckpointFormatError, EmptyInputError, PartitionError
from .tensors import NamedTensorMap, check_tensor

_HEADER_LEN_FMT = "<Q"
_HEADER_LEN_BYTES = 8
_TAG_TO_DTYPE = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8")}
_KIND_TO_TAG = {4: "F32", 8: "F64"}
_HASH_CHUNK = 1 << 20
# Longest header a reader accepts, the common safetensors limit: a bogus
# length would otherwise be read into memory before it is parsed.
_MAX_HEADER_BYTES = 100_000_000
# Header key that carries free-form metadata, not a tensor; readers skip it.
_METADATA_KEY = "__metadata__"


def _dtype_tag(arr: np.ndarray, name: str) -> str:
    check_tensor(arr, name)
    return _KIND_TO_TAG[arr.dtype.itemsize]


def _nbytes(shape: tuple[int, ...], dtype: np.dtype) -> int:
    n = 1
    for extent in shape:
        n *= extent
    return n * dtype.itemsize


class CheckpointReader:
    """Validating random-access reader over one checkpoint container.

    It reads like a map of tensor names to arrays, in header order:
    ``keys()``, iteration, ``len`` and ``reader[name]``, so ``dict(reader)``
    loads every tensor and ``map_layers`` or ``partition_checkpoint`` take a
    reader as they take a dict.  Tensors are loaded one at a time from their
    byte ranges, so callers that stream layer-by-layer never hold the whole
    payload in memory.
    """

    def __init__(self, source: str | Path | BinaryIO):
        if isinstance(source, (str, Path)):
            self._path = str(source)
            self._fh: BinaryIO = open(source, "rb")
            self._owns_fh = True
        else:
            self._path = getattr(source, "name", "<buffer>")
            self._fh = source
            self._owns_fh = False
        try:
            self._parse_header()
        except Exception:
            self.close()
            raise

    def _fail(self, message: str) -> CheckpointFormatError:
        return CheckpointFormatError(f"{self._path}: {message}")

    def _json_object(self, pairs: list[tuple[str, object]]) -> dict:
        obj = dict(pairs)
        if len(obj) != len(pairs):
            counts = Counter(key for key, _ in pairs)
            duplicate = next(key for key, count in counts.items() if count > 1)
            raise self._fail(f"header JSON repeats the key {duplicate!r}")
        return obj

    def _parse_header(self):
        fh = self._fh
        fh.seek(0, io.SEEK_END)
        file_size = fh.tell()
        fh.seek(0)
        raw_len = fh.read(_HEADER_LEN_BYTES)
        if len(raw_len) < _HEADER_LEN_BYTES:
            raise self._fail(f"file too short ({file_size} bytes) for the 8-byte header length")
        (header_len,) = struct.unpack(_HEADER_LEN_FMT, raw_len)
        if _HEADER_LEN_BYTES + header_len > file_size:
            raise self._fail(
                f"header length {header_len} exceeds file size {file_size} (truncated header)"
            )
        if header_len > _MAX_HEADER_BYTES:
            raise self._fail(
                f"header length {header_len} exceeds the {_MAX_HEADER_BYTES}-byte header limit"
            )
        header_bytes = fh.read(header_len)
        try:
            text = header_bytes.decode("utf-8")
            header = json.loads(text, object_pairs_hook=self._json_object)
        except UnicodeDecodeError as exc:
            raise self._fail(f"header is not valid UTF-8 at byte offset {8 + exc.start}") from exc
        except json.JSONDecodeError as exc:  # exc.pos counts characters, not bytes
            offset = _HEADER_LEN_BYTES + len(text[: exc.pos].encode("utf-8"))
            raise self._fail(f"malformed header JSON at byte offset {offset}") from exc
        except ValueError as exc:  # an integer over the digit limit of int()
            raise self._fail(f"malformed header JSON: {exc}") from exc
        except RecursionError as exc:
            raise self._fail("header JSON nests too deeply") from exc
        if not isinstance(header, dict):
            raise self._fail("header JSON must be an object")

        payload_size = file_size - _HEADER_LEN_BYTES - header_len
        self._payload_start = _HEADER_LEN_BYTES + header_len
        # Name to (dtype, shape, begin, end), as a plain tuple: the collector
        # stops tracking a tuple of untracked values once a collection has
        # seen it (a NamedTuple or a dataclass instance it tracks for good),
        # so a reader of many tensors adds nothing to each collection.
        self._entries: dict[str, tuple[np.dtype, tuple[int, ...], int, int]] = {}
        prev_name, prev_end = None, 0
        for name, meta in header.items():
            if name == _METADATA_KEY:
                continue
            if not isinstance(meta, dict):
                raise self._fail(f"tensor {name!r}: header entry must be an object")
            try:
                tag = meta["dtype"]
                shape_raw = meta["shape"]
                offsets = meta["data_offsets"]
            except KeyError as exc:
                raise self._fail(f"tensor {name!r}: missing header field {exc.args[0]!r}") from exc
            if not isinstance(tag, str) or tag not in _TAG_TO_DTYPE:
                raise self._fail(f"tensor {name!r}: unknown dtype {tag!r} (expected F32 or F64)")
            # bool is an int subclass, so JSON true/false would pass isinstance(x, int)
            if not isinstance(shape_raw, list) or any(
                type(extent) is not int or extent < 0 for extent in shape_raw
            ):
                raise self._fail(f"tensor {name!r}: shape must be a list of non-negative integers")
            if (
                not isinstance(offsets, list)
                or len(offsets) != 2
                or any(type(off) is not int for off in offsets)
            ):
                raise self._fail(f"tensor {name!r}: data_offsets must be [begin, end]")
            begin, end = offsets
            dtype = _TAG_TO_DTYPE[tag]
            shape = tuple(shape_raw)
            if begin < 0 or end < begin:
                raise self._fail(f"tensor {name!r}: invalid data_offsets [{begin}, {end})")
            if end - begin != _nbytes(shape, dtype):
                raise self._fail(
                    f"tensor {name!r}: data_offsets span {end - begin} bytes but "
                    f"shape {list(shape)} x {tag} needs {_nbytes(shape, dtype)}"
                )
            if begin < prev_end:
                raise self._fail(
                    f"tensors {prev_name!r} and {name!r} have overlapping data_offsets"
                )
            if begin != prev_end:
                raise self._fail(
                    f"tensor {name!r}: data_offsets leave a gap (begin {begin}, expected {prev_end})"
                )
            self._entries[name] = (dtype, shape, begin, end)
            prev_name, prev_end = name, end
        if prev_end != payload_size:
            raise self._fail(
                f"payload is {payload_size} bytes but data_offsets tile {prev_end} (truncated or trailing bytes)"
            )

    def keys(self):
        return self._entries.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.load(name)

    def load(self, name: str) -> np.ndarray:
        dtype, shape, begin, end = self._entries[name]
        self._fh.seek(self._payload_start + begin)
        raw = self._fh.read(end - begin)
        if len(raw) != end - begin:
            raise self._fail(f"tensor {name!r}: payload truncated")
        try:
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as exc:  # more dimensions or elements than numpy allows
            raise self._fail(f"tensor {name!r}: shape {list(shape)} is not loadable: {exc}") from exc
        if arr.size and not np.isfinite(arr).all():
            raise self._fail(f"tensor {name!r} contains non-finite values")
        return arr

    def fingerprint(self) -> str:
        """SHA-256 of the whole file, read once more from its start."""
        digest = hashlib.sha256()
        self._fh.seek(0)
        while chunk := self._fh.read(_HASH_CHUNK):
            digest.update(chunk)
        return digest.hexdigest()

    def close(self):
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _read_text(path: str | Path, what: str) -> str:
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: {what} is not valid UTF-8 at byte offset {exc.start}") from exc


def _parse_json(text: str, where: str, what: str) -> object:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also ints over int()'s digit limit
        raise CheckpointFormatError(f"{where}: malformed {what}: {exc}") from exc


def read_json(path: str | Path, what: str) -> object:
    """The JSON value in the UTF-8 file ``path``; a decode failure is a ``CheckpointFormatError``."""
    return _parse_json(_read_text(path, what), str(path), what)


def read_json_lines(path: str | Path, what: str) -> Iterator[tuple[str, object]]:
    """``("path:line N", value)`` per non-blank line; only "\\n" ends one (a JSON string may hold U+2028)."""
    for number, line in enumerate(_read_text(path, what).split("\n"), start=1):
        line = line.strip()
        if line:
            yield f"{path}:line {number}", _parse_json(line, f"{path}:line {number}", what)


def read_csv_rows(path: str | Path, what: str) -> Iterator[tuple[str, dict]]:
    """``("path:row N", row)`` per data row of a CSV file whose row 1 names the columns."""
    reader = csv.DictReader(io.StringIO(_read_text(path, what), newline=""))
    try:
        yield from ((f"{path}:row {number}", row) for number, row in enumerate(reader, start=2))
    except csv.Error as exc:
        raise CheckpointFormatError(f"{path}: malformed {what}: {exc}") from exc


def canonical_header(tensor_map: NamedTensorMap) -> bytes:
    """The length prefix and header JSON that open a map's canonical byte
    stream.  Only the names, dtypes and shapes of ``tensor_map`` are read."""
    if not tensor_map:
        raise EmptyInputError("cannot serialize an empty tensor map")
    if _METADATA_KEY in tensor_map:
        raise CheckpointFormatError(
            f"tensor name {_METADATA_KEY!r} is reserved for the header metadata entry"
        )
    header: dict[str, dict] = {}
    offset = 0
    for name, arr in tensor_map.items():
        tag = _dtype_tag(arr, name)
        size = arr.size * arr.dtype.itemsize
        header[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + size],
        }
        offset += size
    header_bytes = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
    return struct.pack(_HEADER_LEN_FMT, len(header_bytes)) + header_bytes


def canonical_payload(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the little-endian row-major array whose bytes the container stores."""
    return np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[_KIND_TO_TAG[arr.dtype.itemsize]])


def _iter_chunks(tensor_map: NamedTensorMap) -> Iterator[bytes | np.ndarray]:
    """Yield the canonical byte stream of a map: the header, then each
    tensor's payload as a contiguous array, whose buffer is written as it is."""
    yield canonical_header(tensor_map)
    for arr in tensor_map.values():
        yield canonical_payload(arr)


def serialize_checkpoint(tensor_map: NamedTensorMap) -> bytes:
    return b"".join(_iter_chunks(tensor_map))


def fingerprint_map(tensor_map: NamedTensorMap) -> str:
    """SHA-256 of the canonical serialization, without materializing it."""
    digest = hashlib.sha256(canonical_header(tensor_map))
    for arr in tensor_map.values():
        digest.update(canonical_payload(arr))
    return digest.hexdigest()


def write_atomically(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then move it onto
    ``path``.  On any error the temporary file is removed and ``path`` keeps
    its earlier contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_checkpoint(tensor_map: NamedTensorMap, path: str | Path) -> None:
    """Stream the canonical serialization to ``path`` atomically.  Like the
    reader, refuses tensors with non-finite values.  Nothing is hashed:
    ``fingerprint_map`` gives the digest of a map where one is used."""
    for name, arr in tensor_map.items():
        check_tensor(arr, name)
        if arr.size and not np.isfinite(arr).all():
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} contains non-finite values; refusing to write it"
            )
    write_atomically(path, _iter_chunks(tensor_map))


def read_checkpoint(path: str | Path) -> NamedTensorMap:
    """Load a checkpoint, preserving header order.  The file is not hashed:
    ``CheckpointReader.fingerprint()`` gives the digest where one is used."""
    with CheckpointReader(path) as reader:
        return dict(reader)


def parse_checkpoint(data: bytes) -> NamedTensorMap:
    with CheckpointReader(io.BytesIO(data)) as reader:
        return dict(reader)


def _check_pattern(pattern: str) -> str:
    if not isinstance(pattern, str) or not pattern:
        raise PartitionError(f"invalid pattern {pattern!r}: patterns are non-empty strings")
    if "*" in pattern[:-1]:
        raise PartitionError(
            f"invalid pattern {pattern!r}: only a single trailing '*' wildcard is supported"
        )
    return pattern


def _matches(name: str, pattern: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


@dataclass(frozen=True)
class PartitionSpec:
    """Pattern rules splitting a checkpoint into shared and task-specific sets.

    Patterns are literal names with an optional trailing ``*``.  Every tensor
    name must match exactly one of the two lists.  ``replace_patterns`` flags
    task-specific tensors whose shape does not grow with the class count;
    head concatenation takes those from the current task instead.
    """

    shared_patterns: tuple[str, ...]
    task_specific_patterns: tuple[str, ...]
    head_concat_axis: int
    replace_patterns: tuple[str, ...] = field(default=())

    def __post_init__(self):
        for pattern in (*self.shared_patterns, *self.task_specific_patterns, *self.replace_patterns):
            _check_pattern(pattern)
        if not isinstance(self.head_concat_axis, int) or isinstance(self.head_concat_axis, bool):
            raise PartitionError("head_concat_axis must be an integer")

    @classmethod
    def from_dict(cls, payload: dict) -> "PartitionSpec":
        if not isinstance(payload, dict):
            raise PartitionError("partition manifest must be a JSON object")
        known = {"shared", "task_specific", "head_concat_axis", "replace"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise PartitionError(f"partition manifest has unknown keys: {unknown}")
        missing = sorted({"shared", "task_specific", "head_concat_axis"} - set(payload))
        if missing:
            raise PartitionError(f"partition manifest is missing keys: {missing}")
        lists = ("shared", "task_specific", "replace")
        not_lists = [key for key in lists if not isinstance(payload.get(key, []), list)]
        if not_lists:
            raise PartitionError(f"partition manifest keys {not_lists} must be lists of patterns")
        return cls(
            shared_patterns=tuple(payload["shared"]),
            task_specific_patterns=tuple(payload["task_specific"]),
            head_concat_axis=payload["head_concat_axis"],
            replace_patterns=tuple(payload.get("replace", ())),
        )

    def to_dict(self) -> dict:
        out = {
            "shared": list(self.shared_patterns),
            "task_specific": list(self.task_specific_patterns),
            "head_concat_axis": self.head_concat_axis,
        }
        if self.replace_patterns:
            out["replace"] = list(self.replace_patterns)
        return out

    def is_shared(self, name: str) -> bool:
        return any(_matches(name, p) for p in self.shared_patterns)

    def is_task_specific(self, name: str) -> bool:
        return any(_matches(name, p) for p in self.task_specific_patterns)

    def is_replace(self, name: str) -> bool:
        return any(_matches(name, p) for p in self.replace_patterns)


def load_partition_spec(path: str | Path) -> PartitionSpec:
    return PartitionSpec.from_dict(read_json(path, "partition JSON"))


def classify_names(names: Iterable[str], spec: PartitionSpec) -> tuple[list[str], list[str]]:
    """Split names into (shared, task_specific), validating exact single coverage."""
    shared: list[str] = []
    task: list[str] = []
    unmatched: list[str] = []
    doubly: list[str] = []
    for name in names:
        in_shared = spec.is_shared(name)
        in_task = spec.is_task_specific(name)
        if in_shared and in_task:
            doubly.append(name)
        elif in_shared:
            shared.append(name)
        elif in_task:
            task.append(name)
        else:
            unmatched.append(name)
    problems = []
    if doubly:
        problems.append(f"matched by both pattern lists: {doubly}")
    if unmatched:
        problems.append(f"matched by neither pattern list: {unmatched}")
    if problems:
        raise PartitionError("partition does not cover names exactly once; " + "; ".join(problems))
    return shared, task


def partition_checkpoint(
    tensor_map: NamedTensorMap, spec: PartitionSpec
) -> tuple[NamedTensorMap, NamedTensorMap]:
    """Split a map into (shared, task_specific), preserving order, no copies."""
    shared_names, task_names = classify_names(tensor_map, spec)
    shared = {name: tensor_map[name] for name in shared_names}
    task = {name: tensor_map[name] for name in task_names}
    return shared, task
