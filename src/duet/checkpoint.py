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


@dataclass(frozen=True)
class _Entry:
    name: str
    dtype: np.dtype
    tag: str
    shape: tuple[int, ...]
    begin: int
    end: int


class CheckpointReader:
    """Validating random-access reader over one checkpoint container.

    Tensors are loaded one at a time from their byte ranges, so callers that
    stream layer-by-layer never hold the whole payload in memory.
    """

    def __init__(self, source: str | Path | BinaryIO, allow_nonfinite: bool = False):
        self._allow_nonfinite = allow_nonfinite
        if isinstance(source, (str, Path)):
            self._path = str(source)
            self._fh: BinaryIO = open(source, "rb")
            self._owns_fh = True
        else:
            self._path = getattr(source, "name", "<buffer>")
            self._fh = source
            self._owns_fh = False
        self._fingerprint: str | None = None
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
        header_bytes = fh.read(header_len)
        try:
            header = json.loads(header_bytes.decode("utf-8"), object_pairs_hook=self._json_object)
        except UnicodeDecodeError as exc:
            raise self._fail(f"header is not valid UTF-8 at byte offset {8 + exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise self._fail(f"malformed header JSON at byte offset {8 + exc.pos}") from exc
        except RecursionError as exc:
            raise self._fail("header JSON nests too deeply") from exc
        if not isinstance(header, dict):
            raise self._fail("header JSON must be an object")

        payload_size = file_size - _HEADER_LEN_BYTES - header_len
        self._payload_start = _HEADER_LEN_BYTES + header_len
        self._entries: dict[str, _Entry] = {}
        prev: _Entry | None = None
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
            if prev is not None and begin < prev.end:
                raise self._fail(
                    f"tensors {prev.name!r} and {name!r} have overlapping data_offsets"
                )
            expected_begin = 0 if prev is None else prev.end
            if begin != expected_begin:
                raise self._fail(
                    f"tensor {name!r}: data_offsets leave a gap (begin {begin}, expected {expected_begin})"
                )
            entry = _Entry(name, dtype, tag, shape, begin, end)
            self._entries[name] = entry
            prev = entry
        total = 0 if prev is None else prev.end
        if total != payload_size:
            raise self._fail(
                f"payload is {payload_size} bytes but data_offsets tile {total} (truncated or trailing bytes)"
            )

    @property
    def names(self) -> list[str]:
        return list(self._entries)

    def shape(self, name: str) -> tuple[int, ...]:
        return self._entries[name].shape

    def dtype_tag(self, name: str) -> str:
        return self._entries[name].tag

    def load(self, name: str) -> np.ndarray:
        entry = self._entries[name]
        self._fh.seek(self._payload_start + entry.begin)
        raw = self._fh.read(entry.end - entry.begin)
        if len(raw) != entry.end - entry.begin:
            raise self._fail(f"tensor {name!r}: payload truncated")
        try:
            arr = np.frombuffer(raw, dtype=entry.dtype).reshape(entry.shape)
        except ValueError as exc:  # more dimensions or elements than numpy allows
            raise self._fail(f"tensor {name!r}: shape {list(entry.shape)} is not loadable: {exc}") from exc
        if not self._allow_nonfinite and arr.size and not np.isfinite(arr).all():
            raise self._fail(
                f"tensor {name!r} contains non-finite values (load with allow_nonfinite=True to keep them)"
            )
        return arr

    def load_all(self) -> NamedTensorMap:
        return {name: self.load(name) for name in self._entries}

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            digest = hashlib.sha256()
            self._fh.seek(0)
            while True:
                chunk = self._fh.read(_HASH_CHUNK)
                if not chunk:
                    break
                digest.update(chunk)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def close(self):
        if self._owns_fh:
            self._fh.close()

    def __enter__(self) -> "CheckpointReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _iter_chunks(tensor_map: NamedTensorMap) -> Iterator[bytes]:
    """Yield the canonical byte stream of a map: length, header, then payload."""
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
    yield struct.pack(_HEADER_LEN_FMT, len(header_bytes))
    yield header_bytes
    for name, arr in tensor_map.items():
        le = np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[_KIND_TO_TAG[arr.dtype.itemsize]])
        yield le.tobytes()


def serialize_checkpoint(tensor_map: NamedTensorMap) -> bytes:
    return b"".join(_iter_chunks(tensor_map))


def fingerprint_map(tensor_map: NamedTensorMap) -> str:
    """SHA-256 of the canonical serialization, without materializing it."""
    digest = hashlib.sha256()
    for chunk in _iter_chunks(tensor_map):
        digest.update(chunk)
    return digest.hexdigest()


def write_atomically(path: str | Path, chunks: Iterable[bytes]) -> None:
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


def write_checkpoint(tensor_map: NamedTensorMap, path: str | Path) -> str:
    """Stream the canonical serialization to ``path`` atomically; returns its
    fingerprint.  Like the reader, refuses tensors with non-finite values."""
    for name, arr in tensor_map.items():
        check_tensor(arr, name)
        if arr.size and not np.isfinite(arr).all():
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} contains non-finite values; refusing to write it"
            )
    digest = hashlib.sha256()

    def chunks() -> Iterator[bytes]:
        for chunk in _iter_chunks(tensor_map):
            digest.update(chunk)
            yield chunk

    write_atomically(path, chunks())
    return digest.hexdigest()


def read_checkpoint(
    path: str | Path, allow_nonfinite: bool = False
) -> tuple[NamedTensorMap, str]:
    """Load a checkpoint, preserving header order; returns (map, fingerprint)."""
    with CheckpointReader(path, allow_nonfinite=allow_nonfinite) as reader:
        tensor_map = reader.load_all()
        return tensor_map, reader.fingerprint()


def parse_checkpoint(data: bytes, allow_nonfinite: bool = False) -> tuple[NamedTensorMap, str]:
    with CheckpointReader(io.BytesIO(data), allow_nonfinite=allow_nonfinite) as reader:
        return reader.load_all(), reader.fingerprint()


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
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise CheckpointFormatError(f"{path}: malformed partition JSON: {exc}") from exc
    return PartitionSpec.from_dict(payload)


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
