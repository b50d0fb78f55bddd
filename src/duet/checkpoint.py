"""Bit-exact checkpoint container I/O and partition manifests.

The container layout is an 8-byte little-endian header length, a minimal
UTF-8 JSON header mapping tensor name to ``{"dtype", "shape",
"data_offsets"}``, then the concatenated little-endian row-major tensor
payload (layout-compatible with the common safetensors container, so
fixtures can come from ordinary export scripts).

Serialization is canonical: keys in map order, minimal JSON, offsets tightly
packed from zero.  Identical maps therefore serialize to identical bytes and
identical SHA-256 fingerprints.  The header depends only on the map's layout
(its names, dtypes and shapes), so :func:`write_checkpoint` writes it first
and then takes the layers one at a time, as a merge makes them.

One ordered I/O thread, started on first use, runs file writes and digest
updates beside the arithmetic that makes their bytes (hashlib and file
writes release the interpreter lock).  A producer hands it work through a
:class:`_Lane`: the lane's jobs run in the order they were handed over, a
job the thread has not started when its producer waits for it runs on the
producer, and the first error one raises is raised again on the producer.
"""

from __future__ import annotations

import _thread
import csv
import hashlib
import io
import json
import os
import struct
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import (
    CheckpointFormatError,
    DTypeError,
    EmptyInputError,
    KeyMismatchError,
    PartitionError,
    ShapeError,
)
from .tensors import (
    SUPPORTED_DTYPES,
    LazyTensorMap,
    NamedTensorMap,
    TensorLayout,
    _Subset,
    check_layout_entry,
    check_tensor,
    layout_of,
)

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
# Longest run of adjacent same-dtype tensors that the reader reads, checks and
# the writer checks and writes in one call.  A tensor of more bytes is read,
# checked and written alone.
_RUN_BYTES = 64 * 1024
_HEADER_FIELDS = itemgetter("dtype", "shape", "data_offsets")
# Closes the layout side of a writer's walk: a stream that runs past its
# layout meets it, and a stream of the right length leaves it unread.
_LAYOUT_END = ((None, None),)
# Bytes a writer hands to the I/O thread at once (see write_atomically): a
# stream of small layers costs no hand-off, and a large layer goes alone.
_HANDOFF_BYTES = 1 << 20
# Jobs a lane may have waiting or running before its producer waits: enough
# to overlap one job with the making of the next, and to keep what a lagging
# thread holds small.
_LANE_DEPTH = 2


def _dtype_tag(spec, name: str) -> str:
    check_layout_entry(spec, name)
    return _KIND_TO_TAG[spec.dtype.itemsize]


class CheckpointReader(LazyTensorMap):
    """Validating random-access reader over one checkpoint container.

    It reads like a map of tensor names to arrays, in header order:
    ``keys()``, iteration, ``len``, ``in`` and ``reader[name]``, so
    ``dict(reader)`` loads every tensor and ``map_layers`` or
    ``partition_checkpoint`` take a reader as they take a dict.  ``layout``
    gives each tensor's dtype and shape from the header alone.  Tensors are
    loaded one at a time from their byte ranges, so callers that stream
    layer-by-layer never hold the whole payload in memory.  Loading a small
    tensor reads and checks the run of adjacent same-dtype tensors that
    opens with it (at most ``_RUN_BYTES``) into one scratch buffer, from
    which it and the run's later tensors are copied out.  Like the file it
    reads, a reader serves one thread at a time.
    """

    def __init__(self, source: str | os.PathLike | BinaryIO):
        if isinstance(source, (str, os.PathLike)):
            self._path = os.fsdecode(source)
            self._fh: BinaryIO = open(source, "rb")
            self._owns_fh = True
        else:
            self._path = getattr(source, "name", "<buffer>")
            self._fh = source
            self._owns_fh = False
        # The scratch buffer, and the run in it: its first byte, its bytes and
        # whether all of them are finite.
        self._scratch = memoryview(bytearray())
        self._run: tuple[int, memoryview, bool] = (0, self._scratch, True)
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
        header.pop(_METADATA_KEY, None)
        # Name to (dtype, shape, begin, end, index), as a plain tuple: the
        # collector stops tracking a tuple of untracked values once a
        # collection has seen it (a NamedTuple or a dataclass instance it
        # tracks for good), so a reader of many tensors adds nothing to each
        # collection.  The error names the first entry that fails a check.
        entries: dict[str, tuple[np.dtype, tuple[int, ...], int, int, int]] = {}
        prev_name, prev_end = None, 0
        for name, meta in header.items():
            # A "\ud800" escape decodes to a lone surrogate, which no UTF-8
            # header (and so no written checkpoint) can carry.
            if not name.isascii():
                try:
                    name.encode("utf-8")
                except UnicodeEncodeError:
                    raise self._fail(
                        f"tensor name {name!r} holds a lone surrogate, which UTF-8 cannot encode"
                    ) from None
            try:
                tag, shape, offsets = _HEADER_FIELDS(meta)
            except TypeError:  # a JSON array, string, number or null
                raise self._fail(f"tensor {name!r}: header entry must be an object") from None
            except KeyError as exc:
                raise self._fail(f"tensor {name!r}: missing header field {exc.args[0]!r}") from exc
            try:
                dtype = _TAG_TO_DTYPE[tag]
            except (KeyError, TypeError):  # TypeError: an array or an object
                raise self._fail(
                    f"tensor {name!r}: unknown dtype {tag!r} (expected F32 or F64)"
                ) from None
            # type(x) is int: JSON true/false are bools, an int subclass.
            if type(shape) is not list:
                raise self._fail(f"tensor {name!r}: shape must be a list of non-negative integers")
            size = dtype.itemsize
            for extent in shape:
                if type(extent) is not int or extent < 0:
                    raise self._fail(
                        f"tensor {name!r}: shape must be a list of non-negative integers"
                    )
                size *= extent
            if (
                type(offsets) is not list
                or len(offsets) != 2
                or type(offsets[0]) is not int
                or type(offsets[1]) is not int
            ):
                raise self._fail(f"tensor {name!r}: data_offsets must be [begin, end]")
            begin, end = offsets
            # prev_end >= 0 and size >= 0, so an entry that starts at
            # prev_end and spans size bytes passes every check below.
            if begin != prev_end or end - begin != size:
                if begin < 0 or end < begin:
                    raise self._fail(f"tensor {name!r}: invalid data_offsets [{begin}, {end})")
                if end - begin != size:
                    raise self._fail(
                        f"tensor {name!r}: data_offsets span {end - begin} bytes but "
                        f"shape {shape} x {tag} needs {size}"
                    )
                if begin < prev_end:
                    raise self._fail(
                        f"tensors {prev_name!r} and {name!r} have overlapping data_offsets"
                    )
                raise self._fail(
                    f"tensor {name!r}: data_offsets leave a gap (begin {begin}, expected {prev_end})"
                )
            entries[name] = (dtype, tuple(shape), begin, end, len(entries))
            prev_name, prev_end = name, end
        if prev_end != payload_size:
            raise self._fail(
                f"payload is {payload_size} bytes but data_offsets tile {prev_end} (truncated or trailing bytes)"
            )
        self._entries = entries
        # Per entry, in header order: its dtype and its end, to find runs.
        self._dtypes = list(map(itemgetter(0), entries.values()))
        self._ends = list(map(itemgetter(3), entries.values()))

    def keys(self):
        return self._entries.keys()

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, name) -> bool:
        return name in self._entries

    @cached_property
    def layout(self) -> dict[str, TensorLayout]:
        """Each tensor's dtype and shape, in header order; no payload is read."""
        return {name: TensorLayout(*entry[:2]) for name, entry in self._entries.items()}

    def layout_for(self, names: Iterable[str]) -> dict[str, TensorLayout]:
        """The entries of ``layout`` for ``names``, in their order, built
        from the header's entries for those names alone."""
        entries = self._entries
        return {name: TensorLayout(*entries[name][:2]) for name in names}

    def __getitem__(self, name: str) -> np.ndarray:
        return self.load(name)

    def load(self, name: str) -> np.ndarray:
        dtype, shape, begin, end, index = self._entries[name]
        if end - begin <= _RUN_BYTES:
            start, run, finite = self._run
            if begin < start or end - start > len(run):
                start, run, finite = self._run = self._read_run(index)
            raw = run[begin - start : end - start].tobytes()
        else:
            self._fh.seek(self._payload_start + begin)
            raw = self._fh.read(end - begin)
            finite = False
        if len(raw) != end - begin:
            raise self._fail(f"tensor {name!r}: payload truncated")
        try:
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape)
        except ValueError as exc:  # more dimensions or elements than numpy allows
            raise self._fail(f"tensor {name!r}: shape {list(shape)} is not loadable: {exc}") from exc
        # A run with a non-finite value checks each tensor, so the error names
        # the tensor asked for, and only when it is the one at fault.
        if not finite and arr.size and not np.isfinite(arr).all():
            raise self._fail(f"tensor {name!r} contains non-finite values")
        return arr

    def _read_run(self, index: int) -> tuple[int, memoryview, bool]:
        """Read the run that opens with entry ``index`` into the scratch
        buffer: the entries that follow it while their dtype is its dtype and
        the run stays within ``_RUN_BYTES``.  Returns its first byte, the
        bytes read and whether all of them are finite."""
        dtypes, ends = self._dtypes, self._ends
        dtype = dtypes[index]
        begin = ends[index - 1] if index else 0
        limit = begin + _RUN_BYTES
        stop = index + 1
        while stop < len(ends) and dtypes[stop] is dtype and ends[stop] <= limit:
            stop += 1
        size = ends[stop - 1] - begin
        if len(self._scratch) < size:
            self._scratch = memoryview(bytearray(_RUN_BYTES))
        self._fh.seek(self._payload_start + begin)
        got = self._fh.readinto(self._scratch[:size])
        values = np.frombuffer(self._scratch, dtype, got // dtype.itemsize)
        return begin, self._scratch[:got], bool(np.isfinite(values).all())

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


def canonical_header(tensor_map) -> bytes:
    """The length prefix and header JSON that open a map's canonical byte
    stream.  Only the layout of ``tensor_map`` is read (:func:`layout_of`):
    a map of arrays, a lazy map or a layout itself.  The JSON is
    ``json.dumps(header, separators=(",", ":"), ensure_ascii=False)``,
    written an entry at a time."""
    layout = layout_of(tensor_map)
    if not layout:
        raise EmptyInputError("cannot serialize an empty tensor map")
    if _METADATA_KEY in layout:
        raise CheckpointFormatError(
            f"tensor name {_METADATA_KEY!r} is reserved for the header metadata entry"
        )
    entries = []
    offset = 0
    for name, spec in layout.items():
        tag = _dtype_tag(spec, name)
        end = offset + spec.nbytes
        shape = ",".join(map(str, spec.shape))
        entries.append(f'{{"dtype":"{tag}","shape":[{shape}],"data_offsets":[{offset},{end}]}}')
        offset = end
    try:
        keys = list(map(encode_basestring, layout))
    except TypeError:  # a name that is not a str: json's own key conversion, or its error
        keys = [json.dumps({name: 0}, separators=(",", ":"), ensure_ascii=False)[1:-3]
                for name in layout]
    header_bytes = ("{" + ",".join(map("{}:{}".format, keys, entries)) + "}").encode("utf-8")
    return struct.pack(_HEADER_LEN_FMT, len(header_bytes)) + header_bytes


def canonical_payload(arr: np.ndarray) -> np.ndarray:
    """``arr`` as the little-endian row-major array whose bytes the container stores."""
    return np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[_KIND_TO_TAG[arr.dtype.itemsize]])


def _check_layer(where, name, arr, want_name, want) -> None:
    """Check a streamed ``(name, arr)`` against the layout entry
    ``(want_name, want)`` that is due; ``want_name`` is None past the end."""
    if name != want_name:
        due = "past the layout's end" if want_name is None else f"where {want_name!r} is due"
        raise KeyMismatchError(f"{where}: tensor {name!r} arrives out of layout order, {due}")
    if not (isinstance(arr, np.ndarray) and arr.dtype.type in SUPPORTED_DTYPES):
        check_tensor(arr, f"{where}: tensor {name!r}")  # raises, naming the fault
    if arr.shape != want.shape:
        raise ShapeError(
            f"{where}: tensor {name!r} has shape {arr.shape}, but its layout says {want.shape}"
        )
    if arr.dtype.itemsize != want.dtype.itemsize:
        raise DTypeError(
            f"{where}: tensor {name!r} has dtype {arr.dtype}, but its layout says {want.dtype}"
        )


def _runs(tensor_map, layers: Iterable, where) -> Iterator[list[tuple[str, np.ndarray]]]:
    """The ``(name, array)`` pairs of ``layers`` cut into runs: adjacent
    arrays of one dtype and of at most ``_RUN_BYTES`` together share a run,
    and any other tensor is a run of its own.  Each pair is first checked
    against the entry of ``tensor_map``'s layout that is due (a map's own
    arrays pass as they are), and the stream must end where the layout ends.
    ``layers`` is read once past its last pair, so a generator's closing code
    runs before the last run is out."""
    expected = chain(layout_of(tensor_map).items(), _LAYOUT_END)
    run: list[tuple[str, np.ndarray]] = []
    size = 0
    for (name, arr), (want_name, want) in zip(layers, expected):
        if arr is not want or name != want_name:
            _check_layer(where, name, arr, want_name, want)
        nbytes = arr.nbytes
        if run and (size + nbytes > _RUN_BYTES or arr.dtype != run[0][1].dtype):
            yield run
            run, size = [], 0
        run.append((name, arr))
        size += nbytes
    missing = next(expected)[0]
    if missing is not None:
        raise KeyMismatchError(f"{where}: the layers end before tensor {missing!r}")
    if run:
        yield run


def _run_payload(run: list[tuple[str, np.ndarray]]) -> np.ndarray:
    """The canonical bytes of a run's tensors, one after another."""
    if len(run) == 1:
        return canonical_payload(run[0][1])
    return canonical_payload(np.concatenate([arr for _, arr in run], axis=None))


def _iter_chunks(tensor_map) -> Iterator[bytes | np.ndarray]:
    """Yield the canonical byte stream of a map (of arrays, or lazy): the
    header, then the payload of each run as one contiguous array, whose
    buffer is written as it is."""
    yield canonical_header(tensor_map)
    for run in _runs(tensor_map, tensor_map.items(), "fingerprint_map"):
        yield _run_payload(run)


def serialize_checkpoint(tensor_map: NamedTensorMap) -> bytes:
    return b"".join(_iter_chunks(tensor_map))


def fingerprint_map(tensor_map) -> str:
    """SHA-256 of the canonical serialization, without materializing it."""
    digest = hashlib.sha256()
    for chunk in _iter_chunks(tensor_map):
        digest.update(chunk)
    return digest.hexdigest()


_io_jobs = None  # the I/O thread's job queue, once the thread is started
_io_start = _thread.allocate_lock()


def _io_queue():
    """The I/O thread's job queue; the first call starts the thread."""
    global _io_jobs
    with _io_start:
        if _io_jobs is None:
            import queue
            import threading

            jobs = queue.SimpleQueue()
            threading.Thread(
                target=_io_loop, args=(jobs, _current_cpu()), name="duet-io", daemon=True
            ).start()
            _io_jobs = jobs
        return _io_jobs


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, where Linux tells it."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            return int(fh.read().rsplit(b")", 1)[1].split()[36])  # field 39
    except (OSError, ValueError, IndexError):
        return None


def _io_loop(jobs, starter_cpu: int | None) -> None:
    # Woken once per job, the thread is often placed on the CPU of the
    # thread that woke it, and the two then take turns there instead of
    # running side by side; so it stays off the CPU of the thread that
    # started it, where the process may use another.
    try:
        cpus = os.sched_getaffinity(0) - {starter_cpu}
        if cpus:
            os.sched_setaffinity(0, cpus)
    except (AttributeError, OSError):  # not Linux, or not allowed
        pass
    while True:
        lane, job = jobs.get()
        if lane._claim(job):
            lane._run(job)
        del lane, job  # not held while the thread waits for the next job


def _forget_io_thread() -> None:
    # A forked child has no I/O thread (its first use starts one), and no
    # other thread that could release the lock.
    global _io_jobs, _io_start
    _io_jobs, _io_start = None, _thread.allocate_lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_io_thread)


class _Lane:
    """One producer's ordered share of the I/O thread.

    The jobs handed over with :meth:`put` run one after another, in that
    order, at most ``_LANE_DEPTH`` at a time waiting or running.  Each runs
    on the thread, unless its producer comes to wait for it before the
    thread has started it: the producer then runs it itself, so a thread
    that is slow to get a CPU holds its producer up by at most the job it
    is running.  The first error a job raises is raised again on the
    producer by its next ``put`` or ``wait``, and the lane's later jobs are
    skipped.  Used as a context manager, the lane waits for its jobs on
    exit without raising, so a producer unwinding from its own error never
    leaves a job running on what it is about to close."""

    # Whether a producer runs a job it waits for that the thread has not started.
    _take_over = True

    def __init__(self):
        import threading

        self._cond = threading.Condition(threading.Lock())
        self._put = 0  # jobs handed over; job k has ticket k
        self._done = 0  # jobs run or skipped, in ticket order
        self._waiting: deque = deque()  # jobs handed over that none has started, in order
        self._running = False  # whether one of the lane's jobs runs, here or on the thread
        self._error: BaseException | None = None

    def put(self, call, *args) -> int:
        """Hand ``call(*args)`` over; returns its ticket for :meth:`wait`."""
        self.wait(self._put + 1 - _LANE_DEPTH)
        job = [call, args]
        with self._cond:
            self._waiting.append(job)
        self._put += 1
        _io_queue().put((self, job))
        return self._put

    def idle(self) -> bool:
        """Whether every job handed over has run; raises the first error
        one raised, so a producer does not go on past it."""
        with self._cond:
            idle = self._done == self._put
        if self._error is not None:
            raise self._error
        return idle

    def wait(self, ticket: int | None = None) -> None:
        """Wait until the job of ``ticket`` (by default the last) has run,
        then raise the first error the lane's jobs raised, if any."""
        self._settle(self._put if ticket is None else ticket)
        if self._error is not None:
            raise self._error

    def _settle(self, ticket: int) -> None:
        while True:
            with self._cond:
                while self._done < ticket and (self._running or not self._take_over):
                    self._cond.wait()
                if self._done >= ticket:
                    return
                # None of the lane's jobs runs, so the next one waits unstarted.
                job = self._waiting.popleft()
                self._running = True
            self._run(job)

    def _claim(self, job) -> bool:  # on the I/O thread
        """Start ``job`` on the thread, unless its producer has taken it over."""
        with self._cond:
            # The producer may still run the job before this one.
            while self._running and self._waiting and self._waiting[0] is job:
                self._cond.wait()
            if not (self._waiting and self._waiting[0] is job):
                return False
            self._waiting.popleft()
            self._running = True
            return True

    def _run(self, job) -> None:
        call, args = job
        job[:] = None, None
        try:
            if self._error is None:
                call(*args)
        except BaseException as exc:  # raised again on the producer
            self._error = exc
        finally:  # also when an interrupt reaches a producer running the job
            # Dropped before the producer learns that the job has run, so that
            # the producer's own drop frees what the job held, then and there.
            del call, args
            with self._cond:
                self._running = False
                self._done += 1
                self._cond.notify_all()

    def __enter__(self) -> "_Lane":
        return self

    def __exit__(self, *exc) -> None:
        self._settle(self._put)


def wait_for_io() -> None:
    """Return once the I/O thread has come to every job handed to it so far
    (at once if it never started).  A job a producer took over has run when
    that producer goes on."""
    if _io_jobs is not None:
        lane = _Lane()
        lane._take_over = False
        lane.wait(lane.put(int))  # a job that does nothing, behind every earlier one


def _write_all(fh: BinaryIO, chunks: list) -> None:
    for chunk in chunks:
        fh.write(chunk)


def write_atomically(path: str | Path, chunks: Iterable[bytes | np.ndarray]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then move it onto
    ``path``.  On any error, from the producer or from a write, the
    temporary file is removed and ``path`` keeps its earlier contents.

    A chunk may be written after the producer has resumed, so a producer
    yields a fresh buffer each time and does not change one it has yielded.
    Chunks are gathered until an array (a checkpoint's payload) brings them
    to ``_HANDOFF_BYTES`` (a large layer does it alone); they are then
    written on the I/O thread while the producer makes the next ones.
    While the thread is idle, the others are written here: a stream of small
    layers costs no hand-off, and a text buffer, which its producer would
    fill again while the last one waits, is never held twice.  Every chunk
    is written when this returns."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh, _Lane() as lane:
            batch: list = []
            size = 0
            for chunk in chunks:
                batch.append(chunk)
                size += memoryview(chunk).nbytes
                handoff = size >= _HANDOFF_BYTES and isinstance(chunk, np.ndarray)
                del chunk  # the batch holds it; not kept here while the next is made
                if handoff:
                    lane.put(_write_all, fh, batch)
                elif lane.idle():
                    _write_all(fh, batch)
                else:
                    continue
                batch, size = [], 0
            if batch:
                lane.put(_write_all, fh, batch)
            lane.wait()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _checked_payloads(runs: Iterable[list], path: str | Path) -> Iterator[np.ndarray]:
    """The payload of each run, checked just before it is yielded: a run with
    a non-finite value raises, naming its first non-finite tensor."""
    for run in runs:
        payload = _run_payload(run)
        if not np.isfinite(payload).all():
            name = next(name for name, arr in run if not np.isfinite(arr).all())
            raise CheckpointFormatError(
                f"{path}: tensor {name!r} contains non-finite values; refusing to write it"
            )
        yield payload


def write_checkpoint(
    tensor_map, path: str | Path, layers: Iterable[tuple[str, np.ndarray]] | None = None
) -> None:
    """Stream a canonical container to ``path`` atomically, header first.

    The header is that of ``tensor_map``'s layout (:func:`canonical_header`,
    which checks every name and dtype first).  The payload is that of
    ``layers``, the ``(name, array)`` pairs of that layout in its order, by
    default ``tensor_map.items()``: a map of arrays, or a lazy map whose
    layers are made as they are written.  A producer's layers are written
    as they come, in runs (:func:`_runs`), so the writer holds at most one
    run of small layers.  Refuses a layer out of layout order, off its
    layout's shape or dtype, a stream that ends early or runs on, and (like
    the reader) a layer with non-finite values, naming the first.  Any
    refusal, or an error raised by the producer or by a write, leaves
    ``path`` as it was.  A large layer may still be waiting to be written
    (:func:`write_atomically`) after the producer has resumed, so a
    producer does not change a layer it has yielded; every layer is
    written when this returns.  Nothing is hashed: ``fingerprint_map``
    gives the digest of a map where one is used."""
    header = canonical_header(tensor_map)
    if layers is None:
        layers = tensor_map.items()
    payloads = _checked_payloads(_runs(tensor_map, layers, path), path)
    write_atomically(path, chain([header], payloads))


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


def _pattern_table(patterns: tuple[str, ...]) -> tuple[frozenset[str], tuple[str, ...]]:
    """The exact names and the prefixes (each ``*`` pattern without its ``*``)
    of a pattern list."""
    exact = frozenset(p for p in patterns if not p.endswith("*"))
    return exact, tuple(p[:-1] for p in patterns if p.endswith("*"))


def _matches(name: str, table: tuple[frozenset[str], tuple[str, ...]]) -> bool:
    exact, prefixes = table
    return name in exact or (bool(prefixes) and name.startswith(prefixes))


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

    @cached_property
    def _tables(self) -> tuple[tuple[frozenset[str], tuple[str, ...]], ...]:
        """The shared, task-specific and replace lists as ``_pattern_table``s."""
        patterns = (self.shared_patterns, self.task_specific_patterns, self.replace_patterns)
        return tuple(map(_pattern_table, patterns))

    def is_shared(self, name: str) -> bool:
        return _matches(name, self._tables[0])

    def is_task_specific(self, name: str) -> bool:
        return _matches(name, self._tables[1])

    def is_replace(self, name: str) -> bool:
        return _matches(name, self._tables[2])


def load_partition_spec(path: str | Path) -> PartitionSpec:
    return PartitionSpec.from_dict(read_json(path, "partition JSON"))


def classify_names(names: Iterable[str], spec: PartitionSpec) -> tuple[list[str], list[str]]:
    """Split names into (shared, task_specific), validating exact single coverage."""
    shared: list[str] = []
    task: list[str] = []
    unmatched: list[str] = []
    doubly: list[str] = []
    shared_table, task_table, _ = spec._tables
    for name in names:
        in_shared = _matches(name, shared_table)
        in_task = _matches(name, task_table)
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


def partition_checkpoint(tensor_map, spec: PartitionSpec) -> tuple[_Subset, _Subset]:
    """Split a map into (shared, task_specific) lazy views, each in the map's
    order.  The names are classified now, from the keys alone; a view looks
    each tensor up in the map when it is indexed, so a reader's payload is
    read only then."""
    return tuple(_Subset(tensor_map, names) for names in classify_names(tensor_map, spec))
