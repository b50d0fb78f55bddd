from __future__ import annotations

import gc
import io
import json
import os
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import duet.checkpoint as checkpoint
from duet.checkpoint import (
    CheckpointReader,
    PartitionSpec,
    canonical_header,
    classify_names,
    fingerprint_map,
    load_partition_spec,
    parse_checkpoint,
    partition_checkpoint,
    read_checkpoint,
    serialize_checkpoint,
    write_checkpoint,
)
from duet.errors import (
    CheckpointFormatError,
    DTypeError,
    DuetError,
    EmptyInputError,
    KeyMismatchError,
    PartitionError,
    ShapeError,
)
from duet.tensors import TensorLayout, map_layers
from tests.conftest import make_map

# Canonical fingerprint of the reference map below; must never change.
REFERENCE_FINGERPRINT = "de9bc8adefafeceb4e682593b8bdfe04ce1ad4d757eda03e2a2333d6502eafba"


def reference_map() -> dict:
    return {
        "a": np.array([[1, 2], [3, 4]], dtype=np.float32),
        "b": np.array([0.5, -0.25], dtype=np.float64),
        "empty": np.zeros((0, 3), dtype=np.float32),
        "scalar": np.array(7.0, dtype=np.float64),
    }


def build_container(header: dict, payload: bytes) -> bytes:
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    return struct.pack("<Q", len(header_bytes)) + header_bytes + payload


class TestRoundtrip:
    def test_file_roundtrip_is_byte_identical(self, tmp_path, rng):
        tensor_map = make_map(rng, 4, dtype=np.float32)
        tensor_map["f64_layer"] = rng.normal(size=(3, 2))
        path = tmp_path / "m.safetensors"
        write_checkpoint(tensor_map, path)
        loaded = read_checkpoint(path)
        with CheckpointReader(path) as reader:
            assert reader.fingerprint() == fingerprint_map(tensor_map)
        assert list(loaded) == list(tensor_map)
        for name in tensor_map:
            assert loaded[name].dtype == tensor_map[name].dtype
            np.testing.assert_array_equal(loaded[name], tensor_map[name])
        assert serialize_checkpoint(loaded) == path.read_bytes()

    def test_serialization_is_deterministic(self, rng):
        tensor_map = {"a": np.float32([1, 2])}
        assert serialize_checkpoint(tensor_map) == serialize_checkpoint(tensor_map)
        assert fingerprint_map(tensor_map) == fingerprint_map({"a": np.float32([1, 2])})

    def test_reference_fingerprint_frozen(self):
        assert fingerprint_map(reference_map()) == REFERENCE_FINGERPRINT

    def test_empty_map_rejected(self):
        with pytest.raises(EmptyInputError):
            serialize_checkpoint({})

    def test_payload_tiles_exactly(self, rng):
        tensor_map = {
            "a": rng.normal(size=5).astype(np.float32),
            "b": rng.normal(size=(2, 3)),
            "c": rng.normal(size=1).astype(np.float32),
        }
        blob = serialize_checkpoint(tensor_map)
        header_len = struct.unpack("<Q", blob[:8])[0]
        payload = blob[8 + header_len :]
        assert len(payload) == 5 * 4 + 6 * 8 + 1 * 4

    def test_order_preserved(self, rng):
        tensor_map = {name: rng.normal(size=2) for name in ("z", "a", "m")}
        loaded = parse_checkpoint(serialize_checkpoint(tensor_map))
        assert list(loaded) == ["z", "a", "m"]

    @given(
        st.dictionaries(
            st.text(st.characters(whitelist_categories=("Ll", "Nd"), whitelist_characters="._"), min_size=1, max_size=12),
            st.tuples(
                st.sampled_from([np.float32, np.float64]),
                st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=3),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_roundtrip(self, schema, seed):
        rng = np.random.default_rng(seed)
        tensor_map = {
            name: rng.normal(size=tuple(shape)).astype(dtype)
            for name, (dtype, shape) in schema.items()
        }
        if "__metadata__" in tensor_map:
            with pytest.raises(CheckpointFormatError, match="reserved"):
                serialize_checkpoint(tensor_map)
            return
        blob = serialize_checkpoint(tensor_map)
        loaded = parse_checkpoint(blob)
        assert serialize_checkpoint(loaded) == blob

    def test_payload_bytes_of_awkward_arrays(self, tmp_path, rng):
        # Each payload is written from its canonical array's buffer: the bytes
        # are those of the little-endian row-major copy, whatever the input.
        matrix = rng.normal(size=(6, 5))
        tensor_map = {
            "scalar": np.array(-2.5, np.float32),
            "scalar_big_endian": np.array(7.0, ">f8"),
            "empty": np.zeros((0, 3)),
            "empty_big_endian": np.zeros((2, 0), ">f4"),
            "strided": matrix.astype(np.float32)[::2, 1::2],
            "column_major": matrix.T,
            "big_endian": matrix.astype(">f4"),
            "big_endian_strided": matrix.astype(">f8")[:, ::3],
        }
        payload = b"".join(
            arr.astype(f"<f{arr.dtype.itemsize}").tobytes(order="C") for arr in tensor_map.values()
        )
        blob = serialize_checkpoint(tensor_map)
        assert blob == canonical_header(tensor_map) + payload
        path = tmp_path / "m.safetensors"
        write_checkpoint(tensor_map, path)
        assert path.read_bytes() == blob
        loaded = parse_checkpoint(blob)
        for name, arr in tensor_map.items():
            assert loaded[name].shape == arr.shape
            assert loaded[name].tolist() == arr.tolist()

    def test_reserved_metadata_name_rejected_on_write(self):
        with pytest.raises(CheckpointFormatError, match="'__metadata__' is reserved"):
            serialize_checkpoint({"a": np.float32([1]), "__metadata__": np.float32([2])})

    def test_non_finite_rejected_on_write(self, tmp_path):
        path = tmp_path / "m.safetensors"
        with pytest.raises(CheckpointFormatError, match="'b' contains non-finite"):
            write_checkpoint({"a": np.float32([1]), "b": np.float32([np.inf])}, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "bad_map",
        [{}, {"__metadata__": np.float32([1])}, {"a": np.float64([np.nan])}],
        ids=["empty", "reserved-name", "non-finite"],
    )
    def test_refused_write_keeps_earlier_bytes(self, tmp_path, bad_map):
        path = tmp_path / "m.safetensors"
        write_checkpoint(reference_map(), path)
        before = path.read_bytes()
        with pytest.raises((CheckpointFormatError, EmptyInputError)):
            write_checkpoint(bad_map, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.safetensors"]

    def test_write_refused_late_leaves_no_trace(self, tmp_path, monkeypatch):
        path = tmp_path / "m.safetensors"
        write_checkpoint(reference_map(), path)
        before = path.read_bytes()
        # Runs: "big" alone, then "small", then "wide" and "last" (non-finite).
        late = {"big": np.ones(40_000, np.float32), "small": np.ones(3, np.float32),
                "wide": np.ones(2), "last": np.float64([1.0, np.nan])}
        sizes = []  # the temporary file's size after each chunk is written
        original = checkpoint.write_atomically

        def watched(target, chunks):
            def each():
                for chunk in chunks:
                    yield chunk
                    sizes.extend(p.stat().st_size for p in tmp_path.glob(".*.tmp"))
            original(target, each())

        monkeypatch.setattr(checkpoint, "write_atomically", watched)
        with pytest.raises(CheckpointFormatError, match="tensor 'last' contains non-finite"):
            write_checkpoint(late, path)
        assert max(sizes) > 160_000  # "big" reached the temporary file
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.safetensors"]

    def test_dtypes_are_checked_before_any_payload(self, tmp_path):
        path = tmp_path / "m.safetensors"
        with pytest.raises(DTypeError, match="^b: unsupported dtype float16"):
            write_checkpoint({"a": np.float64([np.nan]), "b": np.float16([1])}, path)
        assert not list(tmp_path.iterdir())


def _entry(shape, begin, end, tag="F32") -> dict:
    return {"dtype": tag, "shape": shape, "data_offsets": [begin, end]}


class TestMalformedContainers:
    # One case per header check, in the order the reader makes them.
    @pytest.mark.parametrize(
        "header, payload_size, message",
        [
            ({"a": [1]}, 0, "tensor 'a': header entry must be an object"),
            ({"a": {"dtype": "F32", "data_offsets": [0, 4]}}, 4,
             "tensor 'a': missing header field 'shape'"),
            ({"a": _entry([1], 0, 1, "I8")}, 1,
             "tensor 'a': unknown dtype 'I8' (expected F32 or F64)"),
            ({"a": _entry([2, -1], 0, 4)}, 4,
             "tensor 'a': shape must be a list of non-negative integers"),
            ({"a": {"dtype": "F32", "shape": [1], "data_offsets": [0]}}, 4,
             "tensor 'a': data_offsets must be [begin, end]"),
            ({"a": _entry([1], 8, 4)}, 8, "tensor 'a': invalid data_offsets [8, 4)"),
            ({"a": _entry([3], 0, 8)}, 8,
             "tensor 'a': data_offsets span 8 bytes but shape [3] x F32 needs 12"),
            ({"a": _entry([2], 0, 8), "b": _entry([2], 4, 12)}, 12,
             "tensors 'a' and 'b' have overlapping data_offsets"),
            ({"a": _entry([1], 0, 4), "b": _entry([1], 8, 12)}, 12,
             "tensor 'b': data_offsets leave a gap (begin 8, expected 4)"),
            ({"a": _entry([4], 0, 16)}, 10,
             "payload is 10 bytes but data_offsets tile 16 (truncated or trailing bytes)"),
        ],
        ids=["entry", "field", "dtype", "shape", "offsets", "begin-end", "span", "overlap",
             "gap", "tiling"],
    )
    def test_each_header_check_has_its_message(self, header, payload_size, message):
        with pytest.raises(CheckpointFormatError) as info:
            parse_checkpoint(build_container(header, b"\x00" * payload_size))
        assert str(info.value) == f"<buffer>: {message}"

    def test_header_len_exceeds_file(self):
        blob = struct.pack("<Q", 1 << 20) + b"{}"
        with pytest.raises(CheckpointFormatError, match="exceeds file size"):
            parse_checkpoint(blob)

    def test_header_longer_than_the_limit_is_not_read(self, tmp_path, capsys):
        from duet.cli import main

        header_len = 100_000_001
        path = tmp_path / "huge_header.st"
        with open(path, "wb") as fh:  # sparse: the length field, then a hole
            fh.write(struct.pack("<Q", header_len))
            fh.truncate(8 + header_len + 8)
        tracemalloc.start()
        try:
            with pytest.raises(CheckpointFormatError, match="100000000-byte header limit"):
                read_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        argv = ["diagnose", "distance", "--merged", path, "--old", path, "--curr", path]
        assert main([str(arg) for arg in argv]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "CheckpointFormatError"

    def test_too_short_for_length_field(self):
        with pytest.raises(CheckpointFormatError, match="too short"):
            parse_checkpoint(b"\x01\x02")

    def test_malformed_json_names_byte_offset(self):
        header = b'{"a": '
        blob = struct.pack("<Q", len(header)) + header
        with pytest.raises(CheckpointFormatError, match="byte offset"):
            parse_checkpoint(blob)

    def test_malformed_json_offset_counts_bytes(self):
        # Each "é" is two UTF-8 bytes, so the stray token's character index
        # (58) and its byte offset in the file (8 + 62) differ by four.
        header = '{"éééé":{"dtype":"F32","shape":[1],"data_offsets":[0,4]}, x}'.encode()
        blob = struct.pack("<Q", len(header)) + header
        assert blob[70:71] == b"x"
        with pytest.raises(CheckpointFormatError, match="at byte offset 70$"):
            parse_checkpoint(blob)

    def test_unknown_dtype_names_tensor(self):
        header = {"weird": {"dtype": "BF16", "shape": [1], "data_offsets": [0, 2]}}
        with pytest.raises(CheckpointFormatError, match="'weird'.*unknown dtype"):
            parse_checkpoint(build_container(header, b"\x00\x00"))

    def test_non_string_dtype_rejected(self):
        header = {"a": {"dtype": ["F32"], "shape": [1], "data_offsets": [0, 4]}}
        with pytest.raises(CheckpointFormatError, match="'a'.*unknown dtype"):
            parse_checkpoint(build_container(header, b"\x00" * 4))

    def test_boolean_shape_extent_rejected(self):
        header = {"a": {"dtype": "F32", "shape": [True], "data_offsets": [0, 4]}}
        with pytest.raises(CheckpointFormatError, match="'a'.*shape"):
            parse_checkpoint(build_container(header, b"\x00" * 4))

    def test_boolean_data_offsets_rejected(self):
        header = {"a": {"dtype": "F32", "shape": [1], "data_offsets": [False, 4]}}
        with pytest.raises(CheckpointFormatError, match="'a'.*data_offsets"):
            parse_checkpoint(build_container(header, b"\x00" * 4))

    def test_duplicate_tensor_name_rejected(self):
        entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
        header = f'{{"a":{entry},"a":{entry}}}'.encode()
        blob = struct.pack("<Q", len(header)) + header + b"\x00" * 4
        with pytest.raises(CheckpointFormatError, match="repeats the key 'a'"):
            parse_checkpoint(blob)

    def test_overlapping_offsets_name_both_tensors(self):
        header = {
            "first": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "second": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        }
        with pytest.raises(CheckpointFormatError, match="'first' and 'second'"):
            parse_checkpoint(build_container(header, b"\x00" * 12))

    def test_gap_between_tensors_rejected(self):
        header = {
            "first": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "second": {"dtype": "F32", "shape": [1], "data_offsets": [8, 12]},
        }
        with pytest.raises(CheckpointFormatError, match="gap"):
            parse_checkpoint(build_container(header, b"\x00" * 12))

    def test_truncated_payload(self):
        header = {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}}
        with pytest.raises(CheckpointFormatError, match="truncated or trailing"):
            parse_checkpoint(build_container(header, b"\x00" * 10))

    def test_size_shape_mismatch_names_tensor(self):
        header = {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}
        with pytest.raises(CheckpointFormatError, match="'a'.*needs 12"):
            parse_checkpoint(build_container(header, b"\x00" * 8))

    def test_metadata_entry_is_ignored(self):
        header = {
            "__metadata__": {"format": "pt"},
            "a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]},
        }
        loaded = parse_checkpoint(build_container(header, struct.pack("<d", 2.5)))
        assert list(loaded) == ["a"]
        assert loaded["a"].tolist() == [2.5]

    def test_non_finite_rejected_by_default(self):
        header = {"a": {"dtype": "F64", "shape": [1], "data_offsets": [0, 8]}}
        blob = build_container(header, struct.pack("<d", float("nan")))
        with pytest.raises(CheckpointFormatError, match="non-finite"):
            parse_checkpoint(blob)


def _parses_or_refuses(blob: bytes):
    try:
        parse_checkpoint(blob)
    except CheckpointFormatError:
        pass


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)
_HEADER_ENTRIES = st.fixed_dictionaries(
    {
        "dtype": st.sampled_from(["F32", "F64", "I8"]) | _JSON_VALUES,
        "shape": st.lists(st.integers(min_value=-1), max_size=70) | _JSON_VALUES,
        "data_offsets": st.lists(st.integers(min_value=-1, max_value=64), max_size=3) | _JSON_VALUES,
    }
)


class TestHostileBytes:
    """Any input either parses or raises CheckpointFormatError."""

    def test_unloadable_shapes_rejected(self):
        for shape in ([0, 2**63], [0, 2**62, 2**62], [0] * 65):
            header = {"a": {"dtype": "F32", "shape": shape, "data_offsets": [0, 0]}}
            with pytest.raises(CheckpointFormatError, match="'a'.*not loadable"):
                parse_checkpoint(build_container(header, b""))

    def test_deeply_nested_header_rejected(self):
        header = b"[" * 100_000
        with pytest.raises(CheckpointFormatError, match="nests too deeply"):
            parse_checkpoint(struct.pack("<Q", len(header)) + header)

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_any_byte_string(self, blob):
        _parses_or_refuses(blob)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_mutation_of_a_valid_container(self, data):
        blob = bytearray(serialize_checkpoint(reference_map()))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            at = data.draw(st.integers(min_value=0, max_value=len(blob)))
            edit = data.draw(st.sampled_from(["set", "insert", "delete"]))
            if edit == "set" and at < len(blob):
                blob[at] = data.draw(st.integers(min_value=0, max_value=255))
            elif edit == "insert":
                blob[at:at] = data.draw(st.binary(min_size=1, max_size=8))
            else:
                del blob[at : at + data.draw(st.integers(min_value=1, max_value=8))]
        _parses_or_refuses(bytes(blob))

    @given(
        st.dictionaries(st.text(max_size=4), _HEADER_ENTRIES | _JSON_VALUES, max_size=4),
        st.binary(max_size=64),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_header(self, header, payload):
        _parses_or_refuses(build_container(header, payload))

    @given(st.integers(min_value=1, max_value=100_000), st.sampled_from(["[", '{"a":']))
    @settings(max_examples=30, deadline=None)
    def test_any_nesting_depth(self, depth, opener):
        closer = "]" if opener == "[" else "}"
        header = (opener * depth + "1" + closer * depth).encode()
        _parses_or_refuses(struct.pack("<Q", len(header)) + header)


class TestReaderMapping:
    """A reader reads like the map ``read_checkpoint`` returns."""

    @pytest.fixture
    def written(self, tmp_path, rng):
        tensor_map = {name: rng.normal(size=3).astype(np.float32) for name in ("z", "a", "m")}
        tensor_map["head.cls"] = rng.normal(size=(2, 3))
        path = tmp_path / "m.safetensors"
        write_checkpoint(tensor_map, path)
        return path, tensor_map

    def test_iteration_length_and_dict_follow_header_order(self, written):
        path, tensor_map = written
        loaded = read_checkpoint(path)
        with CheckpointReader(path) as reader:
            assert list(reader) == list(reader.keys()) == list(tensor_map) == list(loaded)
            assert len(reader) == len(tensor_map)
            as_dict = dict(reader)
            assert reader["a"].tobytes() == tensor_map["a"].tobytes()
            with pytest.raises(KeyError):
                reader["missing"]
        assert list(as_dict) == list(loaded)
        for name, arr in loaded.items():
            assert as_dict[name].dtype == arr.dtype
            assert as_dict[name].tobytes() == arr.tobytes()

    def test_entries_leave_the_garbage_collector(self, written):
        # A reader of many tensors must not add to every collection's walk.
        path, _ = written
        with CheckpointReader(path) as reader:
            gc.collect()  # untracks the shapes, then the next pass the entries that hold them
            gc.collect()
            assert not any(gc.is_tracked(entry) for entry in reader._entries.values())

    def test_any_path_like_source_opens(self, written):
        path, tensor_map = written
        (entry,) = [e for e in os.scandir(path.parent) if e.name == path.name]
        with CheckpointReader(entry) as reader:
            assert list(reader) == list(tensor_map)
        assert list(read_checkpoint(entry)) == list(tensor_map)
        path.write_bytes(b"short")
        with pytest.raises(CheckpointFormatError, match=f"^{re.escape(str(path))}: file too short"):
            CheckpointReader(entry)

    def test_partition_and_map_layers_accept_a_reader(self, written):
        path, tensor_map = written
        spec = PartitionSpec(("z", "a", "m"), ("head.*",), head_concat_axis=0)
        want_shared, want_head = partition_checkpoint(tensor_map, spec)
        with CheckpointReader(path) as reader:
            shared, head = partition_checkpoint(reader, spec)
            sums = dict(map_layers("sum", lambda name, x, y: float(np.sum(x + y)),
                                   {"file": reader, "map": tensor_map}))
            for got, want in ((shared, want_shared), (head, want_head)):
                assert list(got) == list(want)
                assert all(got[name].tobytes() == want[name].tobytes() for name in want)
        assert sums == {name: float(np.sum(arr + arr)) for name, arr in tensor_map.items()}

    def test_partition_reads_no_payload_until_a_view_is_indexed(self, written):
        path, tensor_map = written
        spec = PartitionSpec(("z", "a", "m"), ("head.*",), head_concat_axis=0)
        reads = []

        class CountingFile(io.FileIO):
            def read(self, size=-1):
                reads.append(self.tell())
                return super().read(size)

            def readinto(self, buffer):
                reads.append(self.tell())
                return super().readinto(buffer)

        with CountingFile(path) as fh:
            reader = CheckpointReader(fh)
            header_reads = len(reads)
            shared, head = partition_checkpoint(reader, spec)
            assert list(shared) == ["z", "a", "m"] and list(head) == ["head.cls"]
            assert shared.layout["a"].shape == (3,)
            assert len(reads) == header_reads
            assert head["head.cls"].tobytes() == tensor_map["head.cls"].tobytes()
            assert len(reads) > header_reads
            with pytest.raises(KeyError):
                shared["head.cls"]  # in the reader, not in the view

    def test_partition_views_build_no_layout_until_one_is_read(self, written):
        path, tensor_map = written
        spec = PartitionSpec(("z", "a", "m"), ("head.*",), head_concat_axis=0)
        made = []

        def counting_layout(*fields):
            made.append(fields)
            return TensorLayout(*fields)

        with CheckpointReader(path) as reader, \
                mock.patch.object(checkpoint, "TensorLayout", counting_layout):
            shared, head = partition_checkpoint(reader, spec)
            assert list(shared.keys()) == ["z", "a", "m"] and list(head.keys()) == ["head.cls"]
            assert len(shared) == 3 and "a" in shared and "head.cls" not in shared
            assert made == []
            # Read, a view's layout holds its own names alone.
            assert list(head.layout) == ["head.cls"] and head.layout["head.cls"].shape == (2, 3)
            assert len(made) == 1
            assert shared.layout == {name: TensorLayout(tensor_map[name].dtype, (3,))
                                     for name in ("z", "a", "m")}
            assert len(made) == 4


class TestStreamedWriter:
    """``write_checkpoint(layout, path, layers)``: the header from a layout,
    then the layers of a stream, each checked against its layout entry."""

    @pytest.fixture
    def source(self, tmp_path, rng):
        tensor_map = {"big": rng.normal(size=40_000).astype(np.float32),
                      "small": rng.normal(size=(2, 3)).astype(np.float32),
                      "wide": rng.normal(size=5), "scalar": np.array(2.5)}
        path = tmp_path / "source.safetensors"
        write_checkpoint(tensor_map, path)
        return path, tensor_map

    def test_layout_comes_from_the_header_alone(self, source, monkeypatch):
        path, tensor_map = source
        monkeypatch.setattr(CheckpointReader, "load", None)  # any payload read would fail
        with CheckpointReader(path) as reader:
            layout = reader.layout
            assert canonical_header(reader) == canonical_header(layout) == canonical_header(tensor_map)
        assert layout == {name: TensorLayout(arr.dtype, arr.shape) for name, arr in tensor_map.items()}
        assert [spec.nbytes for spec in layout.values()] == [a.nbytes for a in tensor_map.values()]
        assert [spec.size for spec in layout.values()] == [a.size for a in tensor_map.values()]

    def test_a_stream_writes_the_bytes_of_its_map(self, source, tmp_path):
        path, tensor_map = source
        copy = tmp_path / "copy.safetensors"
        with CheckpointReader(path) as reader:
            layers = ((name, reader[name]) for name in reader)  # one at a time
            write_checkpoint(reader.layout, copy, layers)
            streamed = tmp_path / "lazy.safetensors"
            write_checkpoint(reader, streamed)  # a lazy map streams its own items
        assert copy.read_bytes() == streamed.read_bytes() == serialize_checkpoint(tensor_map)

    def stream_with(self, tensor_map, name, arr=None, drop=False):
        """``tensor_map``'s pairs, with ``name``'s array swapped or dropped."""
        for key, value in tensor_map.items():
            if key != name:
                yield key, value
            elif not drop:
                yield key, value if arr is None else arr

    @pytest.mark.parametrize("fault, error, message", [
        ("order", KeyMismatchError, "tensor 'scalar' arrives out of layout order, where 'big' is due"),
        ("shape", ShapeError, "tensor 'small' has shape (3, 2), but its layout says (2, 3)"),
        ("dtype", DTypeError, "tensor 'wide' has dtype float32, but its layout says float64"),
        ("short", KeyMismatchError, "the layers end before tensor 'scalar'"),
        ("long", KeyMismatchError, "tensor 'extra' arrives out of layout order, past the layout's end"),
        ("non-finite", CheckpointFormatError, "tensor 'wide' contains non-finite values"),
        ("not-an-array", DTypeError, "tensor 'wide': expected a numpy array, got list"),
    ])
    def test_a_stream_off_its_layout_is_refused(self, source, tmp_path, fault, error, message):
        path, tensor_map = source
        before = path.read_bytes()
        layers = {
            "order": lambda: reversed(list(tensor_map.items())),
            "shape": lambda: self.stream_with(tensor_map, "small", tensor_map["small"].T.copy()),
            "dtype": lambda: self.stream_with(tensor_map, "wide", np.float32(tensor_map["wide"])),
            "short": lambda: self.stream_with(tensor_map, "scalar", drop=True),
            "long": lambda: [*tensor_map.items(), ("extra", np.zeros(1))],
            "non-finite": lambda: self.stream_with(tensor_map, "wide", np.full(5, np.nan)),
            "not-an-array": lambda: self.stream_with(tensor_map, "wide", [0.0] * 5),
        }[fault]()
        with pytest.raises(error, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            write_checkpoint(tensor_map, path, layers)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_producer_error_leaves_the_target(self, source, tmp_path):
        path, tensor_map = source
        before = path.read_bytes()

        def failing():
            yield "big", tensor_map["big"]
            raise ShapeError("found mid-walk")

        with pytest.raises(ShapeError, match="found mid-walk"):
            write_checkpoint(tensor_map, path, failing())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_the_stream_is_read_past_its_last_pair(self, source, tmp_path):
        # A producer's closing code (a merge report's fingerprints) has run
        # once the write returns.
        _, tensor_map = source
        ended = []

        def layers():
            yield from tensor_map.items()
            ended.append(True)

        write_checkpoint(tensor_map, tmp_path / "out.safetensors", layers())
        assert ended == [True]


class TestPartition:
    def test_exact_prefix_split(self, simple_spec):
        tensor_map = {"backbone.w": np.zeros(1), "head.w": np.zeros(1)}
        shared, task = partition_checkpoint(tensor_map, simple_spec)
        assert list(shared) == ["backbone.w"]
        assert list(task) == ["head.w"]

    def test_name_matching_both_lists_rejected(self):
        spec = PartitionSpec(("stem.*",), ("stem.head*",), 0)
        with pytest.raises(PartitionError, match="both"):
            classify_names(["stem.head.w"], spec)

    def test_unmatched_name_rejected(self, simple_spec):
        with pytest.raises(PartitionError, match="neither.*extra.w"):
            classify_names(["backbone.w", "extra.w"], simple_spec)

    def test_partition_is_a_bijection(self, simple_spec, rng):
        tensor_map = {
            "backbone.a": rng.normal(size=3),
            "head.a": rng.normal(size=2),
            "neck.a": rng.normal(size=4),
            "head.b": rng.normal(size=1),
        }
        shared, task = partition_checkpoint(tensor_map, simple_spec)
        assert len(shared) + len(task) == len(tensor_map)
        for name, arr in {**shared, **task}.items():
            assert arr is tensor_map[name]
        assert list(shared) == ["backbone.a", "neck.a"]
        assert list(task) == ["head.a", "head.b"]

    def test_literal_pattern_requires_exact_match(self):
        spec = PartitionSpec(("backbone.w",), ("head.*",), 0)
        with pytest.raises(PartitionError):
            classify_names(["backbone.w2"], spec)

    def test_interior_wildcard_rejected(self):
        with pytest.raises(PartitionError, match="trailing"):
            PartitionSpec(("back*bone",), ("head.*",), 0)

    def test_manifest_roundtrip(self, tmp_path):
        manifest = {
            "shared": ["backbone.*"],
            "task_specific": ["head.*"],
            "head_concat_axis": 0,
            "replace": ["head.stem.*"],
        }
        path = tmp_path / "part.json"
        path.write_text(json.dumps(manifest))
        spec = load_partition_spec(path)
        assert spec.is_replace("head.stem.conv")
        assert spec.to_dict() == manifest

    def test_manifest_missing_keys(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(json.dumps({"shared": []}))
        with pytest.raises(PartitionError, match="missing"):
            load_partition_spec(path)

    def test_manifest_unknown_keys(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text(
            json.dumps(
                {"shared": [], "task_specific": [], "head_concat_axis": 0, "extra": 1}
            )
        )
        with pytest.raises(PartitionError, match="unknown"):
            load_partition_spec(path)

    def test_manifest_bad_json(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointFormatError):
            load_partition_spec(path)

    def test_manifest_nested_too_deeply(self, tmp_path):
        path = tmp_path / "part.json"
        path.write_text("[" * 100_000)
        with pytest.raises(CheckpointFormatError, match="malformed partition JSON"):
            load_partition_spec(path)


def _per_tensor():
    """Reads, checks and writes every tensor alone: the path runs must match."""
    return mock.patch.object(checkpoint, "_RUN_BYTES", -1)


def _outcome(call):
    try:
        return call()
    except (DuetError, UnicodeError, TypeError) as exc:
        return type(exc), str(exc)


# Element counts around the run bound: 16384 float32 or 8192 float64 are 64 KiB.
_RUN_SIZES = st.sampled_from([0, 1, 3, 200, 4095, 8191, 8192, 8193, 16383, 16384, 16385])
_TENSOR_LAYOUTS = st.lists(
    st.tuples(
        st.sampled_from(["<f4", "<f8"]),
        _RUN_SIZES | st.integers(min_value=0, max_value=40),
        st.sampled_from(["flat", "matrix", "lone"]),  # "lone": 0-d for one element, else (n, 0)
        st.none() | st.tuples(st.floats(0, 1, exclude_max=True),
                              st.sampled_from([np.nan, np.inf, -np.inf])),
    ),
    min_size=1,
    max_size=10,
)


def _tensor_map(layout, seed: int) -> dict:
    """Named tensors of the layout; a tensor's optional (place, value) puts a
    non-finite value there."""
    rng = np.random.default_rng(seed)
    out = {}
    for i, (dtype, size, form, bad) in enumerate(layout):
        shape = {"flat": (size,), "matrix": (1, size), "lone": () if size == 1 else (size, 0)}[form]
        arr = rng.normal(size=shape).astype(dtype)
        if bad and arr.size:
            arr.reshape(-1)[int(bad[0] * arr.size)] = bad[1]
        out[f"t{i}"] = arr
    return out


def _unchecked_container(tensor_map: dict) -> bytes:
    return canonical_header(tensor_map) + b"".join(arr.tobytes() for arr in tensor_map.values())


class TestRuns:
    """Runs of small tensors give what the per-tensor path gives."""

    @given(_TENSOR_LAYOUTS, st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=80, deadline=None)
    def test_reads_match_the_per_tensor_path(self, layout, seed, data):
        blob = _unchecked_container(_tensor_map(layout, seed))
        names = [f"t{i}" for i in range(len(layout))]
        order = data.draw(st.lists(st.sampled_from(names), max_size=2 * len(names)) | st.just(names))
        cut = data.draw(st.none() | st.integers(0, len(blob)))

        def loads():
            fh = io.BytesIO(blob)
            out = []
            with CheckpointReader(fh) as reader:
                if cut is not None:  # the file shrinks after its header was read
                    fh.truncate(cut)
                for name in order:
                    arr = _outcome(lambda: reader.load(name))
                    if isinstance(arr, np.ndarray):
                        arr = (arr.dtype.str, arr.shape, arr.flags.writeable, arr.tobytes())
                    out.append(arr)
            return out

        runs = loads()
        with _per_tensor():
            assert runs == loads()

    def test_in_order_loads_read_each_run_once(self):
        tensor_map = {f"t{i}": np.full(64, i, np.float32) for i in range(300)}  # 75 KiB
        tensor_map["wide"] = np.zeros(3 * 8192)
        reads = []

        class Counting(io.BytesIO):
            def read(self, size=-1):
                reads.append(size)
                return super().read(size)

            def readinto(self, buffer):
                reads.append(len(buffer))
                return super().readinto(buffer)

        with CheckpointReader(Counting(serialize_checkpoint(tensor_map))) as reader:
            reads.clear()
            loaded = dict(reader)
        assert reads == [256 * 256, 44 * 256, 3 * 8192 * 8]  # two runs, then the wide tensor alone
        assert all(loaded[name].tobytes() == arr.tobytes() for name, arr in tensor_map.items())

    def test_a_bad_tensor_is_named_only_when_loaded(self):
        tensor_map = {"a": np.ones(4, np.float32), "b": np.float32([1, np.nan]), "c": np.ones(2, np.float32)}
        with CheckpointReader(io.BytesIO(_unchecked_container(tensor_map))) as reader:
            assert reader["c"].tolist() == [1.0, 1.0]
            assert reader["a"].tolist() == [1.0] * 4
            with pytest.raises(CheckpointFormatError, match="^<buffer>: tensor 'b' contains non-finite"):
                reader["b"]

    def test_a_run_stops_where_the_dtype_changes(self):
        # Read as float64, the float32 pair [1, nan] is a finite number.
        tensor_map = {"a": np.ones(1), "b": np.float32([1, np.nan])}
        with CheckpointReader(io.BytesIO(_unchecked_container(tensor_map))) as reader:
            assert reader["a"].tolist() == [1.0]
            with pytest.raises(CheckpointFormatError, match="tensor 'b' contains non-finite"):
                reader["b"]

    @given(_TENSOR_LAYOUTS, st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=60, deadline=None)
    def test_writes_match_the_per_tensor_path(self, layout, seed, data):
        tensor_map = _tensor_map(layout, seed)
        # Awkward arrays: a big-endian or a strided view, and a dtype the container refuses.
        for name in data.draw(st.lists(st.sampled_from(list(tensor_map)), max_size=3)):
            arr = tensor_map[name]
            tensor_map[name] = data.draw(st.sampled_from([
                arr.astype(arr.dtype.newbyteorder(">")),
                np.stack([arr, arr], axis=-1)[..., 0],
                arr.astype(np.float16),
            ]))
        path = f"/nonexistent-{seed}/m.safetensors"

        def write():
            written = []
            with mock.patch.object(checkpoint, "write_atomically",
                                   lambda _, chunks: written.append(b"".join(chunks))):
                refusal = _outcome(lambda: write_checkpoint(tensor_map, path))
            return (refusal, written, _outcome(lambda: serialize_checkpoint(tensor_map)),
                    _outcome(lambda: fingerprint_map(tensor_map)))

        runs = write()
        with _per_tensor():
            assert runs == write()

    def test_write_names_the_first_non_finite_tensor_in_map_order(self, tmp_path):
        tensor_map = {f"t{i}": np.ones(100, np.float32) for i in range(50)}
        tensor_map["t7"][3] = np.inf
        tensor_map["t30"][0] = np.nan
        path = tmp_path / "m.safetensors"
        with pytest.raises(CheckpointFormatError, match="tensor 't7' contains non-finite"):
            write_checkpoint(tensor_map, path)
        assert list(tmp_path.iterdir()) == []

    @given(
        st.lists(
            st.text(st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\ud800\udfff\u2028é'),
                    max_size=6),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        st.lists(st.sampled_from([(), (0,), (3,), (2, 0), (2, 3)]), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_header_is_the_json_encoders(self, names, shapes):
        tensor_map = {name: np.zeros(shape, np.float32) for name, shape in zip(names, shapes)}

        def reference():
            header, offset = {}, 0
            for name, arr in tensor_map.items():
                header[name] = {"dtype": "F32", "shape": list(arr.shape),
                                "data_offsets": [offset, offset + arr.nbytes]}
                offset += arr.nbytes
            text = json.dumps(header, separators=(",", ":"), ensure_ascii=False).encode("utf-8")
            return struct.pack("<Q", len(text)) + text

        assert _outcome(lambda: canonical_header(tensor_map)) == _outcome(reference)

    def test_header_of_names_json_converts(self):
        tensor_map = {1: np.zeros(2), 2.5: np.zeros(1), None: np.zeros(0), "b": np.zeros(1)}
        assert canonical_header(tensor_map)[8:] == (
            b'{"1":{"dtype":"F64","shape":[2],"data_offsets":[0,16]},'
            b'"2.5":{"dtype":"F64","shape":[1],"data_offsets":[16,24]},'
            b'"null":{"dtype":"F64","shape":[0],"data_offsets":[24,24]},'
            b'"b":{"dtype":"F64","shape":[1],"data_offsets":[24,32]}}'
        )
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
            canonical_header({("a",): np.zeros(1)})

    @given(
        st.lists(st.text("ab.", max_size=3), max_size=12),
        *[st.lists(st.tuples(st.text("ab.", max_size=2), st.booleans())
                   .map(lambda p: p[0] + "*" if p[1] else p[0]).filter(bool), max_size=3)] * 3,
    )
    @settings(max_examples=300, deadline=None)
    def test_classifier_matches_the_pattern_walk(self, names, shared, task, replace):
        spec = PartitionSpec(tuple(shared), tuple(task), 0, tuple(replace))

        def matches(name, patterns):
            return any(name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns)

        def reference():
            split = {(True, False): [], (False, True): [], (True, True): [], (False, False): []}
            for name in names:
                split[matches(name, shared), matches(name, task)].append(name)
            problems = []
            if split[True, True]:
                problems.append(f"matched by both pattern lists: {split[True, True]}")
            if split[False, False]:
                problems.append(f"matched by neither pattern list: {split[False, False]}")
            if problems:
                raise PartitionError(
                    "partition does not cover names exactly once; " + "; ".join(problems))
            return split[True, False], split[False, True]

        assert _outcome(lambda: classify_names(names, spec)) == _outcome(reference)
        for name in names:
            assert spec.is_shared(name) == matches(name, shared)
            assert spec.is_task_specific(name) == matches(name, task)
            assert spec.is_replace(name) == matches(name, replace)
