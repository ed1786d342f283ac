"""Versioned binary container for every trained model and for sentence-
vector bundles.

Layout (all integers little-endian):

    bytes 0..7    magic  b"CHSCRNM1"
    bytes 8..11   format version (u32), currently 1
    bytes 12..19  manifest byte length (u64)
    ...           manifest, UTF-8 text
    ...           payload: float32 arrays concatenated in manifest order
    last 4 bytes  CRC-32 of the payload (u32)

The manifest is line-oriented, tab-separated:

    kind<TAB>name                       model kind discriminator
    meta<TAB>key<TAB>value              scalar configuration
    tensor<TAB>name<TAB>rank<TAB>d0,d1<TAB>f32
    strtab<TAB>name<TAB>count           followed by count `s<TAB>string` lines

A meta key, tensor name or string table name appears at most once.

Files are written through corpus_io.write_atomic; loads validate magic,
version, declared sizes against an allocation cap and the file's size,
and the payload checksum before any tensor is materialized.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from .author_classifier import ShallowModel
from .corpus_io import breaks_a_line, write_atomic
from .errors import (ContainerCorruptionError, ContainerFormatError,
                     ContainerVersionError, DataFormatError, UsageError)
from .language_model import LanguageModel
from .lstm import LstmLayerParams
from .preprocessing import Vocabulary
from .scd_classifier import ScdModel

MAGIC = b"CHSCRNM1"
FORMAT_VERSION = 1
DEFAULT_ALLOC_CAP = 4 * 1024 ** 3  # bytes of payload a load may allocate

_HEADER_LEN = len(MAGIC) + 4 + 8


@dataclass
class Container:
    """A container's contents, each table keyed by name in file order."""

    kind: str
    metas: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    strtabs: dict[str, list[str]] = field(default_factory=dict)

    def tensor(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise ContainerFormatError(f"container is missing tensor "
                                       f"{name!r}")
        return self.tensors[name]


def _manifest_text(container: Container) -> str:
    lines = [f"kind\t{container.kind}"]
    for key, value in container.metas.items():
        lines.append(f"meta\t{key}\t{value}")
    for name, table in container.strtabs.items():
        lines.append(f"strtab\t{name}\t{len(table)}")
        for s in table:
            if breaks_a_line(s):
                raise UsageError(f"string table entry holds a tab or line "
                                 f"break: {s!r}")
            lines.append(f"s\t{s}")
    for name, tensor in container.tensors.items():
        dims = ",".join(str(d) for d in tensor.shape)
        lines.append(f"tensor\t{name}\t{tensor.ndim}\t{dims}\tf32")
    return "\n".join(lines) + "\n"


def write_container(container: Container, path) -> int:
    """Write atomically; returns the byte count."""
    for name, tensor in container.tensors.items():
        if tensor.dtype != np.float32:
            raise UsageError(f"tensor {name!r} must be float32, got "
                             f"{tensor.dtype}")
    manifest = _manifest_text(container).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t).astype("<f4").tobytes()
                       for t in container.tensors.values())
    return write_atomic(path, MAGIC + FORMAT_VERSION.to_bytes(4, "little")
                        + len(manifest).to_bytes(8, "little") + manifest
                        + payload + zlib.crc32(payload).to_bytes(4, "little"))


def _add(table: dict, name: str, value, what: str) -> None:
    if name in table:
        raise ContainerFormatError(f"{what} {name!r} appears twice in the "
                                   "manifest")
    table[name] = value


def _parse_manifest(text: str):
    kind = None
    metas: dict[str, str] = {}
    strtabs: dict[str, list[str]] = {}
    specs: dict[str, tuple[int, ...]] = {}
    pending: list[str] | None = None
    pending_left = 0
    for line in text.splitlines():
        if pending_left:
            if not line.startswith("s\t"):
                raise ContainerFormatError("string table truncated in manifest")
            pending.append(line[2:])
            pending_left -= 1
            continue
        fields = line.split("\t")
        tag = fields[0]
        if tag == "kind" and len(fields) == 2:
            if kind is not None:
                raise ContainerFormatError("kind appears twice in the manifest")
            kind = fields[1]
        elif tag == "meta" and len(fields) == 3:
            _add(metas, fields[1], fields[2], "meta key")
        elif tag == "strtab" and len(fields) == 3:
            pending = []
            _add(strtabs, fields[1], pending, "string table")
            pending_left = int(fields[2])
        elif tag == "tensor" and len(fields) == 5:
            name, rank, dims, dtype = fields[1], int(fields[2]), fields[3], fields[4]
            if dtype != "f32":
                raise ContainerFormatError(f"unsupported element type {dtype!r}")
            shape = tuple(int(d) for d in dims.split(",")) if dims else ()
            if len(shape) != rank:
                raise ContainerFormatError(f"tensor {name!r}: rank {rank} does "
                                           f"not match dims {dims!r}")
            _add(specs, name, shape, "tensor")
        else:
            raise ContainerFormatError(f"unrecognized manifest line: {line!r}")
    if pending_left:
        raise ContainerFormatError("string table truncated in manifest")
    if kind is None:
        raise ContainerFormatError("manifest does not declare a model kind")
    return kind, metas, strtabs, specs


def read_container(path) -> Container:
    """The container at path. A declared length is checked against the
    file's size before it is read, so a corrupt manifest cannot make a
    load allocate more than the file holds. The tensors are writable views
    into one payload buffer, made after its checksum holds."""
    with open(path, "rb") as fh:
        size = fh.seek(0, 2)    # the end's offset
        fh.seek(0)
        head = fh.read(_HEADER_LEN)
        if len(head) < _HEADER_LEN or head[:8] != MAGIC:
            raise ContainerFormatError("not a model container (bad magic)")
        version = int.from_bytes(head[8:12], "little")
        if version > FORMAT_VERSION:
            raise ContainerVersionError(
                f"file format version {version} is newer than "
                f"supported version {FORMAT_VERSION}")
        manifest_len = int.from_bytes(head[12:20], "little")
        if manifest_len > DEFAULT_ALLOC_CAP:
            raise ContainerCorruptionError("declared manifest length "
                                           f"{manifest_len} exceeds cap")
        if _HEADER_LEN + manifest_len > size:
            raise ContainerCorruptionError("truncated manifest")
        manifest_raw = fh.read(manifest_len)
        try:
            kind, metas, strtabs, specs = _parse_manifest(
                manifest_raw.decode("utf-8"))
        except ValueError as exc:   # also non-UTF-8 bytes
            raise ContainerFormatError(f"bad manifest field: {exc}") from exc
        if any(d < 0 for shape in specs.values() for d in shape):
            raise ContainerCorruptionError("negative dimension")
        counts = [math.prod(shape) for shape in specs.values()]
        payload_len = 4 * sum(counts)
        if payload_len > DEFAULT_ALLOC_CAP:
            raise ContainerCorruptionError("declared payload "
                                           f"{payload_len} bytes exceeds cap "
                                           f"{DEFAULT_ALLOC_CAP}")
        payload_end = _HEADER_LEN + manifest_len + payload_len
        if payload_end > size:
            raise ContainerCorruptionError("truncated payload")
        if payload_end + 4 > size:
            raise ContainerCorruptionError("missing checksum")
        if payload_end + 4 < size:
            raise ContainerCorruptionError("trailing bytes after checksum")
        payload = bytearray(payload_len)
        if fh.readinto(payload) < payload_len:  # the file shrank meanwhile
            raise ContainerCorruptionError("truncated payload")
        crc_raw = fh.read(4)
    if zlib.crc32(payload) != int.from_bytes(crc_raw, "little"):
        raise ContainerCorruptionError("payload checksum mismatch")
    tensors = {}
    offset = 0
    for (name, shape), count in zip(specs.items(), counts):
        tensors[name] = np.frombuffer(payload, dtype="<f4", count=count,
                                      offset=offset).reshape(shape)
        offset += 4 * count
    return Container(kind=kind, metas=metas, tensors=tensors, strtabs=strtabs)


def _layer_tensors(prefix: str, layer: LstmLayerParams):
    """An LSTM layer's fused arrays as prefix.U, prefix.W and prefix.b."""
    return [(f"{prefix}.{side}", m)
            for side, m in zip("UWb", layer.param_list())]


def _layer_from(container: Container, prefix: str) -> LstmLayerParams:
    try:
        return LstmLayerParams(container.tensor(f"{prefix}.U"),
                               container.tensor(f"{prefix}.W"),
                               container.tensor(f"{prefix}.b"))
    except UsageError as exc:   # its message begins with U, W or b
        raise ContainerFormatError(f"tensor {prefix}.{exc}") from exc


@dataclass
class VectorBundle:
    """Sentence-vector matrices per conversation, the vectorize stage's
    artifact."""

    conversation_ids: list[str]
    matrices: list[np.ndarray]   # each (n_messages, hidden_dim) float32

    def __post_init__(self):
        for i, matrix in enumerate(self.matrices):
            first = self.matrices[0]
            if matrix.ndim != 2 or matrix.shape[1] != first.shape[-1]:
                raise UsageError(f"conv{i} has shape {matrix.shape} and conv0 "
                                 f"{first.shape}: sentence vectors must be "
                                 "2-D rows of one width")


def container_for_model(model) -> Container:
    """Build the serializable view of any supported model object."""
    if isinstance(model, LanguageModel):
        c = Container(kind="language_model")
        c.metas["window"] = str(model.window)
        c.metas["vocab_min_tf"] = str(model.vocab.min_term_frequency)
        c.strtabs["vocab"] = list(model.vocab.tokens)
        c.tensors["embedding"] = model.embedding
        c.tensors.update(_layer_tensors("layer1", model.layer1))
        c.tensors.update(_layer_tensors("layer2", model.layer2))
        c.tensors["out_w"] = model.out_w
        c.tensors["out_b"] = model.out_b
        return c
    if isinstance(model, ScdModel):
        c = Container(kind="scd_classifier")
        c.metas["masked"] = "1"     # the head reads the last real row
        c.tensors.update(_layer_tensors("layer1", model.layer1))
        c.tensors.update(_layer_tensors("layer2", model.layer2))
        c.tensors["head_w"] = model.head_w
        c.tensors["head_b"] = model.head_b
        return c
    if isinstance(model, ShallowModel):
        c = Container(kind="author_classifier")
        c.metas["bigrams"] = "1"    # features always include bigrams
        c.strtabs["features"] = list(model.features)
        c.tensors["embedding"] = model.embedding
        c.tensors["class_w"] = model.class_w
        c.tensors["class_b"] = model.class_b
        return c
    if isinstance(model, VectorBundle):
        c = Container(kind="sentence_vectors")
        c.strtabs["conversation_ids"] = list(model.conversation_ids)
        for i, matrix in enumerate(model.matrices):
            c.tensors[f"conv{i}"] = matrix
        return c
    raise UsageError(f"cannot serialize object of type {type(model).__name__}")


def model_from_container(container: Container):
    """The model a container describes. Tensors or settings that do not fit
    its kind are a ContainerFormatError: the checksum covers the payload,
    not the manifest's dimensions."""
    try:
        return _model_from(container)
    except (UsageError, ValueError, IndexError, KeyError) as exc:
        raise ContainerFormatError(
            f"{container.kind} container does not hold a valid model: "
            f"{exc}") from exc


def _require_1(container: Container, key: str, reason: str) -> None:
    """Refuse a container whose setting `key` is not 1: the writer always
    stores 1, since `reason` is the program's one path."""
    value = container.metas.get(key)
    if value != "1":
        raise ContainerFormatError(f"{container.kind} container setting "
                                   f"{key!r} is {value!r}; {reason}")


def _model_from(container: Container):
    kind = container.kind
    if kind == "language_model":
        vocab = Vocabulary(container.strtabs["vocab"],
                           min_term_frequency=int(
                               container.metas["vocab_min_tf"]))
        return LanguageModel(vocab, container.tensor("embedding"),
                             _layer_from(container, "layer1"),
                             _layer_from(container, "layer2"),
                             container.tensor("out_w"),
                             container.tensor("out_b"),
                             window=int(container.metas["window"]))
    if kind == "scd_classifier":
        _require_1(container, "masked",
                   "the head reads each chunk's last real row")
        return ScdModel(_layer_from(container, "layer1"),
                        _layer_from(container, "layer2"),
                        container.tensor("head_w"),
                        container.tensor("head_b"))
    if kind == "author_classifier":
        _require_1(container, "bigrams", "scoring uses bigrams")
        return ShallowModel(container.strtabs["features"],
                            container.tensor("embedding"),
                            container.tensor("class_w"),
                            container.tensor("class_b"))
    if kind == "sentence_vectors":
        ids = container.strtabs["conversation_ids"]
        matrices = [container.tensor(f"conv{i}") for i in range(len(ids))]
        return VectorBundle(ids, matrices)
    raise ContainerFormatError(f"unknown model kind {kind!r}")


def save(model, path) -> int:
    """Serialize any supported model kind; returns bytes written."""
    return write_container(container_for_model(model), path)


def load(path):
    """Load whatever model kind the manifest names; every refusal is a
    DataFormatError of the same class whose message names the file."""
    try:
        return model_from_container(read_container(path))
    except DataFormatError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
