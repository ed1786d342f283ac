import zlib

import numpy as np
import pytest

from chatscreen import model_store
from chatscreen.author_classifier import ShallowModel
from chatscreen.core_math import Rng
from chatscreen.errors import (ContainerCorruptionError, ContainerFormatError,
                               ContainerVersionError, UsageError)
from chatscreen.language_model import LanguageModel, sentence_vector
from chatscreen.lstm import LstmLayerParams
from chatscreen.model_store import (Container, FORMAT_VERSION, MAGIC,
                                    VectorBundle, container_for_model, load,
                                    model_from_container, read_container,
                                    save, write_container)
from chatscreen.preprocessing import RESERVED_TOKENS, Vocabulary
from chatscreen.scd_classifier import ScdModel


def lm_fixture():
    vocab = Vocabulary(list(RESERVED_TOKENS) + ["alpha", "beta", "gamma"],
                       min_term_frequency=3)
    return LanguageModel.create(vocab, 4, 5, 7, Rng(2))


def scd_fixture():
    return ScdModel.create(Rng(3), input_dim=5, hidden_dim=6)


def author_fixture():
    feats = ["alpha", "beta", "alpha beta", "gamma"]
    return ShallowModel.create(Rng(4), feats, 3)


def params_of(model):
    return model.param_list()


class TestRoundTrip:
    def test_language_model_bit_equal(self, tmp_path):
        model = lm_fixture()
        save(model, tmp_path / "lm.model")
        again = load(tmp_path / "lm.model")
        assert isinstance(again, LanguageModel)
        assert again.vocab.tokens == model.vocab.tokens
        assert again.vocab.min_term_frequency == 3
        assert again.window == model.window
        for a, b in zip(params_of(model), params_of(again)):
            assert a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b)

    def test_scd_model_bit_equal(self, tmp_path):
        model = scd_fixture()
        save(model, tmp_path / "scd.model")
        again = load(tmp_path / "scd.model")
        assert isinstance(again, ScdModel)
        assert read_container(tmp_path / "scd.model").metas == \
            {"masked": "1"}
        for a, b in zip(params_of(model), params_of(again)):
            assert np.array_equal(a, b)

    def test_author_model_bit_equal(self, tmp_path):
        model = author_fixture()
        save(model, tmp_path / "author.model")
        again = load(tmp_path / "author.model")
        assert isinstance(again, ShallowModel)
        assert again.features == model.features    # includes "alpha beta"
        assert read_container(tmp_path / "author.model").metas == \
            {"bigrams": "1"}
        for a, b in zip(params_of(model), params_of(again)):
            assert np.array_equal(a, b)

    def test_vector_bundle_round_trip(self, tmp_path):
        rng = Rng(8)
        bundle = VectorBundle(["c1", "c2"],
                              [rng.uniform(-1, 1, (3, 4)),
                               rng.uniform(-1, 1, (7, 4))])
        save(bundle, tmp_path / "vectors.bin")
        again = load(tmp_path / "vectors.bin")
        assert again.conversation_ids == ["c1", "c2"]
        for a, b in zip(bundle.matrices, again.matrices):
            assert np.array_equal(a, b)

    def test_repeated_save_is_byte_identical(self, tmp_path):
        model = scd_fixture()
        save(model, tmp_path / "a.model")
        save(model, tmp_path / "b.model")
        assert (tmp_path / "a.model").read_bytes() == \
            (tmp_path / "b.model").read_bytes()


class TestContainerFormat:
    def test_byte_count_arithmetic(self, tmp_path):
        model = author_fixture()
        written = save(model, tmp_path / "m.model")
        raw = (tmp_path / "m.model").read_bytes()
        assert written == len(raw)
        manifest_len = int.from_bytes(raw[12:20], "little")
        tensor_bytes = sum(4 * int(np.prod(p.shape))
                           for p in model.param_list())
        assert len(raw) == 20 + manifest_len + tensor_bytes + 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.model"
        save(author_fixture(), path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTMODEL"
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerFormatError):
            load(path)

    def test_newer_version_rejected_naming_both(self, tmp_path):
        path = tmp_path / "new.model"
        save(author_fixture(), path)
        raw = bytearray(path.read_bytes())
        raw[8:12] = (FORMAT_VERSION + 1).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerVersionError) as info:
            load(path)
        assert str(FORMAT_VERSION + 1) in str(info.value)
        assert str(FORMAT_VERSION) in str(info.value)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "short.model"
        save(author_fixture(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-3])
        with pytest.raises(ContainerCorruptionError):
            load(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.model"
        save(author_fixture(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(ContainerCorruptionError):
            load(path)

    def test_corrupted_payload_rejected(self, tmp_path):
        path = tmp_path / "flip.model"
        save(author_fixture(), path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF  # inside the payload, ahead of the checksum
        path.write_bytes(bytes(raw))
        with pytest.raises(ContainerCorruptionError):
            load(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "long.model"
        save(author_fixture(), path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ContainerCorruptionError):
            load(path)

    def test_allocation_cap_enforced(self, tmp_path, monkeypatch):
        path = tmp_path / "big.model"
        save(author_fixture(), path)
        monkeypatch.setattr(model_store, "DEFAULT_ALLOC_CAP", 16)
        with pytest.raises(ContainerCorruptionError):
            load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        container = Container(kind="mystery",
                              tensors={"t": np.zeros(2, dtype=np.float32)})
        write_container(container, tmp_path / "odd.model")
        with pytest.raises(ContainerFormatError):
            load(tmp_path / "odd.model")

    def test_save_into_file_parent_fails(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(OSError):
            save(author_fixture(), blocker / "m.model")

    def test_string_table_entries_validated(self, tmp_path):
        container = Container(kind="language_model",
                              strtabs={"vocab": ["ok", "bad\ttab"]})
        with pytest.raises(UsageError):
            write_container(container, tmp_path / "x.model")

    @pytest.mark.parametrize("breaking", ["\t", "\n", "\r", "\v", "\x1c",
                                          "\x85", "\u2028"])
    def test_entry_the_manifest_parser_would_split_rejected(self, tmp_path,
                                                           breaking):
        # the manifest is read back with str.splitlines, so the writer
        # refuses every line boundary it knows, not only tab and LF
        bundle = VectorBundle([f"a{breaking}b", "z"],
                              [np.zeros((1, 2), np.float32)] * 2)
        with pytest.raises(UsageError, match="tab or line break"):
            save(bundle, tmp_path / "v.bin")
        assert not (tmp_path / "v.bin").exists()

    def test_entry_with_other_control_characters_round_trips(self,
                                                             tmp_path):
        ids = ["a\x00b", "\x1fx\u00a0y\u2027", " lead and trail "]
        bundle = VectorBundle(ids, [np.ones((1, 2), np.float32)] * 3)
        save(bundle, tmp_path / "v.bin")
        assert load(tmp_path / "v.bin").conversation_ids == ids

    def test_float64_tensor_rejected(self, tmp_path):
        container = Container(kind="scd_classifier",
                              tensors={"t": np.zeros(2, dtype=np.float64)})
        with pytest.raises(UsageError):
            write_container(container, tmp_path / "x.model")

    def test_garbled_manifest_numbers_rejected(self, tmp_path):
        manifest = b"kind\tscd_classifier\ntensor\tx\ttwo\t2,2\tf32\n"
        blob = (MAGIC + (1).to_bytes(4, "little")
                + len(manifest).to_bytes(8, "little") + manifest
                + (0).to_bytes(4, "little"))
        path = tmp_path / "garbled.model"
        path.write_bytes(blob)
        with pytest.raises(ContainerFormatError):
            load(path)

    def test_non_utf8_manifest_rejected(self, tmp_path):
        manifest = b"kind\tscd_classifier\nmeta\tmasked\t\xff\n"
        blob = (MAGIC + (1).to_bytes(4, "little")
                + len(manifest).to_bytes(8, "little") + manifest
                + (0).to_bytes(4, "little"))
        path = tmp_path / "latin.model"
        path.write_bytes(blob)
        with pytest.raises(ContainerFormatError):
            load(path)

    VECTORS_MANIFEST = (b"kind\tsentence_vectors\nmeta\tnote\tx\n"
                        b"strtab\tconversation_ids\t1\ns\tc1\n"
                        b"tensor\tconv0\t2\t1,2\tf32\n")

    @pytest.mark.parametrize("repeated", [
        b"tensor\tconv0\t2\t1,2\tf32\n",
        b"meta\tnote\tx\n",
        b"strtab\tconversation_ids\t1\ns\tc1\n",
        b"kind\tsentence_vectors\n",
    ], ids=["tensor", "meta", "strtab", "kind"])
    def test_repeated_name_rejected(self, tmp_path, repeated):
        # a vectors.bin that names conv0 (or a setting, a table or its
        # kind) twice; a second kind line used to win over the first
        path = tmp_path / "vectors.bin"
        path.write_bytes(vectors_blob(self.VECTORS_MANIFEST + repeated))
        with pytest.raises(ContainerFormatError, match="twice"):
            load(path)

    def test_blank_manifest_line_rejected(self, tmp_path):
        # the writer never writes one; it used to be skipped
        path = tmp_path / "vectors.bin"
        path.write_bytes(vectors_blob(self.VECTORS_MANIFEST.replace(
            b"\nmeta", b"\n\nmeta")))
        with pytest.raises(ContainerFormatError,
                           match="unrecognized manifest line: ''"):
            load(path)

    def test_magic_is_eight_bytes(self):
        assert len(MAGIC) == 8


def vectors_blob(manifest: bytes) -> bytes:
    """A version-1 container around manifest, with a zero payload of the
    right length (every tensor line declares two floats) and its CRC."""
    payload = bytes(8 * manifest.count(b"tensor\t"))
    return (MAGIC + (1).to_bytes(4, "little")
            + len(manifest).to_bytes(8, "little") + manifest
            + payload + zlib.crc32(payload).to_bytes(4, "little"))


def layer_names(prefix, use_bias=True):
    return [f"{prefix}.{side}" for side in ("UWb" if use_bias else "UW")]


def without_biases(model):
    """model with bias-free LSTM layers, the cells of the paper's literal
    equations; the pipeline trains none, but a model file may hold one."""
    model.layer1 = LstmLayerParams(model.layer1.U, model.layer1.W)
    model.layer2 = LstmLayerParams(model.layer2.U, model.layer2.W)
    return model


class TestLstmLayout:
    """Each LSTM layer is stored as its fused U, W and optional b."""

    def test_fused_tensor_names_and_order(self):
        lm = container_for_model(lm_fixture())
        assert list(lm.tensors) == (
            ["embedding"] + layer_names("layer1") + layer_names("layer2")
            + ["out_w", "out_b"])
        shapes = {n: t.shape for n, t in lm.tensors.items()}
        assert shapes["layer1.U"] == (4, 20)
        assert shapes["layer2.W"] == (5, 20)
        assert shapes["layer2.b"] == (20,)
        scd = without_biases(ScdModel.create(Rng(3), input_dim=5,
                                             hidden_dim=6))
        assert list(container_for_model(scd).tensors) == (
            layer_names("layer1", False) + layer_names("layer2", False)
            + ["head_w", "head_b"])

    @pytest.mark.parametrize("use_bias", [False, True])
    def test_fused_container_round_trip(self, tmp_path, use_bias):
        vocab = Vocabulary(list(RESERVED_TOKENS) + ["alpha", "beta"],
                           min_term_frequency=10)
        models = [LanguageModel.create(vocab, 4, 5, 7, Rng(9)),
                  ScdModel.create(Rng(3), input_dim=5, hidden_dim=6)]
        if not use_bias:
            models = [without_biases(model) for model in models]
        loaded = []
        for model in models:
            save(model, tmp_path / "fused.model")
            loaded.append(load(tmp_path / "fused.model"))
            assert (loaded[-1].layer2.b is None) == (not use_bias)
            for a, b in zip(model.param_list(), loaded[-1].param_list(),
                            strict=True):
                assert a.tobytes() == b.tobytes()
        for tokens in ([], ["alpha", "beta", "zzz"], ["beta"] * 9):
            assert np.array_equal(sentence_vector(loaded[0], tokens),
                                  sentence_vector(models[0], tokens))

    def test_per_gate_container_is_refused(self, tmp_path):
        model = lm_fixture()
        tensors = {"embedding": model.embedding}
        for prefix, layer in (("layer1", model.layer1),
                              ("layer2", model.layer2)):
            for side, fused in zip("UWb", layer.param_list()):
                tensors.update((f"{prefix}.{side}{gate}", block) for gate,
                               block in zip("ifog",
                                            np.split(fused, 4, axis=-1)))
        tensors.update(out_w=model.out_w, out_b=model.out_b)
        write_container(Container(
            kind="language_model",
            metas={"window": "7", "vocab_min_tf": "3"},
            strtabs={"vocab": list(model.vocab.tokens)}, tensors=tensors),
            tmp_path / "per_gate.model")
        with pytest.raises(ContainerFormatError, match="'layer1.U'"):
            load(tmp_path / "per_gate.model")

    @pytest.mark.parametrize("name,shape", [
        ("layer1.U", (8, 10)), ("layer2.W", (10, 10)), ("layer2.b", (2, 10)),
        ("out_w", (9, 5)), ("embedding", (4, 9))])
    def test_misshapen_tensor_is_format_error(self, name, shape):
        container = container_for_model(lm_fixture())
        container.tensors[name] = container.tensors[name].reshape(shape)
        with pytest.raises(ContainerFormatError, match=name):
            model_from_container(container)

    def test_missing_setting_is_format_error(self):
        container = container_for_model(lm_fixture())
        del container.metas["window"]
        with pytest.raises(ContainerFormatError, match="window"):
            model_from_container(container)
