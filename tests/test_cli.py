import configparser
import errno
import inspect
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from chatscreen import cli, corpus_io, errors, pipeline, scd_classifier
from chatscreen.cli import main
from chatscreen.config import PipelineConfig, load_config
from chatscreen.core_math import CLIP_NORM, Rng
from chatscreen.errors import UsageError
from chatscreen.language_model import LanguageModel
from chatscreen.model_store import (VectorBundle, load, read_container,
                                    save, write_container)
from chatscreen.preprocessing import (LONG_WORD_LIMIT, RESERVED_TOKENS,
                                      Vocabulary, tokenize, vocab_to_text)

from test_acceptance import write_accept_config


def write_config(path, out_dir, **overrides):
    """Small-scale config used by the CLI tests."""
    lines = {
        "paths": {"corpus": str(out_dir / "corpus.xml"),
                  "ground_truth": str(out_dir / "truth.txt"),
                  "out": str(out_dir)},
        "preprocessing": {"min_tf": 2},
        "lm": {"embedding_dim": 8, "hidden_dim": 8, "window": 12,
               "epochs": 1, "lr": 0.003, "optimizer": "adam",
               "batch_size": 8},
        "scd": {"hidden_dim": 8, "epochs": 2, "lr": 0.01,
                "optimizer": "adam", "chunk_len": 20, "val_fraction": 0.2},
        "author": {"k": 6, "epochs": 2, "lr": 0.02, "optimizer": "adam",
                   "min_feature_freq": 2},
        "run": {"seed": 77},
        "synth": {"n_conversations": 24, "geometric_p": 0.2},
    }
    for section, kv in overrides.items():
        lines.setdefault(section, {}).update(kv)
    text = []
    for section, kv in lines.items():
        text.append(f"[{section}]")
        text.extend(f"{k} = {v}" for k, v in kv.items())
        text.append("")
    path.write_text("\n".join(text), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.min_tf == 10
        assert LONG_WORD_LIMIT == 30
        assert CLIP_NORM == 5.0
        assert cfg.lm_hidden_dim == 200
        assert cfg.lm_window == 35
        assert cfg.scd_chunk_len == 100
        assert cfg.scd_threshold == 0.5
        assert cfg.scd_neg_ratio == 5.0
        assert cfg.author_min_feature_freq == 5
        assert cfg.seed == 1

    def test_file_round_trip(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", tmp_path)
        cfg = load_config(path)
        assert cfg.min_tf == 2
        assert cfg.lm_optimizer == "adam"
        assert cfg.seed == 77
        assert cfg.synth_n_conversations == 24

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[lm]\nmystery = 4\n")
        with pytest.raises(UsageError, match="mystery"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[nonsense]\nx = 1\n")
        with pytest.raises(UsageError, match="nonsense"):
            load_config(path)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nseed = 5\n", "[DEFAULT]\nlr = 0.2\n",
        "[DEFAULT]\nepochs = 0\n\n[lm]\nwindow = 4\n"],
        ids=["seed", "lr", "epochs-beside-lm"])
    def test_default_section_rejected(self, tmp_path, text):
        # configparser's own [DEFAULT] would be dropped or copied into
        # every other section, never reported
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(UsageError, match=r"unknown section \[DEFAULT\]"):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[lm]\nepochs = soon\n")
        with pytest.raises(UsageError, match="bad value for lm.epochs"):
            load_config(path)

    @pytest.mark.parametrize("f", [
        pytest.param(f, id=f"{f.metadata['section']}."
                           f"{f.name.removeprefix(f.metadata['section'] + '_')}")
        for f in fields(PipelineConfig)
        if f.type in ("int", "float") or f.metadata["bound"] is not None])
    def test_boolean_word_is_refused_by_every_checked_key(self, tmp_path, f):
        # no setting is boolean: "true" is neither a number nor an optimizer
        # name, and the refusal names the key it was given to
        section = f.metadata["section"]
        key = f.name.removeprefix(f"{section}_")
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = true\n")
        message = (f"bad value for {section}.{key}: 'true'"
                   if f.type in ("int", "float")
                   else f"[{section}] {key} = true must be sgd or adam")
        with pytest.raises(UsageError, match=re.escape(message)):
            load_config(path)

    @pytest.mark.parametrize("section,key", [
        pytest.param("author", "bigrams", id="bigrams"),
        pytest.param("author", "balance", id="balance"),
        pytest.param("lm", "clip_norm", id="lm-clip_norm"),
        pytest.param("scd", "clip_norm", id="scd-clip_norm"),
        pytest.param("author", "clip_norm", id="author-clip_norm"),
        pytest.param("preprocessing", "long_word_limit",
                     id="long_word_limit"),
        pytest.param("run", "use_bias", id="use_bias"),
        pytest.param("scd", "masked", id="masked"),
    ])
    def test_removed_author_switch_is_unknown_key(self, tmp_path, capsys,
                                                  section, key):
        # the scorer always uses bigrams and class balancing, every
        # optimizer clips at core_math.CLIP_NORM, normalization caps words
        # at preprocessing.LONG_WORD_LIMIT, every LSTM layer has gate biases
        # and the SCD head reads each chunk's last real row; "1" would be a
        # valid value for each of these keys
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path,
                                **{section: {key: "1"}})
        assert main(["synth", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in [{section}]" in err
        assert not (tmp_path / "corpus.xml").exists()

    def test_acceptance_recipe_matches_the_shipped_config(self, tmp_path):
        # the benchmark runs configs/synth-accept.cfg, criterion 7 the copy
        # write_accept_config writes; only their [paths] may differ
        shipped = load_config(Path(__file__).parents[1] / "configs"
                              / "synth-accept.cfg")
        inline = load_config(write_accept_config(tmp_path / "accept.cfg",
                                                 tmp_path))
        paths = {f.name: "" for f in fields(PipelineConfig)
                 if f.metadata["section"] == "paths"}
        assert replace(shipped, **paths) == replace(inline, **paths)

    def test_default_config_file_lists_every_default(self):
        path = Path(__file__).parents[1] / "configs" / "chat-default.cfg"
        cfg = load_config(path)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(path, encoding="utf-8")
        listed = {(s, k) for s in parser.sections() for k in parser[s]}
        for f in fields(PipelineConfig):
            section = f.metadata["section"]
            if section == "paths":
                continue
            assert getattr(cfg, f.name) == f.default, f.name
            if section != "synth":
                key = f.name.removeprefix(f"{section}_")
                assert (section, key) in listed, f.name

    def test_every_field_has_exactly_one_key(self, tmp_path):
        keys = {}
        for f in fields(PipelineConfig):
            section = f.metadata["section"]
            keys[(section, f.name.removeprefix(f"{section}_"))] = f
        assert len(keys) == len(fields(PipelineConfig))
        changed = {"int": lambda d: d + 1, "float": lambda d: d + 0.5,
                   "str": lambda d: "adam" if d == "sgd" else d + "x"}
        for (section, key), f in keys.items():
            value = changed[f.type](f.default)
            path = tmp_path / f"{f.name}.cfg"
            path.write_text(f"[{section}]\n{key} = {value}\n")
            cfg = load_config(path)
            assert cfg == PipelineConfig(**{f.name: value}), f.name

    def test_key_of_another_section_rejected(self, tmp_path):
        for text in ("[lm]\nchunk_len = 3\n", "[run]\nlm_epochs = 3\n"):
            path = tmp_path / "bad.cfg"
            path.write_text(text)
            with pytest.raises(UsageError, match="unknown key"):
                load_config(path)

    def test_values_at_the_bounds_load(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", tmp_path,
                            lm={"epochs": 0, "window": 1},
                            scd={"epochs": 0, "val_fraction": 0.0,
                                 "neg_ratio": 0.0, "threshold": 1.0,
                                 "chunk_len": 1},
                            author={"epochs": 0, "k": 1, "batch_size": 1})
        cfg = load_config(path)
        assert (cfg.lm_epochs, cfg.scd_val_fraction, cfg.scd_threshold,
                cfg.author_k) == (0, 0.0, 1.0, 1)
        path = write_config(tmp_path / "run.cfg", tmp_path,
                            scd={"threshold": 0.0})
        assert load_config(path).scd_threshold == 0.0


class TestExitCodes:
    @pytest.mark.parametrize("name,reader,writer", [
        ("normalized.xml", "build-vocab", "preprocess"),
        ("vocab.txt", "train-lm", "build-vocab"),
        ("lm.model", "vectorize", "train-lm"),
        ("vectors.bin", "train-scd", "vectorize"),
        ("scd.model", "eval-scd", "train-scd"),
        ("author.model", "score-authors", "train-author"),
        ("scd_verdicts.tsv", "identify", "eval-scd"),
        ("author_scores.tsv", "identify", "score-authors")])
    def test_missing_artifact_names_producer(self, small_run, tmp_path,
                                             capsys, name, reader, writer):
        out, cfg_path = copy_run(small_run, tmp_path)
        (out / name).unlink()
        assert main([reader, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert f"{name} not found; run `chatscreen {writer}` first" in err

    def test_default_section_is_config_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        cfg_path.write_text("[DEFAULT]\nseed = 5\n\n" + cfg_path.read_text())
        assert main(["synth", "--config", str(cfg_path)]) == 1
        assert "[DEFAULT]" in capsys.readouterr().err
        assert not (tmp_path / "corpus.xml").exists()

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        (tmp_path / "corpus.xml").write_bytes(b"<conversations><conv")
        (tmp_path / "truth.txt").write_text("")
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize("xml", [
        b"<conversations><conv",
        b'<conversations><conversation id="a"><conversation id="b">'
        b"</conversation></conversation></conversations>"],
        ids=["malformed", "nested"])
    def test_corpus_parse_error_names_the_corpus(self, tmp_path, capsys,
                                                 xml):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        (tmp_path / "corpus.xml").write_bytes(xml)
        (tmp_path / "truth.txt").write_text("")
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'corpus.xml'}: ")
        assert not (tmp_path / "normalized.xml").exists()

    def test_repeated_conversation_id_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        first, second = re.findall(rb'<conversation id="([^"]+)">', xml)[:2]
        corpus.write_bytes(xml.replace(b'id="%s"' % second,
                                       b'id="%s"' % first))
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert first.decode() in capsys.readouterr().err
        assert not (tmp_path / "normalized.xml").exists()

    def test_nested_conversation_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        outer = re.findall(rb'<conversation id="([^"]+)">', xml)[0]
        # the first conversation's end tag moves after the second's
        first_end = xml.index(b"</conversation>")
        second_end = xml.index(b"</conversation>", first_end + 1)
        end = len(b"</conversation>")
        corpus.write_bytes(xml[:first_end] + xml[first_end + end:second_end]
                           + xml[first_end:first_end + end] + xml[second_end:])
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert outer.decode() in capsys.readouterr().err

    def test_field_inside_another_field_is_data_error(self, tmp_path,
                                                      capsys):
        # the inner author used to take the message over, with exit 0
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        conv_id, line = re.search(rb'<conversation id="([^"]+)">\s*'
                                  rb'<message line="(\d+)">', xml).groups()
        text = xml.index(b"<text>") + len(b"<text>")
        corpus.write_bytes(xml[:text] + b"<author>y</author>" + xml[text:])
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert (f"conversation {conv_id.decode()!r}, message line "
                f"{line.decode()}: <author> opens inside <text>"
                in capsys.readouterr().err)
        assert not (tmp_path / "normalized.xml").exists()

    def test_conversation_without_id_is_data_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        second = re.findall(rb'<conversation id="[^"]+">', xml)[1]
        corpus.write_bytes(xml.replace(second, b"<conversation>"))
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert "conversation 2 has no id" in capsys.readouterr().err
        assert not (tmp_path / "normalized.xml").exists()

    def test_author_with_tab_is_data_error(self, tmp_path, capsys):
        # score-authors would write the tab into author_scores.tsv, which
        # identify then refuses; the corpus reader refuses it first
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        conv_id, author = re.search(
            rb'<conversation id="([^"]+)">\s*<message line="\d+">\s*'
            rb"<author>([^<]+)</author>", xml).groups()
        corpus.write_bytes(xml.replace(b"<author>%s</author>" % author,
                                       b"<author>%s&#9;x</author>" % author))
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert f"conversation {conv_id.decode()!r}" in capsys.readouterr().err
        assert not (tmp_path / "normalized.xml").exists()

    def test_id_with_tab_is_data_error(self, tmp_path, capsys):
        # vectorize could not write the id into vectors.bin's string table;
        # the corpus reader refuses it first
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        corpus = tmp_path / "corpus.xml"
        xml = corpus.read_bytes()
        conv_id = re.search(rb'<conversation id="([^"]+)">', xml).group(1)
        corpus.write_bytes(xml.replace(b'id="%s"' % conv_id,
                                       b'id="%s&#9;x"' % conv_id))
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        assert f"{conv_id.decode()}\\tx" in capsys.readouterr().err
        assert not (tmp_path / "normalized.xml").exists()

    def test_non_utf8_config_file_is_usage_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        text = cfg_path.read_bytes()
        cfg_path.write_bytes(text.replace(b"out = ", b"out = \xff", 1))
        assert main(["synth", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "run.cfg" in err

    @pytest.mark.parametrize("section,key,value", [
        ("lm", "lr", "-0.1"), ("lm", "lr", "nan"), ("scd", "lr", "0"),
        ("author", "lr", "inf"),
        ("scd", "val_fraction", "-0.5"), ("scd", "val_fraction", "1"),
        ("scd", "neg_ratio", "-1"), ("scd", "neg_ratio", "inf"),
        ("scd", "threshold", "-1"), ("scd", "threshold", "2"),
        ("scd", "threshold", "nan"),
        ("lm", "epochs", "-1"), ("scd", "epochs", "-1"),
        ("author", "epochs", "-1"),
        ("lm", "batch_size", "0"), ("scd", "batch_size", "0"),
        ("author", "batch_size", "0"),
        ("lm", "hidden_dim", "0"), ("lm", "embedding_dim", "0"),
        ("scd", "hidden_dim", "0"), ("author", "k", "0"),
        ("lm", "window", "0"), ("scd", "chunk_len", "0"),
        ("synth", "geometric_p", "0"), ("synth", "marker_density", "2"),
        ("lm", "optimizer", "adagrad"), ("scd", "optimizer", "adagrad"),
        ("author", "optimizer", "adagrad"), ("lm", "optimizer", "SGD"),
        ("preprocessing", "min_tf", "0"),
        ("author", "min_feature_freq", "0"),
        ("author", "min_feature_freq", "-3"),
        ("synth", "n_conversations", "0"),
        ("synth", "predator_fraction", "1"),
        ("synth", "predator_fraction", "-0.1"),
        ("synth", "predator_fraction", "nan"),
    ])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               section, key, value):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path,
                                **{section: {key: value}})
        assert main(["synth", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"[{section}] {key} = {value} must be" in err
        assert not (tmp_path / "corpus.xml").exists()

    @pytest.mark.parametrize("key,data", [
        ("abbreviations", b"u\tyou\nr\xff\tare\n"),
        ("emoticons", b":-\\)\n\xff\n"),
    ], ids=["abbreviations", "emoticons"])
    def test_non_utf8_rules_file_is_usage_error(self, tmp_path, capsys, key,
                                               data):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(data)
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path,
                                preprocessing={key: str(rules)})
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert main(["preprocess", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "rules.txt" in err
        assert not (tmp_path / "normalized.xml").exists()

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_config_file_that_cannot_be_read_is_usage_error(
            self, tmp_path, capsys, target):
        path = tmp_path / ("run.cfg" if target == "missing" else "")
        assert main(["synth", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("key", ["abbreviations", "emoticons"])
    def test_rules_file_that_cannot_be_read_is_usage_error(
            self, tmp_path, capsys, key, target):
        rules = tmp_path / "rules"
        if target == "directory":
            rules.mkdir()
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path,
                                preprocessing={key: str(rules)})
        assert main(["synth", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert main(["preprocess", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {rules}: ")
        assert not (tmp_path / "normalized.xml").exists()

    @pytest.mark.parametrize("name,code", [
        ("corpus.xml", errno.ENOENT), ("corpus.xml", errno.EISDIR),
        ("truth.txt", errno.ENOENT), ("out", errno.EEXIST),
        ("normalized.xml", errno.EISDIR),
    ], ids=["missing-corpus", "corpus-directory", "missing-truth",
            "out-names-a-file", "artifact-directory"])
    def test_path_the_os_refuses_is_usage_error(self, tmp_path, capsys, name,
                                                code):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        path = tmp_path / name
        argv = ["preprocess", "--config", str(cfg_path)]
        if code == errno.EEXIST:
            path.write_text("")
            argv += ["--out", str(path)]
        else:
            path.unlink(missing_ok=True)
            if code == errno.EISDIR:
                path.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: {path}: {os.strerror(code)}\n"
        assert sorted(tmp_path.rglob("*")) == before

    def test_train_lm_without_targets_is_usage_error(self, tmp_path,
                                                      capsys):
        # one-message conversations cut to a window of one token: every
        # document is a single id, with nothing to predict
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path,
                                lm={"window": 1})
        vocab = Vocabulary(list(RESERVED_TOKENS), min_term_frequency=1)
        (tmp_path / "vocab.txt").write_text(vocab_to_text(vocab))
        (tmp_path / "normalized.xml").write_bytes(
            b'<?xml version="1.0" encoding="UTF-8"?>\n<conversations>\n'
            + b"".join(b'<conversation id="c%d"><message line="1">'
                       b"<author>a</author><time>0</time><text>hello you"
                       b"</text></message></conversation>\n" % i
                       for i in (1, 2))
            + b"</conversations>\n")
        (tmp_path / "truth.txt").write_text("")
        assert main(["train-lm", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "next-token targets" in err
        assert not (tmp_path / "lm.model").exists()

    def test_diverged_train_lm_is_numeric_error(self, tmp_path, capsys):
        # a learning rate this large leaves every parameter finite but the
        # model's loss is not; train-lm used to write it with exit 0
        cfg_path = str(write_config(
            tmp_path / "run.cfg", tmp_path, synth={"n_conversations": 20},
            lm={"lr": 1e38, "window": 5000, "epochs": 1, "batch_size": 64}))
        for cmd in ["synth", "preprocess", "build-vocab"]:
            assert main([cmd, "--config", cfg_path]) == 0, cmd
        capsys.readouterr()
        assert main(["train-lm", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: train-lm:") and "lm.model" in err
        assert not (tmp_path / "lm.model").exists()
        assert not (tmp_path / "lm_train.log").exists()

    def test_unconfigured_corpus_is_usage_error(self, tmp_path):
        assert main(["preprocess", "--out", str(tmp_path)]) == 1

    def test_bad_command_line_is_usage_error(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main(["synth", "--mystery-flag"]) == 1
        capsys.readouterr()

    def test_strict_paper_flag_is_gone(self, small_run, tmp_path, capsys):
        # the literal-equations variant the flag selected is gone, and
        # every setting of a run is in its config file, not on the
        # command line
        out, cfg_path = copy_run(small_run, tmp_path)
        (out / "lm.model").unlink()
        assert main(["train-lm", "--config", str(cfg_path),
                     "--strict-paper"]) == 1
        assert "unrecognized arguments: --strict-paper" in \
            capsys.readouterr().err
        assert not (out / "lm.model").exists()

    def test_numeric_failure_maps_to_exit_three(self, tmp_path, monkeypatch):
        from chatscreen.errors import NumericError

        def explode(cfg):
            raise NumericError("loss went non-finite")

        monkeypatch.setitem(cli._COMMANDS, "train-lm", explode)
        assert main(["train-lm", "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize("cls", [
        c for _, c in inspect.getmembers(errors, inspect.isclass)
        if issubclass(c, Exception)], ids=lambda c: c.__name__)
    def test_every_error_class_has_its_exit_code(self, tmp_path, monkeypatch,
                                                 capsys, cls):
        # README: usage errors exit 1, data errors 2, numeric failures 3
        codes = {errors.UsageError: 1, errors.DataFormatError: 2,
                 errors.NumericError: 3}

        def explode(cfg):
            raise cls("the stage failed")

        monkeypatch.setitem(cli._COMMANDS, "train-lm", explode)
        code = main(["train-lm", "--out", str(tmp_path)])
        assert [c for base, c in codes.items() if issubclass(cls, base)] \
            == [code]
        assert capsys.readouterr().err == "error: the stage failed\n"


class TestStages:
    def test_synth_writes_corpus_and_truth(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "corpus.xml").exists()
        assert (tmp_path / "truth.txt").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        assert main(["synth", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "corpus.xml").read_bytes()
        assert main(["synth", "--config", str(cfg_path), "--seed", "9"]) == 0
        assert (tmp_path / "corpus.xml").read_bytes() != first
        assert main(["synth", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "corpus.xml").read_bytes() == first

    def test_eval_lm_on_uniform_model_reports_vocab_size(self, tmp_path,
                                                         capsys):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        out = tmp_path
        words = [f"w{i:02d}" for i in range(94)]
        vocab = Vocabulary(list(RESERVED_TOKENS) + words, min_term_frequency=1)
        model = LanguageModel.create(vocab, 8, 8, 12, Rng(1))
        model.out_w[:] = 0
        model.out_b[:] = 0
        save(model, out / "lm.model")
        text = " ".join(words[:10])
        (out / "normalized.xml").write_bytes(
            b'<?xml version="1.0" encoding="UTF-8"?>\n<conversations>\n'
            b'<conversation id="c1"><message line="1"><author>a</author>'
            b"<time>0</time><text>" + text.encode() + b"</text></message>"
            b"</conversation>\n</conversations>\n")
        (out / "truth.txt").write_text("")
        assert main(["eval-lm", "--config", str(cfg_path)]) == 0
        assert (out / "eval_lm.txt").read_text() == "perplexity=100.000000\n"

    def test_eval_lm_on_diverged_model_is_numeric_error(self, tmp_path,
                                                        capsys):
        # weights blown up by a huge learning rate: the perplexity is not
        # finite, which used to be written out with exit 0
        self.test_eval_lm_on_uniform_model_reports_vocab_size(tmp_path,
                                                              capsys)
        cfg_path = tmp_path / "run.cfg"
        eval_lm = (tmp_path / "eval_lm.txt").read_bytes()
        model = load(tmp_path / "lm.model")
        model.out_w[:] = 3e38
        model.out_w[:, ::2] = -3e38
        save(model, tmp_path / "lm.model")
        assert main(["eval-lm", "--config", str(cfg_path)]) == 3
        assert "perplexity" in capsys.readouterr().err
        assert (tmp_path / "eval_lm.txt").read_bytes() == eval_lm

    def test_identify_fixture_enumeration(self, tmp_path):
        cfg_path = write_config(tmp_path / "run.cfg", tmp_path)
        out = tmp_path
        (out / "normalized.xml").write_bytes(
            b"<conversations>"
            b'<conversation id="c1">'
            b'<message line="1"><author>pred1</author><time>0</time>'
            b"<text>zz yy</text></message>"
            b'<message line="2"><author>vic1</author><time>1</time>'
            b"<text>aa bb</text></message></conversation>"
            b'<conversation id="c2">'
            b'<message line="1"><author>norm1</author><time>0</time>'
            b"<text>cc dd</text></message>"
            b'<message line="2"><author>norm2</author><time>1</time>'
            b"<text>ee ff</text></message></conversation>"
            b'<conversation id="c3">'
            b'<message line="1"><author>pred2</author><time>0</time>'
            b"<text>zz qq</text></message>"
            b'<message line="2"><author>vic2</author><time>1</time>'
            b"<text>gg hh</text></message></conversation>"
            b"</conversations>")
        (out / "truth.txt").write_text("pred1\npred2\n")
        # SCD flags c1 and c3; c2 stays negative
        (out / "scd_verdicts.tsv").write_text(
            "c1\t0.990000\tpositive\nc2\t0.100000\tnegative\n"
            "c3\t0.920000\tpositive\n")
        # pred1 is top-P with class P in c1 -> flagged;
        # in c3 the top-P author's class is V -> intersection blocks it
        (out / "author_scores.tsv").write_text(
            "pred1\t0.9\t0.05\t0.05\tP\n"
            "vic1\t0.1\t0.8\t0.1\tV\n"
            "norm1\t0.2\t0.2\t0.6\tN\n"
            "norm2\t0.1\t0.2\t0.7\tN\n"
            "pred2\t0.45\t0.5\t0.05\tV\n"
            "vic2\t0.1\t0.3\t0.6\tN\n")
        assert main(["identify", "--config", str(cfg_path)]) == 0
        assert (out / "predators.txt").read_text() == "pred1\n"
        report = (out / "report.txt").read_text()
        assert "RETR." in report and "chatscreen" in report

    @pytest.mark.parametrize("name,old,new", [
        ("scd_verdicts.tsv", "0.990000\tpositive", "0.990000\tpos"),
        ("scd_verdicts.tsv", "0.990000\tpositive", "nan\tpositive"),
        ("scd_verdicts.tsv", "0.990000\tpositive", "1.5\tpositive"),
        ("scd_verdicts.tsv", "positive\n", "positive\textra\n"),
        ("scd_verdicts.tsv", "c2\t", "c1\t"),
        ("scd_verdicts.tsv", "c2\t", "c9\t"),
        ("author_scores.tsv", "0.9\t0.05\t0.05", "0.9\t0.1\t0.05"),
        ("author_scores.tsv", "0.9\t0.05\t0.05", "inf\t0.05\t0.05"),
        ("author_scores.tsv", "0.9\t0.05\t0.05", "nan\t0.05\t0.05"),
        ("author_scores.tsv", "0.9\t0.05\t0.05", "x\t0.05\t0.05"),
        ("author_scores.tsv", "0.9\t0.05\t0.05", "1.5\t-0.5\t0.0"),
        ("author_scores.tsv", "0.05\t0.05\tP", "0.05\t0.05\tV"),
        ("author_scores.tsv", "0.05\t0.05\tP", "0.05\t0.05\tX"),
        ("author_scores.tsv", "norm2\t", "norm1\t"),
    ])
    def test_corrupt_stage_file_is_data_error(self, tmp_path, capsys, name,
                                              old, new):
        self.test_identify_fixture_enumeration(tmp_path)
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text.replace(old, new, 1))
        assert main(["identify", "--config", str(tmp_path / "run.cfg")]) == 2
        assert name in capsys.readouterr().err

    def test_rerunning_identify_is_byte_identical(self, tmp_path):
        self.test_identify_fixture_enumeration(tmp_path)
        cfg_path = tmp_path / "run.cfg"
        first = (tmp_path / "predators.txt").read_bytes()
        first_report = (tmp_path / "report.txt").read_bytes()
        assert main(["identify", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "predators.txt").read_bytes() == first
        assert (tmp_path / "report.txt").read_bytes() == first_report


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small synth + pipeline run to copy from."""
    out = tmp_path_factory.mktemp("small")
    cfg_path = write_config(out / "run.cfg", out)
    assert main(["synth", "--config", str(cfg_path)]) == 0
    assert main(["pipeline", "--config", str(cfg_path)]) == 0
    return out


def copy_run(small_run, tmp_path, **overrides):
    out = tmp_path / "run"
    shutil.copytree(small_run, out)
    return out, write_config(tmp_path / "copy.cfg", out, **overrides)


STAGE_WRITES = {pipeline.command_name(fn): writes
                for fn, writes in pipeline.STAGES}
# every stage after preprocess reads normalized.xml
NORMALIZED_READERS = list(STAGE_WRITES)[1:]
# the model class each container file must hold, and the stages that
# load it
CONTAINER_KINDS = {"lm.model": "LanguageModel", "vectors.bin": "VectorBundle",
                   "scd.model": "ScdModel", "author.model": "ShallowModel"}
CONTAINER_READS = [("eval-lm", "lm.model"), ("vectorize", "lm.model"),
                   ("train-scd", "vectors.bin"), ("eval-scd", "scd.model"),
                   ("eval-scd", "vectors.bin"),
                   ("score-authors", "author.model")]


class TestStageFiles:
    def test_config_with_byte_order_mark_runs(self, small_run, tmp_path):
        # as the ground-truth and rules files do, a config file drops a
        # leading UTF-8 byte-order mark
        out, cfg_path = copy_run(small_run, tmp_path)
        bom_path = tmp_path / "bom.cfg"
        bom_path.write_bytes(b"\xef\xbb\xbf" + cfg_path.read_bytes())
        assert load_config(bom_path) == load_config(cfg_path)
        vocab = (out / "vocab.txt").read_bytes()
        assert main(["build-vocab", "--config", str(bom_path)]) == 0
        assert (out / "vocab.txt").read_bytes() == vocab

    @pytest.mark.parametrize("name", ["scd_verdicts.tsv",
                                      "author_scores.tsv"])
    def test_truncated_file_is_data_error(self, small_run, tmp_path, capsys,
                                          name):
        out, cfg_path = copy_run(small_run, tmp_path)
        whole = (out / name).read_bytes()
        lines = whole.splitlines(keepends=True)
        head = b"".join(lines[:len(lines) // 2])
        cut_line = lines[len(lines) // 2]
        tab = cut_line.index(b"\t")
        # on a line boundary, inside the first field, inside the second
        for data in (head, head + cut_line[:tab // 2],
                     head + cut_line[:tab + 3]):
            (out / name).write_bytes(data)
            assert main(["identify", "--config", str(cfg_path)]) == 2
            assert name in capsys.readouterr().err
        (out / name).write_bytes(whole)
        assert main(["identify", "--config", str(cfg_path)]) == 0
        assert (out / "predators.txt").read_bytes() == \
            (small_run / "predators.txt").read_bytes()

    @pytest.mark.parametrize("file,name,dims,stage", [
        ("lm.model", "layer1.U", lambda rows, cols: (rows // 2, cols * 2),
         "vectorize"),
        ("lm.model", "out_w", lambda rows, cols: (cols, rows), "vectorize"),
        ("vectors.bin", "conv0", lambda rows, cols: (rows * 2, cols // 2),
         "train-scd"),
        ("vectors.bin", "conv0", lambda rows, cols: (rows * 2, cols // 2),
         "eval-scd"),
    ], ids=["layer1.U", "out_w", "conv0-train-scd", "conv0-eval-scd"])
    def test_misshapen_container_tensor_is_data_error(self, small_run,
                                                      tmp_path, capsys, file,
                                                      name, dims, stage):
        # the same element count, so payload and checksum still fit
        out, cfg_path = copy_run(small_run, tmp_path)
        raw = (out / file).read_bytes()
        end = 20 + int.from_bytes(raw[12:20], "little")
        lines = raw[20:end].decode("utf-8").split("\n")
        for k, line in enumerate(lines):
            fields = line.split("\t")
            if fields[:2] == ["tensor", name]:
                new = dims(*map(int, fields[3].split(",")))
                fields[3] = ",".join(map(str, new))
                lines[k] = "\t".join(fields)
        manifest = "\n".join(lines).encode("utf-8")
        assert manifest != raw[20:end]
        (out / file).write_bytes(
            raw[:12] + len(manifest).to_bytes(8, "little") + manifest
            + raw[end:])
        assert main([stage, "--config", str(cfg_path)]) == 2
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("file,key,stage", [
        ("scd.model", "masked", "eval-scd"),
        ("author.model", "bigrams", "score-authors"),
    ])
    @pytest.mark.parametrize("value", [b"0", b"x", b"2", None])
    def test_setting_not_1_is_data_error(
            self, small_run, tmp_path, capsys, file, key, stage, value):
        # the manifest is outside the checksum; the same length keeps the
        # header's manifest length right
        out, cfg_path = copy_run(small_run, tmp_path)
        raw = (out / file).read_bytes()
        line = b"meta\t%s\t1\n" % key.encode()
        assert raw.count(line) == 1
        if value is None:      # the setting missing
            new = b"meta\t%s\t1\n" % (b"z" * len(key))
        else:
            new = line[:-2] + value + b"\n"
        assert len(new) == len(line)
        (out / file).write_bytes(raw.replace(line, new))
        assert main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert file in err and key in err

    def test_unigram_only_author_model_is_data_error(self, small_run,
                                                      tmp_path, capsys):
        # scored with bigram features, it used to give wrong scores, exit 0
        out, cfg_path = copy_run(small_run, tmp_path)
        raw = (out / "author.model").read_bytes()
        line = b"meta\tbigrams\t1\n"
        assert raw.count(line) == 1
        (out / "author.model").write_bytes(
            raw.replace(line, b"meta\tbigrams\t0\n"))
        assert main(["score-authors", "--config", str(cfg_path)]) == 2
        assert "bigrams" in capsys.readouterr().err
        assert (out / "author_scores.tsv").read_bytes() == \
            (small_run / "author_scores.tsv").read_bytes()

    def test_per_gate_lstm_layout_is_data_error(self, small_run, tmp_path,
                                                capsys):
        # the layout before the fused layerK.{U,W,b}: layerK.Ui ... bg
        out, cfg_path = copy_run(small_run, tmp_path)
        container = read_container(out / "scd.model")
        tensors = {}
        for name, tensor in container.tensors.items():
            if name.startswith("layer"):
                prefix, side = name.split(".")
                tensors.update((f"{prefix}.{side}{gate}", block)
                               for gate, block in zip(
                                   "ifog", np.split(tensor, 4, axis=-1)))
            else:
                tensors[name] = tensor
        container.tensors = tensors
        write_container(container, out / "scd.model")
        assert main(["eval-scd", "--config", str(cfg_path)]) == 2
        assert "layer1.U" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["masked", "head_w"])
    def test_invalid_model_names_its_file(self, small_run, tmp_path, capsys,
                                          fault):
        # checksummed and well-formed, but not a valid scd_classifier
        out, cfg_path = copy_run(small_run, tmp_path)
        container = read_container(out / "scd.model")
        if fault == "masked":
            container.metas["masked"] = "2"
        else:
            container.tensors["head_w"] = container.tensors["head_w"][:-1]
        write_container(container, out / "scd.model")
        assert main(["eval-scd", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'scd.model'}: ") and fault in err
        assert (out / "scd_verdicts.tsv").read_bytes() == \
            (small_run / "scd_verdicts.tsv").read_bytes()

    def test_vector_width_not_the_models_is_data_error(self, small_run,
                                                        tmp_path, capsys):
        # well-formed vectors whose width scd.model does not take
        out, cfg_path = copy_run(small_run, tmp_path)
        bundle = load(out / "vectors.bin")
        save(VectorBundle(bundle.conversation_ids,
                          [m[:, :-1].copy() for m in bundle.matrices]),
             out / "vectors.bin")
        assert main(["eval-scd", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "vectors.bin" in err and "scd.model" in err

    @pytest.mark.parametrize("stage", ["train-scd", "eval-scd"])
    @pytest.mark.parametrize("stale", ["corpus-subset", "dropped", "repeated",
                                       "no-rows"])
    def test_vectors_not_of_normalized_xml_are_data_error(
            self, small_run, tmp_path, capsys, stage, stale):
        out, cfg_path = copy_run(small_run, tmp_path)
        bundle = load(out / "vectors.bin")
        ids, matrices = bundle.conversation_ids, bundle.matrices
        if stale == "corpus-subset":
            # preprocess rerun on fewer conversations, vectorize not rerun
            conversations = corpus_io.parse_pan_corpus(
                out / "normalized.xml").conversations
            (out / "normalized.xml").write_bytes(
                corpus_io.write_pan_corpus(conversations[:-3]))
        elif stale == "dropped":
            save(VectorBundle(ids[:-1], matrices[:-1]), out / "vectors.bin")
        elif stale == "repeated":
            save(VectorBundle(ids + ids[:1], matrices + matrices[:1]),
                 out / "vectors.bin")
        else:
            save(VectorBundle(ids, [matrices[0][:0]] + matrices[1:]),
                 out / "vectors.bin")
        assert main([stage, "--config", str(cfg_path)]) == 2
        assert "vectors.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new", [
        (b"#min_tf=2", b"#min_tf=2x"),
        (b"<unk>\n", b"<unk>\n\n"),
        (b"<unk>\n", b"<unk>\n<unk>\n"),
        (b"<pad>\n", b""),
        (b"<eos>", b"<\xffeos>"),
    ], ids=["header", "blank", "repeated", "reserved", "utf8"])
    def test_corrupt_vocab_is_data_error(self, small_run, tmp_path, capsys,
                                         old, new):
        out, cfg_path = copy_run(small_run, tmp_path)
        whole = (out / "vocab.txt").read_bytes()
        assert old in whole
        (out / "vocab.txt").write_bytes(whole.replace(old, new, 1))
        assert main(["train-lm", "--config", str(cfg_path)]) == 2
        assert "vocab.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["preprocess", "train-scd", "eval-scd",
                                       "train-author", "identify"])
    def test_non_utf8_ground_truth_is_data_error(self, small_run, tmp_path,
                                                 capsys, stage):
        out, cfg_path = copy_run(small_run, tmp_path)
        truth = out / "truth.txt"
        truth.write_bytes(truth.read_bytes() + b"caf\xe9\n")
        assert main([stage, "--config", str(cfg_path)]) == 2
        assert "truth.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ["no-messages", "whitespace-text",
                                       "no-author", "no-conversations"])
    @pytest.mark.parametrize("stage", NORMALIZED_READERS)
    def test_normalized_xml_preprocess_cannot_write_is_data_error(
            self, small_run, tmp_path, capsys, stage, fault):
        out, cfg_path = copy_run(small_run, tmp_path)
        conversations = corpus_io.parse_pan_corpus(
            out / "normalized.xml").conversations
        conv = conversations[1]
        if fault == "no-messages":
            conv.messages = []
        elif fault == "whitespace-text":
            conv.messages[-1].text = " \t\u00a0 "
        data = corpus_io.write_pan_corpus(
            [] if fault == "no-conversations" else conversations)
        if fault == "no-author":
            start = data.index(b'<conversation id="%s">' % conv.id.encode())
            data = data[:start] + re.sub(rb"\s*<author>[^<]*</author>", b"",
                                         data[start:], count=1)
        (out / "normalized.xml").write_bytes(data)
        writes = STAGE_WRITES[stage]
        for name in writes:
            (out / name).unlink()
        listing = sorted(os.listdir(out))
        assert main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "normalized.xml" in err
        assert ("no conversations" if fault == "no-conversations"
                else repr(conv.id)) in err
        assert sorted(os.listdir(out)) == listing

    def test_every_stage_accepts_what_preprocess_writes(self, small_run,
                                                         tmp_path, capsys):
        # messages that normalize away, a conversation left without any,
        # and a message the parser skips
        out, cfg_path = copy_run(small_run, tmp_path)
        conversations = corpus_io.parse_pan_corpus(
            out / "corpus.xml").conversations
        dropped = [":) :-(", " \t ", "\u00e9\u00e8 \u65e5\u672c", "xD <3"]
        first = conversations[0]
        first.messages += [
            corpus_io.Message(first.messages[0].author, 900 + i, "00:00", t)
            for i, t in enumerate(dropped)]
        conversations.append(corpus_io.Conversation("all-dropped", [
            corpus_io.Message("ghost", i + 1, "00:00", t)
            for i, t in enumerate(dropped)]))
        data = corpus_io.write_pan_corpus(conversations).replace(
            b"</conversation>", b'<message line="999"><time>00:00</time>'
            b"<text>no author</text></message></conversation>", 1)
        (out / "corpus.xml").write_bytes(data)
        # preprocess, then the nine stages that read normalized.xml
        assert main(["pipeline", "--config", str(cfg_path)]) == 0
        assert "skipped 1 malformed message" in capsys.readouterr().out
        kept = corpus_io.parse_pan_corpus(out / "normalized.xml")
        assert [c.id for c in kept.conversations] == \
            [c.id for c in conversations[:-1]]
        assert len(kept.conversations[0].messages) == \
            len(first.messages) - len(dropped)

    @pytest.mark.parametrize("stage,file,foreign", [
        (stage, file, foreign) for stage, file in CONTAINER_READS
        for foreign in CONTAINER_KINDS if foreign != file])
    def test_container_of_another_kind_is_data_error(
            self, small_run, tmp_path, capsys, stage, file, foreign):
        out, cfg_path = copy_run(small_run, tmp_path)
        shutil.copyfile(out / foreign, out / file)
        before = {name: (out / name).read_bytes()
                  for name in STAGE_WRITES[stage]}
        assert main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(out / file) in err
        assert CONTAINER_KINDS[foreign] in err and \
            CONTAINER_KINDS[file] in err
        assert {name: (out / name).read_bytes() for name in before} == before

    def test_vectorize_encodes_each_distinct_message_once(self, small_run,
                                                           tmp_path,
                                                           monkeypatch):
        out, cfg_path = copy_run(small_run, tmp_path)
        conversations = corpus_io.parse_pan_corpus(
            out / "normalized.xml").conversations
        texts = [m.text for conv in conversations for m in conv.messages]
        assert len(set(texts)) < len(texts)   # the corpus repeats messages
        one_message = scd_classifier.sentence_vector
        calls = []

        def counting(lm, tokens):
            calls.append(tokens)
            return one_message(lm, tokens)

        monkeypatch.setattr(scd_classifier, "sentence_vector", counting)
        assert main(["vectorize", "--config", str(cfg_path)]) == 0
        assert len(calls) == len(set(texts))
        # the same bytes as one encoding per message
        lm = load(out / "lm.model")
        save(VectorBundle(
            [conv.id for conv in conversations],
            [np.stack([one_message(lm, tokenize(m.text))
                       for m in conv.messages])
             for conv in conversations]),
            tmp_path / "per_message.bin")
        assert (out / "vectors.bin").read_bytes() == \
            (tmp_path / "per_message.bin").read_bytes()

    def test_eval_scd_flags_a_maximum_at_the_threshold(self, small_run,
                                                        tmp_path):
        # positive iff a conversation's highest chunk probability reaches
        # the threshold: at its exact value, and not one float above it
        out, cfg_path = copy_run(small_run, tmp_path)
        cfg = load_config(cfg_path)
        model = load(out / "scd.model")
        sequences = pipeline._labeled_sequences(cfg, model.input_dim)
        max_probs = scd_classifier.predict_scd(model, sequences,
                                               cfg.scd_chunk_len)
        conv_id, max_prob = sequences[0].conversation_id, max_probs[0]
        for threshold, verdict in [(max_prob, "positive"),
                                   (np.nextafter(max_prob, 1), "negative")]:
            cfg_path = write_config(tmp_path / "t.cfg", out,
                                    scd={"threshold": repr(float(threshold))})
            assert main(["eval-scd", "--config", str(cfg_path)]) == 0
            rows = dict(line.split("\t", 1) for line in
                        (out / "scd_verdicts.tsv").read_text().splitlines())
            assert rows[conv_id].endswith("\t" + verdict)

    def test_unlabeled_stages_run_without_ground_truth(self, small_run,
                                                       tmp_path):
        out, cfg_path = copy_run(small_run, tmp_path,
                                 paths={"ground_truth": ""})
        for cmd in ["build-vocab", "train-lm", "eval-lm", "vectorize",
                    "score-authors"]:
            assert main([cmd, "--config", str(cfg_path)]) == 0, cmd
        for name in ["vocab.txt", "lm.model", "lm_train.log", "eval_lm.txt",
                     "vectors.bin", "author_scores.tsv"]:
            assert (out / name).read_bytes() == \
                (small_run / name).read_bytes(), name
        for cmd in ["preprocess", "train-scd", "eval-scd", "train-author",
                    "identify"]:
            assert main([cmd, "--config", str(cfg_path)]) == 1, cmd

    @pytest.mark.parametrize("stage", ["train-scd", "eval-scd"])
    def test_vectors_of_a_message_since_dropped_are_data_error(
            self, small_run, tmp_path, capsys, stage):
        # preprocess rerun on a corpus that lost one message of one
        # conversation, vectorize not rerun: same ids, one row too many
        out, cfg_path = copy_run(small_run, tmp_path)
        conversations = corpus_io.parse_pan_corpus(
            out / "normalized.xml").conversations
        conv = next(c for c in conversations if len(c.messages) > 1)
        n_messages = len(conv.messages)
        del conv.messages[-1]
        (out / "normalized.xml").write_bytes(
            corpus_io.write_pan_corpus(conversations))
        before = {name: (out / name).read_bytes()
                  for name in STAGE_WRITES[stage]}
        assert main([stage, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(out / "vectors.bin") in err and repr(conv.id) in err
        assert f"{n_messages} rows, but {n_messages - 1} messages" in err
        assert {name: (out / name).read_bytes() for name in before} == before

    @pytest.mark.parametrize("corpus", ["no-conversation", "all-filtered"])
    def test_preprocess_refuses_a_corpus_with_nothing_left(
            self, small_run, tmp_path, capsys, corpus):
        # an empty corpus would give an empty normalized.xml, which every
        # later stage refuses; preprocess refuses it before writing, so
        # the files of an earlier run stay as they are
        out, cfg_path = copy_run(small_run, tmp_path)
        conversations = [] if corpus == "no-conversation" else [
            corpus_io.Conversation("c1", [
                corpus_io.Message("a", 1, "00:00", ":) :-(")])]
        (out / "corpus.xml").write_bytes(
            corpus_io.write_pan_corpus(conversations))
        (out / "truth.txt").write_text("")
        stamps = {p.name: p.stat().st_mtime_ns for p in out.iterdir()}
        assert main(["preprocess", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert str(out / "corpus.xml") in err
        assert f"{len(conversations)} conversation(s) before filtering" in err
        assert {p.name: p.stat().st_mtime_ns for p in out.iterdir()} == \
            stamps


ARTIFACTS = ["normalized.xml", "filter_report.txt", "vocab.txt", "lm.model",
             "lm_train.log", "eval_lm.txt", "vectors.bin", "scd.model",
             "scd_train.log", "scd_verdicts.tsv", "scd_metrics.txt",
             "author.model", "author_train.log", "author_scores.tsv",
             "predators.txt", "report.txt"]


class TestStageTable:
    def test_each_stage_writes_exactly_its_files(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg_path = write_config(tmp_path / "run.cfg", out)
        assert main(["synth", "--config", str(cfg_path)]) == 0

        def contents():
            return {p.name: p.read_bytes() for p in out.iterdir()}

        for fn, writes in pipeline.STAGES:
            stage = pipeline.command_name(fn)
            before = contents()
            assert main([stage, "--config", str(cfg_path)]) == 0, stage
            after = contents()
            assert before.keys() <= after.keys(), stage
            changed = {name for name in after
                       if before.get(name) != after[name]}
            assert changed == set(writes), stage
        assert sorted(name for _fn, writes in pipeline.STAGES
                      for name in writes) == sorted(ARTIFACTS)

    def test_readme_cli_table_matches_stages(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        table = readme.split("| subcommand | reads | writes |\n")[1]
        rows = []
        for line in table.split("\n\n")[0].splitlines()[1:]:
            command, _reads, writes = line.strip("|").split("|")
            rows.append((command.strip().strip("`"),
                         set(re.findall(r"`([^`]+)`", writes))))
        assert [row for row in rows
                if row[0] not in ("synth", "pipeline")] == [
            (pipeline.command_name(fn), set(writes))
            for fn, writes in pipeline.STAGES]


class TestPipeline:
    def _run(self, tmp_path, name, seed=77, **overrides):
        out = tmp_path / name
        out.mkdir()
        overrides.setdefault("run", {})["seed"] = seed
        cfg_path = write_config(tmp_path / f"{name}.cfg", out, **overrides)
        args = ["--config", str(cfg_path)]
        assert main(["synth"] + args) == 0
        assert main(["pipeline"] + args) == 0
        return out

    def test_pipeline_produces_all_artifacts(self, tmp_path):
        out = self._run(tmp_path, "one")
        for name in ARTIFACTS:
            assert (out / name).exists(), name

    def test_identical_seeds_byte_identical_outputs(self, tmp_path):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        for name in ARTIFACTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_stagewise_equals_pipeline(self, tmp_path):
        # every command in its own process, so the stages share no state
        src = str(Path(pipeline.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))

        def cli(cmd, cfg_path):
            done = subprocess.run([sys.executable, "-m", "chatscreen.cli",
                                   cmd, "--config", str(cfg_path)], env=env,
                                  capture_output=True, text=True)
            assert done.returncode == 0, (cmd, done.stderr)

        runs = {}
        for name, commands in [
                ("whole", ["pipeline"]),
                ("stages", ["preprocess", "build-vocab", "train-lm",
                            "eval-lm", "vectorize", "train-scd", "eval-scd",
                            "train-author", "score-authors", "identify"])]:
            runs[name] = tmp_path / name
            runs[name].mkdir()
            cfg_path = write_config(tmp_path / f"{name}.cfg", runs[name])
            for cmd in ["synth"] + commands:
                cli(cmd, cfg_path)
        for name in ARTIFACTS:
            assert (runs["whole"] / name).read_bytes() == \
                (runs["stages"] / name).read_bytes(), name

    def test_outputs_have_the_plain_write_mode(self, tmp_path):
        old = os.umask(0o022)
        try:
            out = self._run(tmp_path, "modes")
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert sorted(modes) == sorted(ARTIFACTS + ["corpus.xml",
                                                    "truth.txt"])
        assert set(modes.values()) == {0o644}, modes

    def test_divergence_check_and_eval_lm_make_one_pass(self, tmp_path,
                                                        monkeypatch):
        score = pipeline.perplexity
        results = []

        def recording(model, documents):
            results.append(score(model, documents))
            return results[-1]

        monkeypatch.setattr(pipeline, "perplexity", recording)
        self._run(tmp_path, "one-pass")
        assert len(results) == 2    # train-lm's check, then eval-lm
        assert results[0] == results[1]

    def test_normalized_xml_parsed_once_per_process(self, tmp_path,
                                                    monkeypatch):
        parse = corpus_io.parse_pan_corpus
        calls = []

        def counting(source):
            calls.append(source)
            return parse(source)

        monkeypatch.setattr(corpus_io, "parse_pan_corpus", counting)
        pipeline._parse_normalized.cache_clear()
        out = self._run(tmp_path, "once")
        assert len(calls) == 2      # the corpus, then normalized.xml
        # a rewritten normalized.xml is parsed afresh, then reused
        vocab = (out / "vocab.txt").read_bytes()
        normalized = out / "normalized.xml"
        normalized.write_bytes(corpus_io.write_pan_corpus(
            parse(normalized).conversations[:1]))
        cfg_path = str(tmp_path / "once.cfg")
        assert main(["build-vocab", "--config", cfg_path]) == 0
        assert len(calls) == 3
        assert (out / "vocab.txt").read_bytes() != vocab
        assert main(["eval-lm", "--config", cfg_path]) == 0
        assert len(calls) == 3
