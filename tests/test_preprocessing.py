import math

import pytest

from chatscreen import pipeline
from chatscreen.config import PipelineConfig
from chatscreen.errors import DataFormatError, UsageError
from chatscreen.preprocessing import (LONG_WORD_LIMIT, RESERVED_TOKENS,
                                      Vocabulary, _normalize_token,
                                      build_vocabulary, default_rules,
                                      encode, load_abbreviations,
                                      load_emoticon_patterns, normalize_text,
                                      tokenize, vocab_from_text,
                                      vocab_to_text)

from norm_fixtures import NORMALIZATION_FIXTURES


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", NORMALIZATION_FIXTURES)
    def test_fixture(self, raw, expected):
        assert normalize_text(raw) == expected

    @pytest.mark.parametrize("raw,_expected", NORMALIZATION_FIXTURES)
    def test_idempotent(self, raw, _expected):
        once = normalize_text(raw)
        assert normalize_text(once) == once

    def test_output_is_ascii(self):
        junk = "mañana ☃ café :) 99 b4"
        out = normalize_text(junk)
        assert out == out.encode("ascii", "ignore").decode("ascii")

    def test_rules_load_from_package_data(self):
        rules = default_rules()
        assert rules.abbreviation_map["ur"] == "your"
        assert rules.emoticon_patterns
        assert LONG_WORD_LIMIT == 30


class TestRulesFiles:
    @pytest.mark.parametrize("load,text", [
        (load_abbreviations, "brb\tbe right back\nidk\ti do not know\n"),
        (load_emoticon_patterns, ":\\)+\n# a comment\n<3\n"),
    ], ids=["abbreviations", "emoticons"])
    def test_byte_order_mark_dropped(self, tmp_path, load, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert load(marked) == load(plain)

    def test_marked_abbreviations_apply_to_their_first_entry(self, tmp_path):
        table = tmp_path / "abbr.tsv"
        table.write_text("\ufeffbrb\tbe right back\nidk\ti do not know\n",
                         encoding="utf-8")
        rules = pipeline._rules(PipelineConfig(abbreviations=str(table)))
        assert normalize_text("brb idk", rules) == \
            "be right back i do not know"


# One message per noise kind of the screening benchmark
# (benchmarks/README.md), with its normalized form.
NOISE_KINDS = {
    "emoticon": ("see you xD ^_^ <3 :-)", "see you"),
    "url": ("go to https://chat.example.org/room?id=42 or "
            "http://example.com/a7", "go to 00URL or 00URL"),
    "number": ("i am 42 and 3.5 not -7", "i am 00NUM and 00NUM not 00NUM"),
    "elongation": ("babaaaa nooooo wayyy", "baba no way"),
    "abbreviation": ("u r gr8 plz thx b4 l8r",
                     "you are great please thanks before later"),
    "non-ascii": ("caf\u00e9 na\u00efve \u65e5\u672c \u00bf\u00bf "
                  "\u2603 ok", "caf nave ok"),
    "extra words": (" ".join(f"word{i}" for i in range(45)),
                    " ".join(f"word{i}" for i in range(45))),
    "stock line": ("u there?", "you there?"),
    "stock emoticon": (":)", ""),
}


class TestTokenCache:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_cached_equals_uncached_per_token_rules(self, kind):
        rules = default_rules()
        raw, expected = NOISE_KINDS[kind]
        assert normalize_text(raw, rules) == expected      # filling
        tokens = raw.encode("ascii", "ignore").decode("ascii").split()
        assert set(tokens) <= set(rules.token_cache)
        for other, _ in NOISE_KINDS.values():
            normalize_text(other, rules)
        assert normalize_text(raw, rules) == expected      # cache only
        for token, piece in rules.token_cache.items():
            assert piece == _normalize_token(token, default_rules())

    def test_override_rule_set_ignores_the_packaged_cache(self, tmp_path):
        packaged = pipeline._rules(PipelineConfig())
        assert normalize_text("u ok", packaged) == "you ok"
        assert packaged.token_cache["u"] == "you"
        table = tmp_path / "abbr.tsv"
        table.write_text("u\tunicorn\n", encoding="utf-8")
        rules = pipeline._rules(PipelineConfig(abbreviations=str(table)))
        assert normalize_text("u ok", rules) == "unicorn ok"
        assert normalize_text("u ok", packaged) == "you ok"

    def test_no_cache_outlives_its_rule_set(self):
        # each stage call, and each call without rules, gets its own set
        assert normalize_text("u ok") == "you ok"
        for rules in (default_rules(), pipeline._rules(PipelineConfig())):
            assert rules.token_cache == {}


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_split_off(self):
        assert tokenize("hello, world") == ["hello", ",", "world"]

    def test_placeholder_keeps_suffix_separate(self):
        assert tokenize("00NUM?") == ["00NUM", "?"]

    def test_deterministic(self):
        text = "a-b c.d! e"
        assert tokenize(text) == tokenize(text)


class TestBuildVocabulary:
    def test_below_min_tf_excluded(self):
        docs = [["rare"] * 9 + ["common"] * 10]
        vocab = build_vocabulary(docs, min_tf=10)
        assert "common" in vocab.index_of
        assert "rare" not in vocab.index_of

    def test_min_tf_one_keeps_everything(self):
        vocab = build_vocabulary([["a", "a", "b"]], min_tf=1)
        assert "a" in vocab.index_of and "b" in vocab.index_of

    def test_zero_idf_ranks_below_positive_weight(self):
        # "everywhere" occurs in all 3 documents: idf = ln(3/3) = 0
        docs = [["everywhere", "focused", "focused"],
                ["everywhere"], ["everywhere"]]
        vocab = build_vocabulary(docs, min_tf=1)
        assert vocab.index_of["focused"] < vocab.index_of["everywhere"]

    def test_reserved_symbols_always_present(self):
        vocab = build_vocabulary([["x"] * 12], min_tf=10)
        for i, token in enumerate(RESERVED_TOKENS):
            assert vocab.tokens[i] == token
        assert vocab.index_of["<pad>"] == 0
        assert vocab.index_of["<unk>"] == Vocabulary.UNK == 1
        assert vocab.index_of["<eos>"] == Vocabulary.EOS == 2

    def test_ordering_is_total_and_reproducible(self):
        docs = [["b", "a", "b", "a"], ["c", "a"], ["d"] * 3]
        v1 = build_vocabulary(docs, min_tf=1)
        v2 = build_vocabulary(list(docs), min_tf=1)
        assert v1.tokens == v2.tokens
        # equal weights break ties lexicographically
        weights = {}
        for t in v1.tokens[len(RESERVED_TOKENS):]:
            tf = sum(d.count(t) for d in docs)
            df = sum(t in d for d in docs)
            weights[t] = tf * math.log(len(docs) / df)
        ordered = v1.tokens[len(RESERVED_TOKENS):]
        for first, second in zip(ordered, ordered[1:]):
            assert (weights[first], second) >= (weights[second], first)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([["a", "a", "b"]], min_tf=1)

    def test_empty_gives_eos_only(self, vocab):
        assert encode([], vocab, 10) == [Vocabulary.EOS]

    def test_unknown_maps_to_unk(self, vocab):
        assert encode(["zzz"], vocab, 10) == [Vocabulary.UNK, Vocabulary.EOS]

    def test_truncation_drops_eos(self, vocab):
        ids = encode(["a"] * 60, vocab, 50)
        assert len(ids) == 50
        assert ids[-1] == vocab.index_of["a"]

    def test_length_bounds(self, vocab):
        for n in (0, 1, 5, 49, 50, 51):
            ids = encode(["a"] * n, vocab, 50)
            assert 1 <= len(ids) <= 50


class TestVocabularyRoundTrip:
    def test_lines_round_trip(self):
        vocab = build_vocabulary([["a", "a", "b", "c", "c", "c"]], min_tf=2)
        text = vocab_to_text(vocab)
        assert text == "#min_tf=2\n" + "".join(f"{t}\n" for t in vocab.tokens)
        again = vocab_from_text(text)
        assert again.tokens == vocab.tokens
        assert again.min_term_frequency == vocab.min_term_frequency

    @pytest.mark.parametrize("old,new", [
        ("#min_tf=2\n", ""),             # header missing
        ("#min_tf=2", "#min_tf=2x"),     # header not a positive integer
        ("#min_tf=2", "#min_tf=0"),
        ("a\nc\n", "a\nc"),             # cut inside the last line
        ("c\n", "c\n\n"),                # blank token line
        ("c\n", "c\nc\n"),               # repeated token
        ("<pad>\n", ""),                 # reserved prefix missing
    ])
    def test_strict_reader_rejects(self, old, new):
        vocab = build_vocabulary([["a", "a", "b", "c", "c", "c"]], min_tf=2)
        text = vocab_to_text(vocab)
        assert old in text
        with pytest.raises(DataFormatError):
            vocab_from_text(text.replace(old, new, 1))

    def test_reserved_prefix_enforced(self):
        with pytest.raises(UsageError):
            Vocabulary(["a", "b"], min_term_frequency=1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(UsageError):
            Vocabulary(list(RESERVED_TOKENS) + ["a", "a"],
                       min_term_frequency=1)
