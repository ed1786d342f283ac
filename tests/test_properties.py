"""Property tests: normalization is idempotent, and each text artifact
reads back as what was written."""

from xml.sax.saxutils import escape, quoteattr

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from chatscreen.corpus_io import (Conversation, Message,  # noqa: E402
                                  _xml_attr, _xml_text, parse_ground_truth,
                                  parse_pan_corpus, write_ground_truth,
                                  write_pan_corpus)
from chatscreen.errors import DataFormatError  # noqa: E402
from chatscreen.preprocessing import (RESERVED_TOKENS,  # noqa: E402
                                      Vocabulary, normalize_text,
                                      vocab_from_text, vocab_to_text)

# The characters XML 1.0 allows in a document.
xml_char = st.one_of(
    st.sampled_from("\t\n\r"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF))
xml_text = st.text(xml_char)


@settings(max_examples=500)
@given(st.text())
@example("C8")      # lowercased into an emoticon
@example("}O=")
@example("C888")    # lowercased and collapsed into one
def test_normalize_text_is_idempotent(raw):
    once = normalize_text(raw)
    assert normalize_text(once) == once


@given(st.lists(st.text(st.characters(blacklist_characters="\n"), min_size=1)
                .filter(lambda t: t not in RESERVED_TOKENS), unique=True),
       st.integers(min_value=1, max_value=10 ** 6))
def test_vocab_text_round_trip(tokens, min_tf):
    vocab = Vocabulary(list(RESERVED_TOKENS) + tokens,
                       min_term_frequency=min_tf)
    assert vocab_from_text(vocab_to_text(vocab)) == vocab


# Ids and authors as the corpus reader yields them: with no tab or line
# break (of these, U+0085, U+2028 and U+2029 end a line too), which one
# line of author_scores.tsv, scd_verdicts.tsv or the vectors container's
# string table could not carry; authors trimmed and non-empty as well.
# Both are built without rejection filters, which Hypothesis's health
# check can fail on.
field_char = st.one_of(
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF,
                  blacklist_characters="\x85\u2028\u2029"),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF))
ids = st.text(field_char)
# An author's non-space head keeps it non-empty once stripped; of the XML
# characters, str.strip removes U+0085 and those of the Z categories.
non_space = st.characters(min_codepoint=0x21, max_codepoint=0x10FFFF,
                          blacklist_categories=("Cs", "Zs", "Zl", "Zp"),
                          blacklist_characters="\x85\ufffe\uffff")
authors = st.builds(lambda head, tail: (head + tail).strip(), non_space, ids)
messages = st.builds(Message, author=authors,
                     line_no=st.integers(min_value=1, max_value=10 ** 9),
                     time=xml_text, text=xml_text)


@given(st.lists(st.builds(Conversation, id=ids,
                          messages=st.lists(messages, max_size=4)),
                max_size=4, unique_by=lambda c: c.id))
@example([Conversation("c", [Message("a b", 1, "\r\n", "x\ry\r")])])
@example([Conversation("a\"b'c", []), Conversation("'", []),
          Conversation('"', [])])
def test_pan_corpus_round_trip(conversations):
    parsed = parse_pan_corpus(write_pan_corpus(conversations))
    assert parsed.skipped_messages == []
    assert parsed.conversations == conversations


# The escaping of write_pan_corpus is that of xml.sax.saxutils, written out
# so that the package does not import it (with urllib, http and ssl).
@settings(max_examples=500)
@given(st.text(st.one_of(st.sampled_from("&<>\"'\r\n\t"),
                         st.characters())))
@example("a\"b'c\r\n\t&amp;<>\u00e9\u2028")
def test_xml_escapes_match_saxutils(value):
    assert _xml_text(value) == escape(value, {"\r": "&#13;"})
    assert _xml_attr(value) == quoteattr(value)


@given(st.sets(xml_text, max_size=6))
@example({"a\u2028b", "c\x85d", "e\x1cf"})   # str.splitlines would split these
@example({"a\rb"})
@example({"\ufeff"})   # parse_ground_truth drops one leading byte-order mark
def test_ground_truth_round_trip(tmp_path_factory, ids):
    path = tmp_path_factory.mktemp("truth") / "truth.txt"
    try:
        write_ground_truth(ids, path)
    except DataFormatError:
        # an id one line cannot carry: empty, padded, or with a CR or LF
        assert any(not a or a != a.strip() or "\r" in a or "\n" in a
                   for a in ids)
        return
    assert parse_ground_truth(path) == ids
