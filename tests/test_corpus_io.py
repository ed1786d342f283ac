import os
import subprocess
import sys

import pytest

import chatscreen
from chatscreen.corpus_io import (Conversation, Message, filter_corpus,
                                  has_token, label_conversations,
                                  parse_ground_truth, parse_pan_corpus,
                                  read_text, write_atomic,
                                  write_ground_truth, write_pan_corpus)
from chatscreen.errors import DataFormatError
from chatscreen.pipeline import _author_units
from chatscreen.preprocessing import tokenize

SMALL_XML = b"""<?xml version="1.0" encoding="UTF-8"?>
<conversations>
  <conversation id="conv-1">
    <message line="1">
      <author>alice</author>
      <time>02:31</time>
      <text>hello &amp; welcome</text>
    </message>
    <message line="2">
      <author>bob</author>
      <time>02:32</time>
      <text></text>
    </message>
  </conversation>
</conversations>
"""


class TestParsePanCorpus:
    def test_round_trips_exactly(self):
        first = parse_pan_corpus(SMALL_XML)
        assert first.skipped_messages == []
        rewritten = write_pan_corpus(first.conversations)
        second = parse_pan_corpus(rewritten)
        assert second.conversations == first.conversations
        conv = first.conversations[0]
        assert conv.id == "conv-1"
        assert [m.author for m in conv.messages] == ["alice", "bob"]
        assert conv.messages[0].text == "hello & welcome"
        assert conv.messages[1].text == ""  # empty text preserved

    def test_empty_conversations_element(self):
        result = parse_pan_corpus(b"<conversations></conversations>")
        assert result.conversations == []

    def test_message_without_author_skipped_and_counted(self):
        xml = b"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message></conversation>
          <conversation id="b"><message line="1">
            <time>1</time><text>orphan</text></message>
            <message line="2"><author>y</author><time>2</time>
            <text>ok</text></message></conversation>
          <conversation id="c"><message line="1"><author>z</author>
            <time>3</time><text>yo</text></message></conversation>
        </conversations>"""
        result = parse_pan_corpus(xml)
        assert len(result.conversations) == 3
        assert result.skipped_messages == ["conversation 'b', message line 1"]
        assert len(result.conversations[1].messages) == 1

    def test_malformed_xml_reports_byte_offset(self):
        bad = b"<conversations><conversation id='x'>"
        with pytest.raises(DataFormatError, match="byte offset"):
            parse_pan_corpus(bad)

    def test_bad_line_attribute_skipped(self):
        xml = b"""<conversations><conversation id="a">
          <message line="zero"><author>x</author><time>1</time>
          <text>hi</text></message></conversation></conversations>"""
        result = parse_pan_corpus(xml)
        assert result.skipped_messages == [
            "conversation 'a', message line zero"]

    def test_repeated_conversation_id_rejected(self):
        xml = b"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message></conversation>
          <conversation id="b"><message line="1"><author>y</author>
            <time>1</time><text>yo</text></message></conversation>
          <conversation id="a"><message line="1"><author>z</author>
            <time>1</time><text>hey</text></message></conversation>
        </conversations>"""
        with pytest.raises(DataFormatError, match="'a' appears twice"):
            parse_pan_corpus(xml)

    def test_conversation_without_id_rejected(self):
        xml = b"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message></conversation>
          <conversation><message line="1"><author>y</author>
            <time>1</time><text>yo</text></message></conversation>
        </conversations>"""
        with pytest.raises(DataFormatError, match="conversation 2 has no id"):
            parse_pan_corpus(xml)

    def test_nested_conversation_rejected_naming_the_outer(self):
        xml = b"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message>
            <conversation id="b"><message line="1"><author>y</author>
              <time>1</time><text>yo</text></message></conversation>
            <message line="2"><author>x</author>
            <time>2</time><text>again</text></message></conversation>
        </conversations>"""
        with pytest.raises(DataFormatError,
                           match="inside conversation 'a'"):
            parse_pan_corpus(xml)

    def test_message_outside_a_conversation_skipped_and_counted(self):
        xml = b"""<conversations>
          <message line="1"><author>x</author><time>1</time>
            <text>stray</text></message>
          <conversation id="a"><message line="1"><author>y</author>
            <time>1</time><text>hi</text></message></conversation>
          <message line="2"><author>z&#9;q</author><time>2</time>
            <text>stray too</text></message>
        </conversations>"""
        result = parse_pan_corpus(xml)
        assert [c.id for c in result.conversations] == ["a"]
        assert [m.text for m in result.conversations[0].messages] == ["hi"]
        assert result.skipped_messages == [
            "outside any conversation, message line 1",
            "outside any conversation, message line 2"]

    # author_scores.tsv could not carry these: its reader splits on tabs
    # and on every line boundary str.splitlines knows
    @pytest.mark.parametrize("inside", ["&#9;", "&#13;", "&#10;", "\u2028"])
    def test_author_with_tab_or_line_break_rejected(self, inside):
        xml = f"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message></conversation>
          <conversation id="b"><message line="1"><author> y{inside}z </author>
            <time>1</time><text>yo</text></message></conversation>
        </conversations>""".encode()
        with pytest.raises(DataFormatError, match="conversation 'b': author"):
            parse_pan_corpus(xml)

    # the vectors container's string table and scd_verdicts.tsv could not
    # carry these either
    @pytest.mark.parametrize("inside", ["&#9;", "&#13;", "&#10;", "\u2028"])
    def test_id_with_tab_or_line_break_rejected(self, inside):
        xml = f"""<conversations>
          <conversation id="a"><message line="1"><author>x</author>
            <time>1</time><text>hi</text></message></conversation>
          <conversation id="b{inside}c"><message line="1"><author>y</author>
            <time>1</time><text>yo</text></message></conversation>
        </conversations>""".encode()
        with pytest.raises(DataFormatError, match="conversation id 'b.+c' "
                                                  "holds a tab or line"):
            parse_pan_corpus(xml)

    def test_field_inside_another_field_rejected(self):
        # the inner <author> used to replace the message's author and text
        xml = b"""<conversations><conversation id="a">
          <message line="3"><author>x</author><time>1</time>
          <text>hello <author>y</author> there</text></message>
          </conversation></conversations>"""
        with pytest.raises(DataFormatError,
                           match="conversation 'a', message line 3: "
                                 "<author> opens inside <text>"):
            parse_pan_corpus(xml)

    @pytest.mark.parametrize("field", ["author", "time", "text"])
    def test_repeated_field_rejected(self, field):
        # the second one used to replace the first
        xml = f"""<conversations><conversation id="a">
          <message line="4"><author>x</author><time>1</time>
          <text>hi</text><{field}>y</{field}></message>
          </conversation></conversations>""".encode()
        with pytest.raises(DataFormatError,
                           match=f"conversation 'a', message line 4: "
                                 f"a second <{field}>"):
            parse_pan_corpus(xml)

    def test_message_inside_a_message_rejected(self):
        xml = b"""<conversations><conversation id="a">
          <message line="1"><author>x</author><time>1</time>
          <message line="2"><author>y</author><time>2</time>
          <text>inner</text></message><text>outer</text></message>
          </conversation></conversations>"""
        with pytest.raises(DataFormatError,
                           match="conversation 'a', message line 1: a "
                                 "<message> opens inside it"):
            parse_pan_corpus(xml)

    def test_nested_field_outside_a_conversation_rejected(self):
        xml = b"""<conversations><message line="2"><author>x<time>1</time>
          </author></message></conversations>"""
        with pytest.raises(DataFormatError,
                           match="outside any conversation, message line 2"):
            parse_pan_corpus(xml)

    def test_fields_outside_a_message_ignored(self):
        xml = b"""<conversations><conversation id="a"><author>z</author>
          <author>z</author><message line="1"><author>x</author>
          <time>1</time><text>hi</text></message><text>stray</text>
          </conversation></conversations>"""
        result = parse_pan_corpus(xml)
        assert result.skipped_messages == []
        assert result.conversations == [
            Conversation("a", [Message("x", 1, "1", "hi")])]

    @pytest.mark.parametrize("conv_id", ['a"b', "a'b", "a\"b'c", "'\"",
                                         "&<>", "&quot;"])
    def test_ids_with_quotes_round_trip(self, conv_id):
        convs = [Conversation(conv_id, [Message("x", 1, "t", "hi")])]
        assert parse_pan_corpus(write_pan_corpus(convs)).conversations \
            == convs

    def test_author_whitespace_stripped_at_the_ends(self):
        xml = b"""<conversations><conversation id="a"><message line="1">
          <author>&#9; x &#10;</author><time>1</time><text>hi</text>
          </message></conversation></conversations>"""
        assert parse_pan_corpus(xml).conversations[0].messages[0].author == "x"


class TestArtifactFiles:
    def test_write_replaces_bytes_and_returns_count(self, tmp_path):
        path = tmp_path / "a.txt"
        assert write_atomic(path, b"old") == 3
        assert write_atomic(path, "n\u00e9w\n") == 5
        assert path.read_bytes() == "n\u00e9w\n".encode("utf-8")
        assert os.listdir(tmp_path) == ["a.txt"]

    def test_failed_rename_keeps_old_bytes_and_no_temp_file(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "scd_metrics.txt"
        write_atomic(path, b"old artifact\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_atomic(path, b"new artifact\n")
        assert path.read_bytes() == b"old artifact\n"
        assert os.listdir(tmp_path) == ["scd_metrics.txt"]

    def test_plain_write_mode_replaces_an_older_mode(self, tmp_path):
        path = tmp_path / "lm.model"
        path.write_bytes(b"x")
        path.chmod(0o600)
        old = os.umask(0o022)
        try:
            write_atomic(path, b"y")
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == 0o644

    def test_non_utf8_text_names_the_file(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_bytes(b"abc\n\xff\n")
        with pytest.raises(DataFormatError, match="truth.txt"):
            read_text(path)
        with pytest.raises(DataFormatError, match="truth.txt"):
            parse_ground_truth(path)


def truth_file(tmp_path, data: bytes):
    path = tmp_path / "truth.txt"
    path.write_bytes(data)
    return path


class TestGroundTruth:
    def test_dedupe_and_trim(self, tmp_path):
        ids = parse_ground_truth(truth_file(tmp_path, b"abc\n  def  \nabc\n"))
        assert ids == {"abc", "def"}

    def test_empty_file(self, tmp_path):
        assert parse_ground_truth(truth_file(tmp_path, b"\n\n")) == set()

    def test_hex_id_verbatim(self, tmp_path):
        path = truth_file(tmp_path, b"004ed4354a09e2c33117335adb24e333\n")
        assert parse_ground_truth(path) == {"004ed4354a09e2c33117335adb24e333"}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "truth.txt"
        write_ground_truth({"b", "a"}, path)
        assert path.read_text() == "a\nb\n"
        assert parse_ground_truth(path) == {"a", "b"}

    def test_byte_order_mark_dropped(self, tmp_path):
        # some editors write one; str.strip keeps it
        plain = parse_ground_truth(truth_file(tmp_path, b"alice\nbob\n"))
        marked = parse_ground_truth(
            truth_file(tmp_path, "\ufeffalice\nbob\n".encode("utf-8")))
        assert marked == plain == {"alice", "bob"}


def conv(conv_id, *author_text_pairs):
    messages = [Message(author=a, line_no=i + 1, time=f"00:{i:02d}", text=t)
                for i, (a, t) in enumerate(author_text_pairs)]
    return Conversation(id=conv_id, messages=messages)


class TestLabeling:
    def test_single_predator_message_is_positive(self):
        labeled = label_conversations([conv("c", ("p", "hi"), ("v", "yo"))],
                                      {"p"})
        assert labeled[0][1] is True

    def test_no_predators_negative(self):
        labeled = label_conversations([conv("c", ("a", "hi"))], {"p"})
        assert labeled[0][1] is False

    def test_fixture_enumeration(self):
        convs = [conv("c1", ("a", "x")), conv("c2", ("p1", "x")),
                 conv("c3", ("b", "x")), conv("c4", ("b", "x"), ("p2", "y")),
                 conv("c5", ("c", "x"))]
        labeled = label_conversations(convs, {"p1", "p2"})
        positives = {c.id for c, pos in labeled if pos}
        assert positives == {"c2", "c4"}

    def test_monotone_in_predator_set(self):
        convs = [conv("c1", ("a", "x"), ("b", "y")), conv("c2", ("c", "z"))]
        small = label_conversations(convs, {"a"})
        large = label_conversations(convs, {"a", "c"})
        for (_, was), (_, now) in zip(small, large):
            assert now or not was


def filter_table(*rows):
    """The filter report for (name, original, filtered) rows."""
    lines = [f"{'':<16}{'Original':>12}{'Filtered':>12}"]
    lines += [f"{name:<16}{before:>12}{after:>12}"
              for name, before, after in rows]
    return "\n".join(lines) + "\n"


class TestFilterCorpus:
    def test_emoticon_only_conversation_dropped(self):
        # ":)" normalizes to an empty string upstream of the filter
        filtered, report = filter_corpus([conv("c", ("a", ""))], set())
        assert filtered == []
        assert report == filter_table(("Positive", 0, 0), ("Negative", 1, 0),
                                      ("Non-predators", 1, 0),
                                      ("Predators", 0, 0))

    def test_normal_conversation_retained(self):
        filtered, _ = filter_corpus([conv("c", ("a", "hello there"))], set())
        assert len(filtered) == 1

    def test_counts_reported(self):
        # positives come from predator_ids: "p" takes part in keep0, keep1
        # and drop0, and the empty drop0 is filtered out
        convs = [conv(f"keep{i}", ("a", "words here"),
                      ("p" if i < 2 else "b", "more words"))
                 for i in range(7)]
        convs += [conv("drop0", ("p", "")),
                  conv("drop1", ("b", "")), conv("drop2", ("c", ""))]
        filtered, report = filter_corpus(convs, predator_ids={"p"})
        assert filtered == convs[:7]
        assert report == (
            "                    Original    Filtered\n"
            "Positive                   3           2\n"
            "Negative                   7           5\n"
            "Non-predators              3           2\n"
            "Predators                  1           1\n")

    def test_label_taken_before_filtering(self):
        # the predator's only line is empty, so only "a" is left in c, and
        # c still counts as positive after filtering
        filtered, report = filter_corpus(
            [conv("c", ("a", "hello"), ("p", ""))], {"p"})
        assert filtered == [conv("c", ("a", "hello"))]
        assert report == filter_table(("Positive", 1, 1), ("Negative", 0, 0),
                                      ("Non-predators", 1, 1),
                                      ("Predators", 1, 0))

    def test_participant_with_only_empty_lines_dropped(self):
        filtered, _ = filter_corpus([conv("c", ("a", "hello"), ("ghost", ""))],
                                    set())
        assert filtered == [conv("c", ("a", "hello"))]


class TestHasToken:
    # whitespace of every kind str.isspace knows, punctuation, non-ASCII
    @pytest.mark.parametrize("text", [
        "", " ", " \t\r\n", "\x0b\x0c", "\x1c", "\x1f", "\x85", "\u00a0",
        "\u2028", "\u3000", " \u00a0\x1c ", "a", "0", ".", " ! ", ":)",
        "\x00", "\u00e9", "\u200b", "\ufeff", "\u65e5", "x\u00a0y",
        "\U0001f600"])
    def test_agrees_with_tokenize(self, text):
        assert has_token(text) == bool(tokenize(text))

    def test_agrees_with_tokenize_on_every_code_point(self):
        assert [c for c in map(chr, range(0x110000))
                if has_token(c) != bool(tokenize(c))] == []


class TestGroupByAuthor:
    """The (author, conversation) units the author stages train and score
    on: each author's lines within one conversation, in message order."""

    def test_two_authors_two_documents(self):
        units = _author_units([conv("c", ("a", "one"), ("b", "two"))])
        assert sorted(u.author for u in units) == ["a", "b"]

    def test_author_across_conversations(self):
        units = _author_units([conv("c1", ("a", "one")),
                               conv("c2", ("a", "two"))])
        assert [(u.author, u.lines) for u in units] == \
            [("a", [["one"]]), ("a", [["two"]])]

    def test_interleaved_lines_keep_order(self):
        units = _author_units([conv("c", ("a", "first"), ("b", "noise"),
                                    ("a", "second"), ("a", "third"))])
        lines = {u.author: u.lines for u in units}
        assert lines["a"] == [["first"], ["second"], ["third"]]

    def test_line_totals_match_message_totals(self):
        conversations = [conv("c1", ("a", "x"), ("b", "y"), ("a", "z")),
                         conv("c2", ("b", "w"))]
        units = _author_units(conversations)
        assert sum(len(u.lines) for u in units) == \
            sum(len(c.messages) for c in conversations)


def test_package_import_loads_no_network_modules():
    # xml.sax.saxutils would pull these in, about 3 MB of every process
    code = ("import sys, chatscreen.pipeline, chatscreen.cli; "
            "print(' '.join(sorted(sys.modules)))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(    # the package under test first
        [os.path.dirname(os.path.dirname(chatscreen.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    loaded = set(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True,
                                check=True).stdout.split())
    assert "chatscreen.pipeline" in loaded
    assert not loaded & {"urllib.request", "http.client", "ssl", "email"}
