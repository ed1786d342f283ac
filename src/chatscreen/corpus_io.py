"""Chat-corpus ingestion: conversation XML, ground-truth author lists, and
the labeling and filtering steps between parsing and training.

The XML dialect is one <conversations> root holding <conversation id="...">
elements, each a sequence of <message line="N"> elements with <author>,
<time>, and <text> children. Parsing streams through expat so malformed
input reports a byte offset; messages with missing or unusable fields, or
outside any conversation, are skipped and listed rather than failing the
file; a conversation without an id, one whose id repeats, or one opened
inside another fails it, and so does a message opened inside another, or
a message field (<author>, <time>, <text>) opened inside another field or
given twice in one message.

Every file the package writes goes to disk through write_atomic, and the
ground truth and text artifacts are read back through read_text.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from xml.parsers import expat

from .errors import DataFormatError
from .preprocessing import TOKEN_RE


@dataclass
class Message:
    author: str
    line_no: int
    time: str
    text: str


@dataclass
class Conversation:
    id: str
    messages: list[Message]

    def authors(self) -> list[str]:
        """Participants in first-appearance order."""
        seen: dict[str, None] = {}
        for m in self.messages:
            seen.setdefault(m.author, None)
        return list(seen)


@dataclass
class PanParseResult:
    conversations: list[Conversation]
    skipped_messages: list[str]     # where each skipped message was


def has_token(text: str) -> bool:
    """Whether preprocessing.tokenize(text) would give a token."""
    return TOKEN_RE.search(text) is not None


def breaks_a_line(value: str) -> bool:
    """True if value holds a tab or any line boundary str.splitlines
    knows, so that one field of a tab-separated line cannot carry it."""
    return "\t" in value or value.splitlines() not in ([], [value])


class _PanHandler:
    def __init__(self):
        self.conversations: list[Conversation] = []
        self.skipped: list[str] = []
        self._ids: set[str] = set()
        self._conv: Conversation | None = None
        self._line_attr: str | None = None
        self._fields: dict[str, str] | None = None    # None outside a message
        self._capture: str | None = None
        self._buf: list[str] = []

    def start(self, name, attrs):
        if name == "conversation":
            if self._conv is not None:
                raise DataFormatError(f"a conversation opens inside "
                                      f"conversation {self._conv.id!r}")
            if "id" not in attrs:
                raise DataFormatError(f"conversation "
                                      f"{len(self.conversations) + 1} has "
                                      "no id attribute")
            conv_id = attrs["id"]
            # the vectors container's string table and scd_verdicts.tsv
            # hold one id per line, like author_scores.tsv its authors
            if breaks_a_line(conv_id):
                raise DataFormatError(f"conversation id {conv_id!r} holds "
                                      "a tab or line break")
            self._conv = Conversation(id=conv_id, messages=[])
        elif name == "message":
            if self._fields is not None:
                raise DataFormatError(f"{self._where()}: a <message> opens "
                                      "inside it")
            self._line_attr = attrs.get("line")
            self._fields = {}
        elif name in ("author", "time", "text") and self._fields is not None:
            if self._capture is not None:
                raise DataFormatError(f"{self._where()}: <{name}> opens "
                                      f"inside <{self._capture}>")
            if name in self._fields:
                raise DataFormatError(f"{self._where()}: a second <{name}>")
            self._capture = name
            self._buf = []

    def end(self, name):
        if name in ("author", "time", "text") and self._capture is not None:
            self._fields[name] = "".join(self._buf)
            self._capture = None
        elif name == "message":
            self._finish_message()
        elif name == "conversation":
            if self._conv.id in self._ids:
                raise DataFormatError(f"conversation id {self._conv.id!r} "
                                      "appears twice")
            self._ids.add(self._conv.id)
            self.conversations.append(self._conv)
            self._conv = None

    def _where(self) -> str:
        where = ("outside any conversation" if self._conv is None
                 else f"conversation {self._conv.id!r}")
        return f"{where}, message line {self._line_attr}"

    def chars(self, data):
        if self._capture is not None:
            self._buf.append(data)

    def _finish_message(self):
        conv = self._conv
        fields, self._fields = self._fields, None
        author = fields.get("author", "").strip()
        try:
            line_no = int(self._line_attr)
        except (TypeError, ValueError):    # no line attribute, or not an int
            line_no = 0
        if conv is None or not author or line_no < 1:
            self.skipped.append(self._where())
            return
        # author_scores.tsv holds one author per line, fields split by tabs
        if breaks_a_line(author):
            raise DataFormatError(f"conversation {conv.id!r}: author "
                                  f"{author!r} holds a tab or line break")
        conv.messages.append(Message(author=author, line_no=line_no,
                                     time=fields.get("time", ""),
                                     text=fields.get("text", "")))


def write_atomic(path, data) -> int:
    """Write bytes, or a str as UTF-8, to path and return the byte count.

    The data goes to a temp file beside path that is then renamed over it,
    so a reader sees the old file or the new one, never a part, and no temp
    file outlives a failure. The file gets the plain-write mode (0666 less
    the umask), whatever mode an earlier file at path had.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}")
    fh = open(tmp, "xb")    # exclusive create: never another writer's file
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(data)


def read_text(path) -> str:
    """A UTF-8 text input; undecodable bytes are a DataFormatError that
    names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from exc


def parse_pan_corpus(source) -> PanParseResult:
    """Parse conversation XML from a path or bytes."""
    handler = _PanHandler()
    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler = handler.start
    parser.EndElementHandler = handler.end
    parser.CharacterDataHandler = handler.chars
    try:
        if isinstance(source, bytes):
            parser.Parse(source, True)
        else:
            with open(source, "rb") as fh:
                parser.ParseFile(fh)
    except expat.ExpatError as exc:
        raise DataFormatError(
            f"malformed XML: {expat.errors.messages[exc.code]} at line "
            f"{exc.lineno}, byte offset {parser.ErrorByteIndex}") from exc
    return PanParseResult(handler.conversations, handler.skipped)


def _xml_text(value: str) -> str:
    """xml.sax.saxutils.escape(value, {"\r": "&#13;"}), without importing
    that module (it loads urllib and ssl). A raw CR would reach the reader
    as LF (XML line-end normalization)."""
    return (value.replace("&", "&amp;").replace(">", "&gt;")
            .replace("<", "&lt;").replace("\r", "&#13;"))


def _xml_attr(value: str) -> str:
    """xml.sax.saxutils.quoteattr(value): escaped as text, with LF and tab
    as character references too, in the quotes the value does not hold."""
    value = _xml_text(value).replace("\n", "&#10;").replace("\t", "&#9;")
    if '"' not in value:
        return f'"{value}"'
    if "'" not in value:
        return f"'{value}'"
    return '"{}"'.format(value.replace('"', "&quot;"))


def write_pan_corpus(conversations) -> bytes:
    """Serialize conversations to the XML dialect parse_pan_corpus reads."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>\n<conversations>\n']
    for conv in conversations:
        parts.append(f"  <conversation id={_xml_attr(conv.id)}>\n")
        for m in conv.messages:
            parts.append(
                f'    <message line="{m.line_no}">\n'
                f"      <author>{_xml_text(m.author)}</author>\n"
                f"      <time>{_xml_text(m.time)}</time>\n"
                f"      <text>{_xml_text(m.text)}</text>\n"
                f"    </message>\n")
        parts.append("  </conversation>\n")
    parts.append("</conversations>\n")
    return "".join(parts).encode("utf-8")


def parse_ground_truth(path) -> set[str]:
    """Newline-delimited author ids; trimmed, deduplicated, blanks skipped.
    Only CR and LF end a line (read_text turns CR LF and CR into LF), so an
    id may hold any other character; a leading byte-order mark is dropped."""
    text = read_text(path).removeprefix("\ufeff")
    return {line.strip() for line in text.split("\n") if line.strip()}


def write_ground_truth(author_ids, path) -> None:
    """One id per line, sorted. An id that would not read back as itself
    (empty, padded with whitespace, or holding a CR or LF) is a
    DataFormatError. parse_ground_truth drops one leading byte-order mark,
    so a file whose first id starts with one gets a second in front."""
    for a in author_ids:
        if not a or a != a.strip() or "\r" in a or "\n" in a:
            raise DataFormatError(f"{path}: author id {a!r} cannot be "
                                  "written one per line")
    text = "".join(f"{a}\n" for a in sorted(author_ids))
    if text.startswith("\ufeff"):
        text = "\ufeff" + text
    write_atomic(path, text)


def label_conversations(conversations,
                        predator_ids) -> list[tuple[Conversation, bool]]:
    """Positive iff any message author is a known predator."""
    return [(c, any(m.author in predator_ids for m in c.messages))
            for c in conversations]


def filter_corpus(conversations, predator_ids):
    """Drop messages that normalize to zero tokens, participants left with
    no lines, and conversations left empty. Texts must already be
    normalized. Returns the kept conversations and the filter report, a
    table whose columns are Original (before filtering) and Filtered
    (after) and whose rows count Positive and Negative conversations, then
    Non-predator and Predator authors. A conversation is positive iff a
    known predator takes part in it before filtering."""
    before = label_conversations(conversations, predator_ids)
    after = [(Conversation(c.id, kept), positive) for c, positive in before
             if (kept := [m for m in c.messages if has_token(m.text)])]
    columns = []
    for labeled in (before, after):
        positive = sum(p for _, p in labeled)
        authors = {m.author for c, _ in labeled for m in c.messages}
        predators = len(authors & predator_ids)
        columns.append((positive, len(labeled) - positive,
                        len(authors) - predators, predators))
    lines = [f"{'':<16}{'Original':>12}{'Filtered':>12}"]
    for name, n_before, n_after in zip(
            ("Positive", "Negative", "Non-predators", "Predators"), *columns):
        lines.append(f"{name:<16}{n_before:>12}{n_after:>12}")
    return [c for c, _ in after], "\n".join(lines) + "\n"
