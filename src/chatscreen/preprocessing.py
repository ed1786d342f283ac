"""Text normalization, tokenization, vocabulary construction, and integer
encoding.

Normalization applies six rules in a fixed order: strip non-ASCII, remove
emoticons, replace URLs with 00URL, replace over-long tokens with 00LW,
replace numeric tokens with 00NUM, lowercase, then recover chat
abbreviations (including collapsing letter runs of three or more, so
"sorryyyy" becomes "sorry"). URLs are handled before numbers so digits
inside a URL are not rewritten twice. The result is idempotent: a second
pass changes nothing.

Vocabularies keep six reserved entries at fixed indices and order the rest
by descending tf-idf weight, ties broken lexicographically, after dropping
tokens below the minimum term frequency.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .errors import DataFormatError, UsageError

NUM_TOKEN = "00NUM"
LONGWORD_TOKEN = "00LW"
LONG_WORD_LIMIT = 30  # a token longer than this becomes LONGWORD_TOKEN
URL_TOKEN = "00URL"
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
EOS_TOKEN = "<eos>"

RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN, EOS_TOKEN,
                   NUM_TOKEN, LONGWORD_TOKEN, URL_TOKEN)
_PLACEHOLDERS = {NUM_TOKEN, LONGWORD_TOKEN, URL_TOKEN}

_URL_RE = re.compile(r"(?:(?:https?|ftp)://|www\.)\S*", re.IGNORECASE)
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)")
_ELONGATION_RE = re.compile(r"(.)\1{2,}")
TOKEN_RE = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9\s]")


@dataclass
class NormRuleSet:
    """Normalization tables: abbreviation map and emoticon patterns.

    token_cache maps each whitespace token seen so far to its normalized
    piece under these tables, so a token is normalized once per rule set;
    the tables must not change once the set is in use."""

    abbreviation_map: dict[str, str]
    emoticon_patterns: list[re.Pattern]
    token_cache: dict[str, str] = field(default_factory=dict, init=False,
                                        repr=False, compare=False)


def _rule_lines(path):
    """(line number, line) for each line of a UTF-8 rules file that is
    neither blank nor a '#' comment; a leading byte-order mark is dropped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            yield lineno, line


def load_abbreviations(path) -> dict[str, str]:
    """Parse a short<TAB>expansion table; '#' starts a comment line."""
    table: dict[str, str] = {}
    for lineno, line in _rule_lines(path):
        if "\t" not in line:
            raise UsageError(f"{path}:{lineno}: expected short<TAB>expansion")
        short, expansion = line.split("\t", 1)
        short = short.strip()
        if short != short.lower() or " " in short:
            raise UsageError(f"{path}:{lineno}: abbreviation keys must be "
                             "lowercase single tokens")
        table[short] = expansion.strip().lower()
    return table


def load_emoticon_patterns(path) -> list[re.Pattern]:
    """One regular expression per line; a whitespace-delimited token is
    removed when a pattern matches the entire token. '#' comments."""
    patterns = []
    for lineno, line in _rule_lines(path):
        try:
            patterns.append(re.compile(line))
        except re.error as exc:
            raise UsageError(f"{path}:{lineno}: bad pattern: {exc}") from exc
    return patterns


@functools.cache
def _packaged_tables() -> tuple[dict[str, str], list[re.Pattern]]:
    data = resources.files("chatscreen") / "data"
    return (load_abbreviations(data / "abbreviations.tsv"),
            load_emoticon_patterns(data / "emoticons.txt"))


def default_rules() -> NormRuleSet:
    """Rule set backed by the data files shipped with the package, which
    are read once per process; each call gives a set with its own, empty
    token cache, so no cache outlives the caller that made it."""
    abbr, emo = _packaged_tables()
    return NormRuleSet(abbreviation_map=abbr, emoticon_patterns=emo)


def _split_punctuation(token: str):
    i, j = 0, len(token)
    while i < j and not token[i].isalnum():
        i += 1
    while j > i and not token[j - 1].isalnum():
        j -= 1
    return token[:i], token[i:j], token[j:]


def _recover_abbreviation(core: str, table: dict[str, str]) -> str:
    if core in table:
        return table[core]
    collapsed = _ELONGATION_RE.sub(r"\1", core)
    if collapsed != core:
        return table.get(collapsed, collapsed)
    return core


def _is_emoticon(token: str, rules: NormRuleSet) -> bool:
    return any(p.fullmatch(token) for p in rules.emoticon_patterns)


def _normalize_token(token: str, rules: NormRuleSet) -> str:
    """The piece one whitespace token normalizes to; empty when dropped."""
    if _is_emoticon(token, rules):
        return ""
    if _URL_RE.fullmatch(token):
        return URL_TOKEN
    prefix, core, suffix = _split_punctuation(token)
    if core and core not in _PLACEHOLDERS:
        if len(core) > LONG_WORD_LIMIT:
            core = LONGWORD_TOKEN
        elif _NUMBER_RE.fullmatch(token):
            # signed number: the sign sits outside the alnum core
            return NUM_TOKEN
        elif _NUMBER_RE.fullmatch(core):
            core = NUM_TOKEN
        else:
            core = _recover_abbreviation(core.lower(), rules.abbreviation_map)
    rebuilt = prefix + core + suffix
    # lowercasing and collapsing can make an emoticon: "C888" -> "c8"
    if rebuilt == token or (rebuilt and not _is_emoticon(rebuilt, rules)):
        return rebuilt
    return ""


def normalize_text(raw: str, rules: NormRuleSet | None = None) -> str:
    """Apply the normalization rules; total function, empty in -> empty out.
    Each distinct token is normalized once per rule set (token_cache)."""
    if rules is None:
        rules = default_rules()
    cache = rules.token_cache
    out: list[str] = []
    for token in raw.encode("ascii", "ignore").decode("ascii").split():
        piece = cache.get(token)
        if piece is None:
            piece = cache[token] = _normalize_token(token, rules)
        if piece:
            out.append(piece)
    return " ".join(out)


def tokenize(normalized: str) -> list[str]:
    """Whitespace split with punctuation characters as their own tokens."""
    return TOKEN_RE.findall(normalized)


@dataclass
class Vocabulary:
    """Token-to-index map with reserved symbols pinned at indices 0-5."""

    tokens: list[str]
    min_term_frequency: int
    index_of: dict[str, int] = field(init=False, repr=False)

    UNK = 1     # RESERVED_TOKENS fixes the reserved indices
    EOS = 2

    def __post_init__(self):
        if tuple(self.tokens[:len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise UsageError("vocabulary must start with the reserved symbols "
                             f"{RESERVED_TOKENS}")
        self.index_of = {tok: i for i, tok in enumerate(self.tokens)}
        if len(self.index_of) != len(self.tokens):
            raise UsageError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)


def build_vocabulary(documents, min_tf: int) -> Vocabulary:
    """Count term and document frequencies over token-list documents, drop
    tokens with tf < min_tf, and order survivors by tf * ln(N/df)
    descending (ties lexicographic)."""
    documents = list(documents)
    tf: Counter = Counter()
    df: Counter = Counter()
    for doc in documents:
        tf.update(doc)
        df.update(set(doc))
    n_docs = len(documents)
    reserved = set(RESERVED_TOKENS)
    weight = {}
    for token, count in tf.items():
        if token in reserved or count < min_tf:
            continue
        weight[token] = count * math.log(n_docs / df[token])
    ordered = sorted(weight, key=lambda t: (-weight[t], t))
    return Vocabulary(list(RESERVED_TOKENS) + ordered, min_term_frequency=min_tf)


def encode(tokens, vocab: Vocabulary, max_len: int) -> list[int]:
    """Map tokens to indices (unknown -> UNK), append EOS, truncate to
    max_len. Never pads; that is the consumer's concern."""
    ids = [vocab.index_of.get(t, Vocabulary.UNK) for t in tokens]
    ids.append(Vocabulary.EOS)
    return ids[:max_len]


def vocab_to_text(vocab: Vocabulary) -> str:
    lines = [f"#min_tf={vocab.min_term_frequency}"] + list(vocab.tokens)
    return "".join(f"{line}\n" for line in lines)


def vocab_from_text(text: str) -> Vocabulary:
    """Strict inverse of vocab_to_text: the line `#min_tf=<int>`, then one
    distinct, non-empty token per line starting with the reserved symbols,
    every line newline-terminated. Anything else is a DataFormatError."""
    lines = text.split("\n")
    if lines[-1]:
        raise DataFormatError("last line has no newline: the file is cut "
                              "short")
    match = re.fullmatch(r"#min_tf=([1-9][0-9]*)", lines[0])
    if match is None:
        raise DataFormatError(f"line 1: expected #min_tf=<int>, found "
                              f"{lines[0]!r}")
    tokens = lines[1:-1]
    if "" in tokens:
        raise DataFormatError(f"line {tokens.index('') + 2}: blank token")
    try:
        return Vocabulary(tokens, min_term_frequency=int(match[1]))
    except UsageError as exc:   # reserved prefix missing or token repeated
        raise DataFormatError(str(exc)) from exc
