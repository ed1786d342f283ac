"""Stage implementations behind the CLI subcommands.

Each stage reads the artifacts earlier stages wrote into the output
directory and writes its own; re-running a stage with unchanged inputs and
seed reproduces its outputs byte for byte. The `pipeline` stage is exactly
the composition of the individual stages.
"""

from __future__ import annotations

import functools
from pathlib import Path

from . import author_classifier as ac
from . import corpus_io, model_store, synthgen
from .corpus_io import read_text, write_atomic
from .config import PipelineConfig
from .core_math import Rng
from .errors import DataFormatError, NumericError, UsageError
from .language_model import LanguageModel, perplexity, train_lm
from .metrics import (accuracy, confusion, format_metric, format_report,
                      precision_recall_f)
from .preprocessing import (NormRuleSet, Vocabulary, build_vocabulary,
                            default_rules, encode, load_abbreviations,
                            load_emoticon_patterns, normalize_text, tokenize,
                            vocab_from_text, vocab_to_text)
from .scd_classifier import (Chunk, ConversationSequence, ScdModel,
                             chunk_and_pad, predict_scd, train_scd,
                             vectorize_conversation)

NORMALIZED_XML = "normalized.xml"
FILTER_REPORT = "filter_report.txt"
VOCAB_FILE = "vocab.txt"
LM_MODEL = "lm.model"
LM_LOG = "lm_train.log"
EVAL_LM = "eval_lm.txt"
VECTORS_FILE = "vectors.bin"
SCD_MODEL = "scd.model"
SCD_LOG = "scd_train.log"
SCD_VERDICTS = "scd_verdicts.tsv"
SCD_METRICS = "scd_metrics.txt"
AUTHOR_MODEL = "author.model"
AUTHOR_LOG = "author_train.log"
AUTHOR_SCORES = "author_scores.tsv"
PREDATORS_FILE = "predators.txt"
REPORT_FILE = "report.txt"
SYNTH_CORPUS = "corpus.xml"
SYNTH_TRUTH = "truth.txt"


def _out_dir(cfg: PipelineConfig) -> Path:
    path = Path(cfg.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _artifact(cfg: PipelineConfig, name: str) -> Path:
    path = Path(cfg.out) / name
    if not path.exists():
        producer = next(fn for fn, writes in STAGES if name in writes)
        raise UsageError(f"{path} not found; run `chatscreen "
                         f"{command_name(producer)}` first")
    return path


def _stage_rng(cfg: PipelineConfig, stage: str) -> Rng:
    return Rng(cfg.seed).derive(stage)


def _rules(cfg: PipelineConfig) -> NormRuleSet:
    base = default_rules()
    abbr = (load_abbreviations(cfg.abbreviations) if cfg.abbreviations
            else base.abbreviation_map)
    emo = (load_emoticon_patterns(cfg.emoticons) if cfg.emoticons
           else base.emoticon_patterns)
    return NormRuleSet(abbreviation_map=abbr, emoticon_patterns=emo)


def _load_truth(cfg: PipelineConfig) -> set[str]:
    if not cfg.ground_truth:
        raise UsageError("paths.ground_truth is not configured")
    return corpus_io.parse_ground_truth(cfg.ground_truth)


def _load_normalized(cfg: PipelineConfig):
    """normalized.xml's conversations. A process parses the file once and
    hands every later stage the same tuple for as long as the file's bytes
    stay the same, so stages must not modify the conversations."""
    path = _artifact(cfg, NORMALIZED_XML)
    try:
        return _parse_normalized(path.read_bytes())
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


@functools.lru_cache(maxsize=1)
def _parse_normalized(data: bytes) -> tuple[corpus_io.Conversation, ...]:
    """Refuses what preprocess never writes: no conversation, a message the
    parser skips, an empty conversation, a message without a token."""
    parsed = corpus_io.parse_pan_corpus(data)
    if not parsed.conversations:
        raise DataFormatError("no conversations")
    for where in parsed.skipped_messages:
        raise DataFormatError(f"{where}: a message the parser skips")
    for conv in parsed.conversations:
        if not conv.messages:
            raise DataFormatError(f"conversation {conv.id!r}: no messages")
        for m in conv.messages:
            if not corpus_io.has_token(m.text):
                raise DataFormatError(f"conversation {conv.id!r}, message "
                                      f"line {m.line_no}: no token")
    return tuple(parsed.conversations)


def run_preprocess(cfg: PipelineConfig) -> None:
    if not cfg.corpus:
        raise UsageError("paths.corpus is not configured")
    try:
        parsed = corpus_io.parse_pan_corpus(cfg.corpus)
    except DataFormatError as exc:
        raise DataFormatError(f"{cfg.corpus}: {exc}") from exc
    if parsed.skipped_messages:
        print(f"preprocess: skipped {len(parsed.skipped_messages)} "
              "malformed message(s)")
    truth = _load_truth(cfg)
    rules = _rules(cfg)
    normalized = [
        corpus_io.Conversation(
            conv.id,
            [corpus_io.Message(m.author, m.line_no, m.time,
                               normalize_text(m.text, rules))
             for m in conv.messages])
        for conv in parsed.conversations
    ]
    filtered, report = corpus_io.filter_corpus(normalized, truth)
    if not filtered:
        raise DataFormatError(f"{cfg.corpus}: {len(normalized)} "
                              "conversation(s) before filtering, none after")
    out = _out_dir(cfg)
    write_atomic(out / NORMALIZED_XML, corpus_io.write_pan_corpus(filtered))
    write_atomic(out / FILTER_REPORT, report)
    print(f"preprocess: {len(normalized)} -> {len(filtered)} conversations "
          f"-> {out / NORMALIZED_XML}")


def run_build_vocab(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    conversations = _load_normalized(cfg)
    documents = [[t for m in conv.messages for t in tokenize(m.text)]
                 for conv in conversations]
    vocab = build_vocabulary(documents, min_tf=cfg.min_tf)
    write_atomic(out / VOCAB_FILE, vocab_to_text(vocab))
    print(f"build-vocab: {len(vocab)} tokens -> {out / VOCAB_FILE}")


def _load_vocab(cfg: PipelineConfig) -> Vocabulary:
    path = _artifact(cfg, VOCAB_FILE)
    text = read_text(path)
    try:
        return vocab_from_text(text)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _lm_documents(conversations, vocab: Vocabulary, window: int):
    """One document per conversation: each message encoded (EOS-terminated,
    truncated to the window) and concatenated in order."""
    return [[i for m in conv.messages
             for i in encode(tokenize(m.text), vocab, window)]
            for conv in conversations]


def run_train_lm(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    conversations = _load_normalized(cfg)
    vocab = _load_vocab(cfg)
    documents = _lm_documents(conversations, vocab, cfg.lm_window)
    model = LanguageModel.create(vocab, cfg.lm_embedding_dim,
                                 cfg.lm_hidden_dim, cfg.lm_window,
                                 _stage_rng(cfg, "lm-init"))
    records = train_lm(documents, model, cfg, _stage_rng(cfg, "lm-train"))
    # a diverged model can end every parameter finite; its loss is not
    try:
        perplexity(model, documents)
    except NumericError as exc:
        raise NumericError(f"train-lm: the trained model diverged on its "
                           f"training documents ({exc}); {LM_MODEL} not "
                           f"written, lower [lm] lr") from exc
    model_store.save(model, out / LM_MODEL)
    write_atomic(out / LM_LOG,
                 "".join(r.format_line() + "\n" for r in records))
    last = records[-1].format_line() if records else "no epochs"
    print(f"train-lm: {last} -> {out / LM_MODEL}")


def _load_model(path: Path, kind: type):
    """The model in the container at path, which must be a `kind`; one of
    another kind is a DataFormatError naming the file and both kinds."""
    model = model_store.load(path)
    if not isinstance(model, kind):
        raise DataFormatError(f"{path} holds a {type(model).__name__}, not "
                              f"a {kind.__name__}")
    return model


def run_eval_lm(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    model = _load_model(_artifact(cfg, LM_MODEL), LanguageModel)
    conversations = _load_normalized(cfg)
    documents = _lm_documents(conversations, model.vocab, model.window)
    ppl = perplexity(model, documents)
    write_atomic(out / EVAL_LM, f"perplexity={ppl:.6f}\n")
    print(f"eval-lm: perplexity={ppl:.6f}")


def run_vectorize(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    model = _load_model(_artifact(cfg, LM_MODEL), LanguageModel).read_only()
    conversations = _load_normalized(cfg)
    memo: dict = {}
    bundle = model_store.VectorBundle(
        [conv.id for conv in conversations],
        [vectorize_conversation(conv, model, memo) for conv in conversations])
    model_store.save(bundle, out / VECTORS_FILE)
    print(f"vectorize: {len(conversations)} conversations -> "
          f"{out / VECTORS_FILE}")


def _check_keys(path: Path, found: list, expected) -> None:
    """Refuse an artifact whose keys are not each of `expected` once: a
    DataFormatError naming the file and counting the missing, unexpected
    and repeated keys, so one left over from another corpus is not read."""
    seen, expected = set(found), set(expected)
    missing, unexpected = expected - seen, seen - expected
    repeated = len(found) - len(seen)
    if missing or unexpected or repeated:
        raise DataFormatError(
            f"{path}: keys do not match {NORMALIZED_XML}: {len(missing)} "
            f"missing, {len(unexpected)} unexpected, {repeated} repeated")


def _labeled_sequences(cfg: PipelineConfig,
                       input_dim: int | None = None):
    """vectors.bin's sentence-vector sequences, each labeled positive iff a
    ground-truth predator takes part in its conversation.

    The file must hold each conversation of normalized.xml once and no
    other, each with one row per message, and rows input_dim wide when
    that is given; anything else is a DataFormatError naming the file, so
    vectors left over from another corpus are refused, not mislabeled."""
    path = _artifact(cfg, VECTORS_FILE)
    bundle = _load_model(path, model_store.VectorBundle)
    conversations = _load_normalized(cfg)
    labels = {conv.id: positive for conv, positive in
              corpus_io.label_conversations(conversations, _load_truth(cfg))}
    ids = bundle.conversation_ids
    _check_keys(path, ids, labels.keys())
    n_messages = {conv.id: len(conv.messages) for conv in conversations}
    for conv_id, matrix in zip(ids, bundle.matrices):
        if len(matrix) != n_messages[conv_id]:
            raise DataFormatError(
                f"{path}: conversation {conv_id!r} has {len(matrix)} rows, "
                f"but {n_messages[conv_id]} messages in {NORMALIZED_XML}")
        if input_dim is not None and matrix.shape[1] != input_dim:
            raise DataFormatError(
                f"{path} holds sentence vectors of width {matrix.shape[1]}, "
                f"but {SCD_MODEL} takes {input_dim}")
    return [ConversationSequence(conv_id, matrix, labels[conv_id])
            for conv_id, matrix in zip(ids, bundle.matrices)]


def run_train_scd(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    sequences = _labeled_sequences(cfg)
    rng = _stage_rng(cfg, "scd-split")
    order = rng.permutation(len(sequences))
    n_val = int(len(sequences) * cfg.scd_val_fraction)
    val_idx = set(int(i) for i in order[:n_val])
    train_chunks: list[Chunk] = []
    val_chunks: list[Chunk] = []
    for i, seq in enumerate(sequences):
        target = val_chunks if i in val_idx else train_chunks
        target.extend(chunk_and_pad(seq, cfg.scd_chunk_len))
    model, records = train_scd(train_chunks, cfg,
                               _stage_rng(cfg, "scd-train"),
                               val_chunks=val_chunks or None)
    model_store.save(model, out / SCD_MODEL)
    write_atomic(out / SCD_LOG,
                 "".join(r.format_line() + "\n" for r in records))
    print(f"train-scd: {len(train_chunks)} train / {len(val_chunks)} val "
          f"chunks, stopped after epoch {len(records)} of {cfg.scd_epochs} "
          f"-> {out / SCD_MODEL}")


def run_eval_scd(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    model = _load_model(_artifact(cfg, SCD_MODEL), ScdModel)
    sequences = _labeled_sequences(cfg, model.input_dim)
    rows = []
    flagged = []
    max_probs = predict_scd(model, sequences, cfg.scd_chunk_len)
    for seq, max_prob in zip(sequences, max_probs):
        verdict = max_prob >= cfg.scd_threshold
        rows.append(f"{seq.conversation_id}\t{max_prob:.6f}\t"
                    f"{'positive' if verdict else 'negative'}")
        if verdict:
            flagged.append(seq.conversation_id)
    write_atomic(out / SCD_VERDICTS, "".join(f"{r}\n" for r in rows))
    counts = confusion(flagged,
                       [s.conversation_id for s in sequences if s.label],
                       [s.conversation_id for s in sequences])
    tp, fp, tn, fn = counts.tp, counts.fp, counts.tn, counts.fn
    prf = precision_recall_f(counts, 1.0)
    text = (f"tp={tp} fp={fp} tn={tn} fn={fn}\n"
            f"accuracy={accuracy(counts):.6f}\n"
            f"precision={format_metric(prf.precision)}\n"
            f"recall={format_metric(prf.recall)}\n"
            f"f1={format_metric(prf.f_beta)}\n")
    write_atomic(out / SCD_METRICS, text)
    print(f"eval-scd: tp={tp} fp={fp} tn={tn} fn={fn} "
          f"f1={format_metric(prf.f_beta)}")


def _author_classes(conversations, truth) -> dict[str, str]:
    """P for ground-truth predators, V for other participants of
    conversations with a predator, N for everyone else."""
    classes: dict[str, str] = {}
    for conv, positive in corpus_io.label_conversations(conversations, truth):
        for author in conv.authors():
            if author in truth:
                classes[author] = "P"
            elif positive:
                classes[author] = "V"
            else:
                classes.setdefault(author, "N")
    return classes


def _author_units(conversations, classes=None) -> list[ac.AuthorUnit]:
    units = []
    for conv in conversations:
        lines_by_author: dict[str, list[list[str]]] = {}
        for m in conv.messages:
            lines_by_author.setdefault(m.author, []).append(tokenize(m.text))
        for author, lines in lines_by_author.items():
            label = classes.get(author) if classes else None
            units.append(ac.AuthorUnit(author=author, conversation_id=conv.id,
                                       lines=lines, label=label))
    return units


def run_train_author(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    conversations = _load_normalized(cfg)
    classes = _author_classes(conversations, _load_truth(cfg))
    units = _author_units(conversations, classes)
    features = ac.build_feature_vocab(units, cfg.author_min_feature_freq)
    if not features:
        raise UsageError("train-author: feature vocabulary is empty; lower "
                         "author.min_feature_freq")
    model = ac.ShallowModel.create(_stage_rng(cfg, "author-init"), features,
                                   cfg.author_k)
    records = ac.train_author(model, units, cfg,
                              _stage_rng(cfg, "author-train"))
    model_store.save(model, out / AUTHOR_MODEL)
    write_atomic(out / AUTHOR_LOG,
                 "".join(r.format_line() + "\n" for r in records))
    print(f"train-author: {len(units)} units, {len(features)} features -> "
          f"{out / AUTHOR_MODEL}")


def run_score_authors(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    model = _load_model(_artifact(cfg, AUTHOR_MODEL), ac.ShallowModel)
    units = _author_units(_load_normalized(cfg))
    probs = ac.class_probabilities(
        model, [ac.featurize(model, unit.lines) for unit in units])
    rows_by_author: dict[str, list[int]] = {}
    for i, unit in enumerate(units):
        rows_by_author.setdefault(unit.author, []).append(i)
    rows = []
    for author in sorted(rows_by_author):
        avg = ac.average_author_scores(probs[rows_by_author[author]])
        rows.append(f"{author}\t{avg.p!r}\t{avg.v!r}\t{avg.n!r}\t"
                    f"{avg.argmax_class()}")
    write_atomic(out / AUTHOR_SCORES, "".join(f"{r}\n" for r in rows))
    print(f"score-authors: {len(rows)} authors -> {out / AUTHOR_SCORES}")


def _read_tsv(path: Path, n_fields: int, parse, keys) -> dict:
    """Rows of a stage-to-stage TSV artifact keyed by their first field.

    Every line must have exactly n_fields fields that parse(*fields)
    accepts, no key may repeat, and the keys must be exactly `keys`, so a
    truncated or corrupt file is refused instead of read as a shorter one.
    """
    rows = {}
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        fields = line.split("\t")
        if len(fields) != n_fields:
            raise DataFormatError(f"{path}:{lineno}: expected {n_fields} "
                                  f"tab-separated fields, found {len(fields)}")
        if fields[0] in rows:
            raise DataFormatError(f"{path}:{lineno}: {fields[0]!r} appears "
                                  "twice")
        try:
            rows[fields[0]] = parse(*fields)
        except (ValueError, UsageError) as exc:
            raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    _check_keys(path, list(rows), keys)
    return rows


def _probability(raw: str) -> float:
    value = float(raw)
    if not 0.0 <= value <= 1.0:     # also refuses nan
        raise ValueError(f"{raw!r} is not a probability in [0, 1]")
    return value


def _author_row(_author, p, v, n, cls) -> ac.SentimentScore:
    score = ac.SentimentScore(float(p), float(v), float(n))
    if cls != score.argmax_class():
        raise ValueError(f"class {cls!r} does not match the scores' class "
                         f"{score.argmax_class()}")
    return score


def _verdict_row(_conv_id, prob, verdict) -> tuple[float, bool]:
    if verdict not in ("positive", "negative"):
        raise ValueError(f"verdict {verdict!r} is neither positive nor "
                         "negative")
    return _probability(prob), verdict == "positive"


def run_identify(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    verdicts_path = _artifact(cfg, SCD_VERDICTS)
    scores_path = _artifact(cfg, AUTHOR_SCORES)
    conversations = _load_normalized(cfg)
    truth = _load_truth(cfg)
    authors = {a for conv in conversations for a in conv.authors()}
    verdicts = _read_tsv(verdicts_path, 3, _verdict_row,
                         [c.id for c in conversations])
    scores = _read_tsv(scores_path, 5, _author_row, authors)
    suspicious = [cid for cid, (_p, positive) in verdicts.items() if positive]
    flagged = ac.identify_predators(suspicious, scores, conversations)
    corpus_io.write_ground_truth(flagged, out / PREDATORS_FILE)
    counts = confusion(flagged, truth, authors | truth)
    report = "Predator identification vs ground truth\n"
    report += format_report("chatscreen", counts)
    report += f"accuracy={accuracy(counts):.6f}\n"
    write_atomic(out / REPORT_FILE, report)
    prf = precision_recall_f(counts, 0.5)
    print(f"identify: flagged {len(flagged)} predators, "
          f"P={format_metric(prf.precision)} R={format_metric(prf.recall)} "
          f"F0.5={format_metric(prf.f_beta)} -> {out / PREDATORS_FILE}")


# The stages in pipeline order, each with the files it writes to cfg.out.
STAGES = (
    (run_preprocess, (NORMALIZED_XML, FILTER_REPORT)),
    (run_build_vocab, (VOCAB_FILE,)),
    (run_train_lm, (LM_MODEL, LM_LOG)),
    (run_eval_lm, (EVAL_LM,)),
    (run_vectorize, (VECTORS_FILE,)),
    (run_train_scd, (SCD_MODEL, SCD_LOG)),
    (run_eval_scd, (SCD_VERDICTS, SCD_METRICS)),
    (run_train_author, (AUTHOR_MODEL, AUTHOR_LOG)),
    (run_score_authors, (AUTHOR_SCORES,)),
    (run_identify, (PREDATORS_FILE, REPORT_FILE)),
)


def command_name(fn) -> str:
    """The CLI subcommand of a stage function: run_train_lm -> train-lm."""
    return fn.__name__.removeprefix("run_").replace("_", "-")


def run_pipeline(cfg: PipelineConfig) -> None:
    for fn, _writes in STAGES:
        # looked up at call time: a tracer may have wrapped it on the module
        globals()[fn.__name__](cfg)


def run_synth(cfg: PipelineConfig) -> None:
    out = _out_dir(cfg)
    spec = synthgen.SynthSpec(seed=Rng(cfg.seed).derive("synth").seed,
                              n_conversations=cfg.synth_n_conversations,
                              predator_fraction=cfg.synth_predator_fraction,
                              geometric_p=cfg.synth_geometric_p,
                              marker_density=cfg.synth_marker_density)
    result = synthgen.generate(spec)
    write_atomic(out / SYNTH_CORPUS, result.xml_bytes)
    corpus_io.write_ground_truth(result.predator_ids, out / SYNTH_TRUTH)
    print(f"synth: {cfg.synth_n_conversations} conversations, "
          f"{len(result.predator_ids)} predators -> {out / SYNTH_CORPUS}")
