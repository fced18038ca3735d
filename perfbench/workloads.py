"""The three workloads: generated inputs, the operations of one cycle, and
the checks on every output.

Every workload makes its inputs from the seed alone and calls xlner only
through its public functions and commands. Each operation records its own
timings in a Recorder and checks its output with tracing paused, so checks
cost no span time. Corpora hold a fixed number of sentences of fixed
length, so an operation does the same amount of work whatever the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Timed calls go through module attributes, where the traced run's
# wrappers sit.
from xlner import cli, conll, tagger, tnt
from xlner.conll import Corpus, Sentence, Token, parse_conll, validate_bio, write_conll
from xlner.evaluation import evaluate
from xlner.synthetic import SHARED_WORDS, make_twin_languages, twin_word
from xlner.tagger import Tagger, TaggerConfig, build_vocab, init_params, save_model
from xlner.transfer import ExperimentConfig, Resources, bilingual_table

from tracing import tail_percentile

DIM = 64  # the paper's Polyglot embeddings are 64-d


class Recorder:
    """Timing samples and check failures of one run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sample_ops: dict[str, list[int]] = defaultdict(list)  # the operation each sample came from
        self.op = 0
        self.failures: list[str] = []
        self.op_failed = False

    def add(self, kind: str, seconds: float) -> None:
        self.samples[kind].append(seconds)
        self.sample_ops[kind].append(self.op)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            self.op_failed = True

    def checking(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()


def mean(samples: list[float]) -> float:
    return sum(samples) / len(samples)


def timing(samples: list[float], unit_work: float = 0.0, unit: str = "s") -> dict:
    """Seconds per operation over the run (total / count, the inverse of
    throughput) or, with unit_work per operation, the throughput; plus the
    median and tail of single operations. Throughput over the whole run
    reads steadier than a median here: single operation times are spread
    wide and in more than one cluster on a shared machine."""
    if not samples:  # every operation of this kind failed
        return {"value": None, "unit": unit, "samples": 0, "all_s": samples}
    per_op = mean(samples)
    out = {"value": unit_work / per_op if unit_work else per_op, "unit": unit, "samples": len(samples)}
    out["median_s"] = statistics.median(samples)
    pct = tail_percentile(len(samples))
    if pct is not None:
        out[f"p{pct}_s"] = float(np.percentile(samples, pct))
    out["all_s"] = samples
    return out


SENTENCE_TOKENS = 8  # every sentence a workload feeds xlner has this many tokens


def fixed_sentences(sentences, n: int) -> list[Sentence]:
    """The first n sentences of at least SENTENCE_TOKENS tokens, each cut
    to exactly that many. Every seed then gives the same count of sentences
    and of tokens, and the per-sentence costs (one SGD step, one Viterbi
    pass) do not vary with the seed. Generated entities are single B-
    tokens, so a cut sentence stays valid BIO2."""
    out = [Sentence(s.tokens[:SENTENCE_TOKENS]) for s in sentences if len(s) >= SENTENCE_TOKENS][:n]
    if len(out) < n:
        raise ValueError(f"generated pool holds {len(out)} sentences of {SENTENCE_TOKENS}+ tokens, need {n}")
    return out


def pool(n_sentences: int) -> int:
    """Sentences to generate for n_sentences; 5 in 8 generated sentences
    hold SENTENCE_TOKENS or more tokens, and small pools get a margin."""
    return 3 * n_sentences + 20


def table_rows(table) -> tuple[list[str], np.ndarray]:
    """Words and (n, d) vectors of an in-memory EmbeddingTable."""
    words = list(table.vectors)
    return words, np.array([table.vectors[w] for w in words])


def write_table(path: Path, words: list[str], vectors: np.ndarray) -> None:
    """A `.vec` text table with a `count dim` header and six decimals, as
    published embedding files have."""
    row = " ".join(["%.6f"] * vectors.shape[1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(words)} {vectors.shape[1]}\n")
        for word, vec in zip(words, vectors):
            fh.write(word + " " + row % tuple(vec) + "\n")


def silent(fn, *args):
    """Run a CLI entry point with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(*args)
    return code, out.getvalue(), err.getvalue()


def paper_languages(seed: int, size: dict, n_train: int, n_heldout: int):
    """Twin languages with a ~20k-word target lexicon: source sentences,
    the Procrustes-aligned bilingual table, and a target corpus that pulls
    the whole target lexicon into the vocabulary, as zero_shot pulls in
    the target dev set."""
    twins = make_twin_languages(
        seed=seed,
        dim=DIM,
        n_src_train=pool(n_train),
        n_src_dev=pool(n_heldout),
        n_tgt_train=0,
        n_tgt_dev=0,
        entities_per_type=size["entities_per_type"],
        n_fillers=size["fillers"],
    )
    shared = bilingual_table(
        ExperimentConfig(regime="zero_shot", source_size="large"),
        Resources(src_emb=twins.src_emb, tgt_emb=twins.tgt_emb),
    )
    words, _ = table_rows(twins.tgt_emb)
    extra = Corpus(
        tuple(Sentence(tuple(Token(w, "O") for w in words[i : i + 20])) for i in range(0, len(words), 20)),
        "tgt",
    )
    return twins, shared, extra


# ------------------------------------------------------------------ workloads


class Workload:
    name: str
    kinds: dict[str, str]  # what one "main" and one "aux" operation is
    sizes: dict[str, dict]  # "paper" for runs, "tiny" for the smoke test

    def __init__(self, size: str = "paper"):
        self.size = self.sizes[size]


class TrainPaper(Workload):
    """Default-config training on a ~20k-word vocabulary. One cycle is one
    train() call; epoch times come from its log callback."""

    name = "train_paper"
    kinds = {"main": "one training epoch with its dev evaluation", "aux": "one train() call"}
    sizes = {
        "paper": dict(entities_per_type=6600, fillers=200, train_sentences=12, dev_sentences=10, epochs=3),
        "tiny": dict(entities_per_type=30, fillers=20, train_sentences=3, dev_sentences=2, epochs=2),
    }

    def setup(self, seed: int, workdir: Path) -> None:
        s = self.size
        twins, self.shared, self.extra = paper_languages(seed, s, s["train_sentences"], s["dev_sentences"])
        self.train_corpus = Corpus(tuple(fixed_sentences(twins.src_train, s["train_sentences"])), "src")
        self.dev_corpus = Corpus(tuple(fixed_sentences(twins.src_dev, s["dev_sentences"])), "src")
        self.config = TaggerConfig(max_epochs=s["epochs"], patience=s["epochs"])
        self.reference = None

    def ops(self):
        return [("aux", self.train_op)]

    def train_op(self, rec: Recorder) -> None:
        stamps = []
        start = time.perf_counter()
        _, history = tagger.train(
            self.config,
            self.train_corpus,
            self.dev_corpus,
            pretrained=self.shared,
            extra_vocab_corpora=[self.extra],
            log=lambda _message: stamps.append(time.perf_counter()),
        )
        rec.add("aux", time.perf_counter() - start)
        # The first epoch also holds build_vocab and init_params.
        for before, after in zip(stamps, stamps[1:]):
            rec.add("main", after - before)
        # A non-finite loss makes train() raise, which fails the operation.
        with rec.checking():
            rec.check(len(history.dev_f1) == self.config.max_epochs, f"history {history.dev_f1} is short")
            if self.reference is None:
                self.reference = history.dev_f1
            rec.check(history.dev_f1 == self.reference, f"dev F1 {history.dev_f1} != first run {self.reference}")

    def named(self, rec: Recorder) -> dict:
        return {
            "train_tok_s": timing(rec.samples["main"], self.size["train_sentences"] * SENTENCE_TOKENS, "tok/s"),
            "train_call_s": timing(rec.samples["aux"]),
        }

    def describe(self) -> dict:
        return {"vocab_words": build_vocab([self.train_corpus, self.dev_corpus, self.extra], self.shared).num_words}


class TagPaper(Workload):
    """The `xlner tag` path with a default-config model over held-out files,
    and the `xlner baseline --method tnt` path over all of them."""

    name = "tag_paper"
    kinds = {"main": "`xlner tag` path over one input file", "aux": "`xlner baseline --method tnt` path"}
    # The seed commit's TnT F1 is 37 to 39 on the paper-size held-out set.
    TNT_F1_FLOOR = 20.0
    sizes = {
        "paper": dict(entities_per_type=6600, fillers=200, tnt_train_sentences=500, file_sentences=100, files=20),
        "tiny": dict(entities_per_type=30, fillers=20, tnt_train_sentences=12, file_sentences=4, files=2),
    }

    def setup(self, seed: int, workdir: Path) -> None:
        s = self.size
        n_file = s["file_sentences"]
        twins, shared, extra = paper_languages(seed, s, s["tnt_train_sentences"], n_file * s["files"])
        self.tnt_train = Corpus(tuple(fixed_sentences(twins.src_train, s["tnt_train_sentences"])), "src")
        config = TaggerConfig()
        vocab = build_vocab([self.tnt_train, extra], shared)
        self.model_path = workdir / "model.bin"
        save_model(Tagger(config, vocab, init_params(config, vocab, shared)), self.model_path)
        self.files = []
        heldout = fixed_sentences(twins.src_dev, n_file * s["files"])
        for i in range(s["files"]):
            chunk = Corpus(tuple(heldout[i * n_file : (i + 1) * n_file]), "src")
            path = workdir / f"input{i}.conll"
            path.write_text(write_conll(chunk), encoding="utf-8")
            self.files.append((path, chunk))
        self.heldout = Corpus(tuple(sentence for _, chunk in self.files for sentence in chunk), "src")
        self.out_path = workdir / "tagged.conll"
        self.outputs: dict = {}
        self.tnt_f1 = None

    def ops(self):
        ops = []
        for i in range(len(self.files)):
            ops += [("main", self.tag_op(i)), ("aux", self.tnt_op)]
        return ops

    def tag_op(self, i: int):
        path, gold = self.files[i]

        def op(rec: Recorder) -> None:
            start = time.perf_counter()
            model = tagger.load_model(self.model_path)
            corpus = conll.read_conll(path)
            self.out_path.write_text(conll.write_conll(tagger.tag_corpus(model, corpus)), encoding="utf-8")
            rec.add("main", time.perf_counter() - start)
            with rec.checking():
                self.check_output(rec, f"tag {path.name}", gold, self.out_path.read_text(encoding="utf-8"))

        return op

    def tnt_op(self, rec: Recorder) -> None:
        start = time.perf_counter()
        model = tnt.estimate(self.tnt_train)
        self.out_path.write_text(conll.write_conll(tnt.tag_corpus(model, self.heldout)), encoding="utf-8")
        rec.add("aux", time.perf_counter() - start)
        with rec.checking():
            text = self.out_path.read_text(encoding="utf-8")
            if self.check_output(rec, "tnt", self.heldout, text) and self.tnt_f1 is None:
                self.tnt_f1 = evaluate(self.heldout, parse_conll(text)).f1
                rec.check(self.tnt_f1 >= self.TNT_F1_FLOOR, f"TnT F1 {self.tnt_f1:.2f} < {self.TNT_F1_FLOOR}")

    def check_output(self, rec: Recorder, key: str, gold: Corpus, text: str) -> bool:
        """One tag per token, valid BIO2, and the same text on every repeat."""
        before = len(rec.failures)
        pred = parse_conll(text)
        rec.check(len(pred) == len(gold), f"{key}: {len(pred)} sentences, want {len(gold)}")
        for p, g in zip(pred, gold):
            if p.texts != g.texts:
                rec.check(False, f"{key}: tokens differ from the input")
                break
            if validate_bio(p.tags):
                rec.check(False, f"{key}: invalid BIO2 output {p.tags}")
                break
        first = self.outputs.setdefault(key, text)
        rec.check(text == first, f"{key}: output differs from the first run")
        return len(rec.failures) == before

    def final_checks(self, rec: Recorder) -> None:
        """Tag the first file once more, untimed, so repeat-identity is
        checked even when a run is too short to come back to it."""
        again = Recorder(rec.tracer)
        self.tag_op(0)(again)
        for failure in again.failures:
            rec.check(False, failure)

    def named(self, rec: Recorder) -> dict:
        s = self.size
        return {
            "tag_tok_s": timing(rec.samples["main"], s["file_sentences"] * SENTENCE_TOKENS, "tok/s"),
            "tnt_tok_s": timing(rec.samples["aux"], s["file_sentences"] * SENTENCE_TOKENS * s["files"], "tok/s"),
        }

    def describe(self) -> dict:
        return {"tnt_f1": self.tnt_f1, "heldout_sentences": len(self.heldout)}


GRID_CELLS = (
    "majority:none:tiny",
    "tnt_baseline:none:tiny",
    "in_language_plain:none:tiny",
    "in_language_pretrained:none:tiny",
    "zero_shot:large:none",
    "joint:large:tiny",
    "fine_tune:large:tiny",
)


class PipelineGrid(Workload):
    """`xlner align` on two text tables, then the seven-regime `xlner
    experiment` grid from files with the gate-scale tagger."""

    name = "pipeline_grid"
    kinds = {"main": "seven-regime `xlner experiment` grid", "aux": "`xlner align` on two text tables"}
    N_IDENTICAL = 64  # identical-string seeds beyond synthetic.SHARED_WORDS
    sizes = {
        "paper": dict(rows=12000, src_train=8, src_dev=4, tgt_train=4, tgt_dev=4, epochs=2),
        "tiny": dict(rows=300, src_train=3, src_dev=2, tgt_train=2, tgt_dev=2, epochs=1),
    }

    def setup(self, seed: int, workdir: Path) -> None:
        s = self.size
        twins = make_twin_languages(
            seed=seed,
            dim=DIM,
            n_src_train=pool(s["src_train"]),
            n_src_dev=pool(s["src_dev"]),
            n_tgt_train=pool(s["tgt_train"]),
            n_tgt_dev=pool(s["tgt_dev"]),
        )
        for name in ("src_train", "src_dev", "tgt_train", "tgt_dev"):
            corpus = Corpus(tuple(fixed_sentences(getattr(twins, name), s[name])))
            (workdir / f"{name}.conll").write_text(write_conll(corpus), encoding="utf-8")

        rng = np.random.default_rng(seed)
        lexicon, lexicon_vectors = table_rows(twins.src_emb)
        identical = [f"idem{i}" for i in range(self.N_IDENTICAL)]
        n_fill = s["rows"] - len(lexicon) - len(identical)
        fill = set()
        while len(fill) < n_fill:  # 'x' is no synthetic consonant: no clash
            fill.update("x" + "".join(chr(97 + c) for c in row) for row in rng.integers(0, 26, (n_fill, 7)))
        fill = sorted(fill)[:n_fill]
        rng.shuffle(fill)
        src_words = lexicon + identical + fill
        src = np.vstack([lexicon_vectors, rng.standard_normal((len(identical) + n_fill, DIM))])
        identical_set = set(identical)
        tgt_words = [w if w in identical_set else twin_word(w) for w in src_words]
        write_table(workdir / "src.vec", src_words, src)
        write_table(workdir / "tgt.vec", tgt_words, src @ twins.rotation)
        # Rows the align check compares: twin pairs, seeds excluded.
        picks = rng.choice(len(src_words), size=min(200, len(src_words)), replace=False)
        self.expect = {
            tgt_words[i]: np.round(src[i], 6) for i in picks if src_words[i] not in SHARED_WORDS and src_words[i] not in identical_set
        }
        self.n_rows = len(src_words)

        lines = [
            f"data_dir = {workdir}",
            *(f"{name}_path = {name}.conll" for name in ("src_train", "src_dev", "tgt_train", "tgt_dev")),
            "src_emb_path = src.vec",
            "tgt_emb_path = tgt.vec",
            "seeds = 1",
            # gate scale: 64-d words, tiny LSTMs, small vocabulary
            "tagger.word_emb_dim = 64",
            "tagger.word_lstm_dim = 8",
            "tagger.char_emb_dim = 4",
            "tagger.char_lstm_dim = 4",
            "tagger.dropout = 0.0",
            f"tagger.max_epochs = {s['epochs']}",
            f"tagger.patience = {s['epochs']}",
            *(f"cell = {cell}" for cell in GRID_CELLS),
        ]
        self.config_path = workdir / "grid.conf"
        self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.workdir = workdir

    def ops(self):
        return [("aux", self.align_op), ("main", self.grid_op)]

    def align_op(self, rec: Recorder) -> None:
        out = self.workdir / "mapped.vec"
        argv = ["align", "--src", str(self.workdir / "src.vec"), "--tgt", str(self.workdir / "tgt.vec"), "--out", str(out)]
        start = time.perf_counter()
        code, _, err = silent(cli.main, argv)
        rec.add("aux", time.perf_counter() - start)
        with rec.checking():
            rec.check(code == 0, f"align exited {code}: {err.strip()[-300:]}")
            if code == 0:
                self.check_mapped(rec, out)

    def check_mapped(self, rec: Recorder, path: Path) -> None:
        """Mapped target rows equal their source twins: the fitted map
        undoes the planted rotation."""
        found, rows = {}, 0
        with open(path, encoding="utf-8") as fh:  # streamed: keeps peak RSS down
            for lineno, line in enumerate(fh):
                word, rest = line.split(" ", 1)
                if lineno == 0 and len(rest.split()) == 1:  # `count dim` header
                    continue
                rows += 1
                if word in self.expect:
                    found[word] = np.array(rest.split(), dtype=float)
        rec.check(rows == self.n_rows, f"mapped table has {rows} rows, want {self.n_rows}")
        rec.check(len(found) == len(self.expect), "mapped table lacks target words")
        worst = max((float(np.abs(found[w] - v).max()) for w, v in self.expect.items() if w in found), default=0.0)
        rec.check(worst < 1e-4, f"mapped rows miss their source twins by {worst:.2e}")

    def grid_op(self, rec: Recorder) -> None:
        out = self.workdir / "results"
        argv = ["experiment", "--config", str(self.config_path), "--out", str(out), "--jobs", "1"]
        start = time.perf_counter()
        code, _, err = silent(cli.main, argv)
        rec.add("main", time.perf_counter() - start)
        with rec.checking():
            rec.check(code == 0, f"experiment exited {code}: {err.strip()[-300:]}")
            for cell in GRID_CELLS:
                report = out.joinpath(*cell.split(":"), "1", "report.json")
                try:
                    f1 = json.loads(report.read_text(encoding="utf-8"))["f1"]
                except (OSError, ValueError, KeyError) as exc:
                    rec.check(False, f"{cell}: no report ({exc})")
                    continue
                rec.check(0.0 <= f1 <= 100.0, f"{cell}: F1 {f1} outside [0, 100]")
        shutil.rmtree(out, ignore_errors=True)

    def named(self, rec: Recorder) -> dict:
        return {"experiment_s": timing(rec.samples["main"]), "align_s": timing(rec.samples["aux"])}

    def describe(self) -> dict:
        return {"table_rows": self.n_rows}


WORKLOADS = {w.name: w for w in (TrainPaper, TagPaper, PipelineGrid)}
