"""Train / test / ablate / bench drivers behind the CLI.

Metrics written to the --metrics file are deterministic for a fixed seed
and config (byte-identical across reruns); anything wall-clock derived
(latencies, durations, bench timing columns) is reported on stdout or in
explicitly timing-labelled columns instead.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass
from hashlib import blake2b
from pathlib import Path
from typing import Optional
from urllib.parse import urlparse

from .features import (
    DEFAULT_BITS,
    MODE_MULTICLASS,
    MODE_MULTILABEL,
    MODE_RETRIEVAL,
    ParseError,
    check_bits,
    parse_line,
)
from .learners import SCORER_LEARNED, ScorerModel
from .snapshot import SnapshotError, snapshot_load_full, snapshot_save
from .synth import generate as synth_generate, is_synth_uri
from .tasks import (
    MulticlassExample,
    MultilabelExample,
    OASModel,
    RetrievalPair,
    entropy_reduction,
    f1_reward,
    hamming_loss,
    mc_progressive_run,
    oas_step,
    retrieval_step,
)
from .tree import Memory, Tree, balance_bound


class DataError(RuntimeError):
    """Unreadable or malformed input data."""


@dataclass
class RunConfig:
    """Everything a command needs; defaults follow the documented profile."""

    mode: str = MODE_MULTICLASS
    alpha: float = 0.9
    c: float = 4.0
    d: int = 5
    epsilon: float = 0.1
    passes_unsup: int = 1
    passes_sup: int = 1
    hash_bits: Optional[int] = DEFAULT_BITS  # None: `cmd_test` takes the snapshot's
    seed: int = 0
    scorer_mode: str = SCORER_LEARNED
    update_on_exploit: bool = False
    data: Optional[str] = None
    snapshot: Optional[str] = None
    metrics: Optional[str] = None

    def run_id(self) -> str:
        payload = asdict(self)
        payload.pop("snapshot", None)  # output locations don't identify a run
        payload.pop("metrics", None)
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return blake2b(blob, digest_size=6).hexdigest()

    def build_tree(self) -> Tree:
        return Tree(
            alpha=self.alpha,
            c=self.c,
            d=self.d,
            scorer=ScorerModel(mode=self.scorer_mode),
            seed=self.seed,
        )


def _write_tsv(path: Optional[str], columns, rows) -> str:
    """Render rows of cells under a header as TSV; write it to path unless None.

    Floats are written by repr, so a value reads back exactly. Returns the
    text; a path that cannot be written is a DataError.
    """
    lines = ["\t".join(columns)]
    for row in rows:
        lines.append("\t".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {path!r}: {exc}") from exc
    return text


class MetricLog:
    columns = ("run_id", "phase", "step", "metric", "value")

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.rows: list[tuple] = []

    def add(self, phase: str, step: int, metric: str, value: float) -> None:
        self.rows.append((self.run_id, phase, step, metric, value))


class Task:
    """Everything that differs by mode once a line or a generator has made
    its example (see `features.parse_line`): the memory an example becomes,
    one supervised pass, one epsilon=0 evaluation step and the metric rows
    both produce.
    """

    # (test metric, ablate column) pairs reported by `cmd_ablate`
    ablate_columns: tuple[tuple[str, str], ...] = ()
    label_scorers = None

    def __init__(self, config: RunConfig, label_scorers: Optional[dict] = None):
        self.config = config


class MulticlassTask(Task):
    ablate_columns = (("accuracy", "test_accuracy"), ("error_percent", "test_error_percent"))

    def memory(self, ex: MulticlassExample) -> Memory:
        return Memory(ex.x, ex.label)

    def train_pass(self, tree: Tree, examples: list) -> list[tuple[int, str, float]]:
        accuracy, trace = mc_progressive_run(
            tree, examples, self.config.epsilon, update_on_exploit=self.config.update_on_exploit
        )
        rows = []
        for step, window_acc, cum_acc in trace:
            rows.append((step, "window_accuracy", window_acc))
            rows.append((step, "cumulative_accuracy", cum_acc))
        rows.append((len(examples), "progressive_accuracy", accuracy))
        return rows

    def eval_step(self, tree: Tree, ex: MulticlassExample) -> int:
        result = tree.query(ex.x, 1, 0.0)
        return int(bool(result.memories) and result.memories[0].value == ex.label)

    def summarize(self, hits: list[int], examples: list) -> dict[str, float]:
        accuracy = sum(hits) / len(examples) if examples else 0.0
        metrics = {"accuracy": accuracy, "error_percent": 100.0 * (1.0 - accuracy)}
        if examples:
            majority = Counter(ex.label for ex in examples)
            constant = max(majority.values()) / len(examples)
            metrics["constant_accuracy"] = constant
            if accuracy > 0.0:
                metrics["entropy_reduction_bits"] = entropy_reduction(accuracy, constant)
        return metrics


class MultilabelTask(Task):
    """Multilabel with one-against-some inference over the returned labels."""

    ablate_columns = (("mean_hamming_loss", "mean_hamming_loss"),)

    def __init__(self, config: RunConfig, label_scorers: Optional[dict] = None):
        super().__init__(config)
        self.oas = OASModel()
        self.oas.scorers = dict(label_scorers or {})
        self.label_scorers = self.oas.scorers

    def memory(self, ex: MultilabelExample) -> Memory:
        return Memory(ex.x, ex.labels)

    def train_pass(self, tree: Tree, examples: list) -> list[tuple[int, str, float]]:
        loss_total = 0
        reward_total = 0.0
        for ex in examples:
            predicted, _ = oas_step(tree, self.oas, ex, train=True, epsilon=self.config.epsilon)
            loss_total += hamming_loss(predicted, ex.labels)
            reward_total += f1_reward(ex.labels, predicted)
        if not examples:
            return []
        return [
            (len(examples), "progressive_hamming_loss", loss_total / len(examples)),
            (len(examples), "progressive_f1", reward_total / len(examples)),
        ]

    def eval_step(self, tree: Tree, ex: MultilabelExample) -> int:
        predicted, _ = oas_step(tree, self.oas, ex, train=False)
        return hamming_loss(predicted, ex.labels)

    def summarize(self, losses: list[int], examples: list) -> dict[str, float]:
        return {"mean_hamming_loss": sum(losses) / len(examples) if examples else 0.0}


class RetrievalTask(Task):
    ablate_columns = (("mean_cosine", "mean_cosine"),)

    def memory(self, ex: RetrievalPair) -> Memory:
        return Memory(ex.x, ex.value)

    def train_pass(self, tree: Tree, examples: list) -> list[tuple[int, str, float]]:
        reward_total = 0.0
        for ex in examples:
            _, reward = retrieval_step(tree, ex, train=True, epsilon=self.config.epsilon)
            reward_total += reward
        if not examples:
            return []
        return [(len(examples), "progressive_cosine", reward_total / len(examples))]

    def eval_step(self, tree: Tree, ex: RetrievalPair) -> float:
        return retrieval_step(tree, ex, train=False)[1]

    def summarize(self, rewards: list[float], examples: list) -> dict[str, float]:
        return {"mean_cosine": sum(rewards) / len(examples) if examples else 0.0}


TASKS = {
    MODE_MULTICLASS: MulticlassTask,
    MODE_MULTILABEL: MultilabelTask,
    MODE_RETRIEVAL: RetrievalTask,
}


def make_task(config: RunConfig, label_scorers: Optional[dict] = None) -> Task:
    """The task for config.mode; label_scorers restore a snapshot's OAS models."""
    if config.mode not in TASKS:
        raise ValueError(f"unknown mode {config.mode!r}")
    return TASKS[config.mode](config, label_scorers)


def load_dataset(config: RunConfig):
    """Resolve --data into (train, test) example lists.

    A plain path is parsed under the mode grammar (and yields no test
    split); a synth: URI materializes both splits.
    """
    check_bits(config.hash_bits)  # a usage error, whatever the data source
    if config.data is None:
        raise DataError("no --data source given")
    if is_synth_uri(config.data):
        kind = urlparse(config.data).path
        if kind in TASKS and kind != config.mode:
            raise DataError(f"synth data of kind {kind!r} cannot feed mode {config.mode!r}")
        try:
            return synth_generate(config.data, bits=config.hash_bits, seed=config.seed)
        except (ValueError, TypeError) as exc:
            raise DataError(f"bad synth URI {config.data!r}: {exc}") from exc
    try:
        text = Path(config.data).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {config.data!r}: {exc}") from exc
    examples = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            examples.append(parse_line(raw, config.mode, bits=config.hash_bits, lineno=lineno))
        except ParseError as exc:
            raise DataError(f"{config.data}: {exc}") from exc
    return examples, []


def _check_run(config: RunConfig) -> None:
    """Raise ValueError on a setting no training run can use, before it reads data."""
    if config.passes_unsup < 0 or config.passes_sup < 0:
        raise ValueError("--passes-unsup and --passes-sup must be >= 0")
    if not 0.0 <= config.epsilon <= 1.0:  # NaN fails this too
        raise ValueError("--epsilon must lie in [0, 1]")
    if config.update_on_exploit and config.mode != MODE_MULTICLASS:  # only mc_step reads it
        raise ValueError("--update-on-exploit applies to multiclass mode only")
    config.build_tree()  # the tree checks alpha, c and d


def fit(config: RunConfig, task: Task, train: list) -> tuple[Tree, MetricLog]:
    """Insert-only passes, then supervised passes; returns the tree and its metrics."""
    tree = config.build_tree()
    log = MetricLog(config.run_id())
    for p in range(1, config.passes_unsup + 1):
        phase = f"unsup_pass_{p}"
        inserted = 0
        for ex in train:
            z = task.memory(ex)
            if z.key_fingerprint not in tree.M:
                tree.insert(z)
                inserted += 1
        log.add(phase, len(train), "examples", float(len(train)))
        log.add(phase, len(train), "inserted", float(inserted))
        log.add(phase, len(train), "stored", float(len(tree)))

    for p in range(1, config.passes_sup + 1):
        phase = f"sup_pass_{p}"
        for step, metric, value in task.train_pass(tree, train):
            log.add(phase, step, metric, value)
        log.add(phase, len(train), "stored", float(len(tree)))
    return tree, log


def evaluate(task: Task, tree: Tree, examples: list) -> tuple[dict[str, float], list[float]]:
    """Epsilon=0 pass over examples; returns the task's metrics and per-example seconds."""
    values = []
    latencies: list[float] = []
    for ex in examples:
        t0 = time.perf_counter()
        values.append(task.eval_step(tree, ex))
        latencies.append(time.perf_counter() - t0)
    return task.summarize(values, examples), latencies


def cmd_train(config: RunConfig) -> dict:
    """Insert-only passes, then supervised passes, then snapshot + metrics."""
    _check_run(config)
    train, _ = load_dataset(config)
    task = make_task(config)
    started = time.perf_counter()
    tree, log = fit(config, task, train)
    elapsed = time.perf_counter() - started
    if config.snapshot:
        snapshot_save(
            tree,
            config.snapshot,
            config={"mode": config.mode, "hash_bits": config.hash_bits},
            label_scorers=task.label_scorers,
        )
    _write_tsv(config.metrics, MetricLog.columns, log.rows)
    summary = {
        "stored": len(tree),
        "max_depth": tree.max_depth(),
        "train_seconds": elapsed,
    }
    print(
        f"train[{config.mode}] stored={summary['stored']} depth={summary['max_depth']} "
        f"time={elapsed:.2f}s"
    )
    return summary


def cmd_test(config: RunConfig) -> dict:
    """Read-only epsilon=0 evaluation of a snapshot against --data.

    The data is hashed at the snapshot's stored width: a `hash_bits` of
    None takes it, and one that differs from it is a usage error. A snapshot
    that stores no width is read at `hash_bits`, or the default for None.
    """
    if not config.snapshot:
        raise DataError("test requires --snapshot")
    tree, saved_config, label_scorers = snapshot_load_full(config.snapshot)
    saved_mode = saved_config.get("mode", config.mode)
    if saved_mode != config.mode:
        raise SnapshotError(
            f"snapshot was trained in mode {saved_mode!r}, requested {config.mode!r}"
        )
    stored_bits = saved_config.get("hash_bits")
    if config.hash_bits is None:
        config.hash_bits = DEFAULT_BITS if stored_bits is None else stored_bits
    elif stored_bits is not None and config.hash_bits != stored_bits:
        raise ValueError(
            f"--hash-bits {config.hash_bits} differs from the snapshot's stored width {stored_bits}"
        )
    train, test = load_dataset(config)
    if not test:
        test = train  # plain files carry no split: evaluate the file itself

    task = make_task(config, label_scorers)
    metrics, latencies = evaluate(task, tree, test)
    log = MetricLog(config.run_id())
    for metric, value in metrics.items():
        log.add("test", len(test), metric, value)
    _write_tsv(config.metrics, MetricLog.columns, log.rows)
    summary: dict = {"examples": len(test), **metrics}
    if latencies:
        mean_ms = 1000.0 * statistics.fmean(latencies)
        p99_ms = 1000.0 * sorted(latencies)[max(0, math.ceil(0.99 * len(latencies)) - 1)]
        summary["latency_ms_mean"] = mean_ms
        summary["latency_ms_p99"] = p99_ms
        print(f"test[{config.mode}] examples={len(test)} "  # timing stays off the metrics file
              f"latency_ms mean={mean_ms:.4f} p99={p99_ms:.4f}")
    else:
        print(f"test[{config.mode}] examples=0")
    for metric, value in metrics.items():
        print(f"  {metric} = {value}")
    return summary


ABLATE_PARAMS = ("d", "c", "shots", "passes")


def cmd_ablate(config: RunConfig, param: str, values: list) -> list[dict]:
    """Sweep one knob, one full train+test per value; returns the table rows."""
    if param not in ABLATE_PARAMS:
        raise ValueError(f"param must be one of {ABLATE_PARAMS}")
    if not values:
        raise ValueError("ablate needs at least one value")
    configs = [_sweep_config(config, param, value) for value in values]
    for cfg in configs:  # a bad value is refused before any run reads data
        _check_run(cfg)
    rows: list[dict] = []
    for value, cfg in zip(values, configs):
        train, test = load_dataset(cfg)
        task = make_task(cfg)
        tree, _ = fit(cfg, task, train)
        row = {
            "param": param,
            "value": value,
            "stored": len(tree),
            "self_consistency_error": tree.measure_self_consistency(tree.memories()),
        }
        probe = test or train
        if probe:
            metrics, latencies = evaluate(task, tree, probe)
            for metric, column in task.ablate_columns:
                row[column] = metrics[metric]
            row["inference_ms"] = 1000.0 * statistics.fmean(latencies)
        rows.append(row)

    _emit_table(rows, config.metrics)
    return rows


def _sweep_config(config: RunConfig, param: str, value) -> RunConfig:
    """The config of one ablation run: `config` with `param` set to `value`."""
    cfg = RunConfig(**asdict(config))
    if param == "d":
        cfg.d = int(value)
    elif param == "c":
        cfg.c = float(value)
    elif param == "passes":
        cfg.passes_sup = int(value)
    else:
        if not (cfg.data and is_synth_uri(cfg.data)):
            raise DataError("a shots sweep needs a synth:multiclass data URI")
        sep = "&" if "?" in cfg.data else "?"
        cfg.data = f"{cfg.data}{sep}shots={int(value)}"
    return cfg


def cmd_bench(config: RunConfig, sizes: list[int]) -> list[dict]:
    """Synthetic store scaling: build n memories, time inserts and queries."""
    from .synth import random_keys

    if any(n < 1 for n in sizes):
        raise ValueError("store sizes must be >= 1")
    rows: list[dict] = []
    for n in sizes:
        keys = random_keys(n, seed=config.seed, bits=config.hash_bits)
        probes = random_keys(min(1000, n), seed=config.seed + 1, bits=config.hash_bits)
        tree = config.build_tree()
        t0 = time.perf_counter()
        for i, x in enumerate(keys):
            tree.insert(Memory(x, i))
        insert_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for x in probes:
            tree.query(x, 1, 0.0)
        query_s = time.perf_counter() - t0

        prog_err = tree.max_progressive_error()
        try:
            k_bound = balance_bound(prog_err, tree.alpha, n)
        except ValueError:
            k_bound = math.inf
        rows.append(
            {
                "n": n,
                "insert_ms": 1000.0 * insert_s / n,
                "query_ms": 1000.0 * query_s / len(probes),
                "max_depth": tree.max_depth(),
                "max_leaf": max(len(leaf.mem) for leaf in tree.leaves()),
                "progressive_error": prog_err,
                "K_bound": k_bound,
            }
        )
    _emit_table(rows, config.metrics)
    return rows


def _emit_table(rows: list[dict], path: Optional[str]) -> None:
    if rows:
        columns = list(rows[0])
        cells = ([row.get(c, "") for c in columns] for row in rows)
        sys.stdout.write(_write_tsv(path, columns, cells))
