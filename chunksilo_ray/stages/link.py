"""Mention detection + entity linking + triple extraction (one task stage).

The KG analog of the reference's scoring stages: alias matching plays the
role of BM25 filename match (reference src/chunksilo/index.py:1218-1265) and
rerank scoring (search.py:1184-1248); the alias table is the broadcast
small-side (``ray.put`` once on the driver, fetched and indexed once per
worker process — never re-shipped per batch).

One stage computes BOTH nested outputs per turn —

    mentions: list<struct<entity_id, surface, norm, entity_type, known>>
    triples:  list<struct<subj, pred, obj>>

— so the two downstream branches (nodes <- mentions, edges <- triples) can
explode from one checkpointed dataset instead of re-running the scan. Turn
atomicity is trivially preserved: a turn's mentions/triples live in its own
row, so batch boundaries can never split a turn.

Each batch runs the columnar kernel (``extraction_core.extract_columns``):
Arrow compute tokenizes the batch, and Python work is per distinct token,
per distinct alias n-gram and per match longer than one token, not per
token position. The per-row kernel (``extract_rows``, the oracle's scan)
re-runs a batch only when the columnar pass cannot vouch for the per-row
time budget or cannot take the batch (see ``extract_batch``).
"""

from __future__ import annotations

import logging

import pyarrow as pa

from ray.data import Dataset

from ..extraction_core import (
    MENTION_STRUCT,
    TRIPLE_STRUCT,
    AliasIndex,
    TokenClass,
    extract_columns,
    scan_mentions,
    triples_for_turn,
)

logger = logging.getLogger(__name__)


def _with_outputs(t: pa.Table, mentions, triples, errors) -> pa.Table:
    keep = [c for c in ("conv_id", "turn_idx", "role", "tool", "ts") if c in t.column_names]
    out = t.select(keep)
    out = out.append_column("mentions", mentions)
    out = out.append_column("triples", triples)
    return out.append_column("error", errors)


def extract_batch(
    t: pa.Table,
    alias: AliasIndex,
    token_memo: dict[str, TokenClass],
    per_row_seconds: float,
) -> pa.Table:
    """The per-batch extraction kernel of ``link_extract``: the columnar
    kernel (``extract_columns``) over the whole batch, with a wall-clock
    budget per row.

    A columnar pass that took at most ``per_row_seconds`` over the whole
    batch cannot have let any row exceed its budget, so its output stands.
    A slower pass, one that raised, or a batch with a null ``text`` or
    ``role`` re-runs through the per-row loop (``extract_rows``), which
    times and dead-letters each row."""
    import time

    if t.column("text").null_count == 0 and t.column("role").null_count == 0:
        t0 = time.monotonic()
        try:
            mentions, triples = extract_columns(t, alias, token_memo)
        except Exception:  # noqa: BLE001 - the per-row loop dead-letters the faulty rows
            logger.warning("columnar extraction failed; re-running the batch per row", exc_info=True)
        else:
            if time.monotonic() - t0 <= per_row_seconds:
                return _with_outputs(t, mentions, triples, pa.nulls(t.num_rows, pa.string()))
    return extract_rows(t, alias, per_row_seconds)


def extract_rows(t: pa.Table, alias: AliasIndex, per_row_seconds: float) -> pa.Table:
    """Per-row mention scan + triple rules (the oracle's kernel), each row
    timed against ``per_row_seconds``."""
    import time

    roles = t.column("role").to_pylist()
    tools = t.column("tool").to_pylist()
    texts = t.column("text").to_pylist()

    mentions_col: list[list[dict]] = []
    triples_col: list[list[dict]] = []
    errors_col: list[str | None] = []
    for r in range(t.num_rows):
        # explicit skipped-row policy (SURVEY.md §4): a pathological row
        # never kills the batch and never disappears silently — it emits
        # empty mentions/triples plus an ``error`` marker the pipeline
        # counts and surfaces in the stage manifest (the reference logs
        # and returns [] per failed file, index.py:1355-1360; here the
        # dead letter is a first-class column).
        try:
            row_t0 = time.monotonic()
            ms = scan_mentions(texts[r], alias)
            ts3 = triples_for_turn(roles[r], tools[r], texts[r], ms, alias)
            elapsed = time.monotonic() - row_t0
            if elapsed > per_row_seconds:
                # wall-clock budget guard (reference per_file_seconds,
                # cfgload.py:74-80): an adversarial row that grinds the
                # extractor is dead-lettered — its outputs are DROPPED so
                # a rerun with a fixed budget is deterministic, the batch
                # survives, and the row is counted in the stage manifest.
                ms, ts3 = [], []
                errors_col.append(
                    f"TimeBudgetExceeded: row took {elapsed:.1f}s "
                    f"(> {per_row_seconds:.1f}s)"
                )
            else:
                errors_col.append(None)
        except Exception as exc:  # noqa: BLE001 - dead-letter boundary
            ms, ts3 = [], []
            errors_col.append(f"{type(exc).__name__}: {exc}"[:200])
        mentions_col.append(
            [
                {
                    "entity_id": m.entity_id,
                    "surface": m.surface,
                    "norm": m.norm,
                    "entity_type": m.entity_type,
                    "known": m.known,
                }
                for m in ms
            ]
        )
        triples_col.append([{"subj": s, "pred": p, "obj": o} for s, p, o in ts3])

    return _with_outputs(
        t,
        pa.array(mentions_col, pa.list_(MENTION_STRUCT)),
        pa.array(triples_col, pa.list_(TRIPLE_STRUCT)),
        pa.array(errors_col, pa.string()),
    )


# worker-global state for the stateless-task stage: the alias index is built
# ONCE per worker process (keyed by broadcast ref + build params) and the
# per-distinct-token class memo lives for the worker's lifetime — the task
# twin of doing the work in an actor's __init__, minus the actor-process
# startup (tasks reuse warm workers; a fresh actor pool pays a process spawn
# + import per actor on every pipeline run — measured 1-2 s per stage in
# BASELINE.md's traces)
_WORKER_ALIAS: dict[tuple[str, int], AliasIndex] = {}
_WORKER_TOKENS: dict[str, TokenClass] = {}


def _worker_alias_index(alias_ref, max_ngram: int) -> AliasIndex:
    key = (alias_ref.hex(), max_ngram)
    idx = _WORKER_ALIAS.get(key)
    if idx is None:
        if len(_WORKER_ALIAS) > 4:
            _WORKER_ALIAS.clear()
        from ..util import cached_get

        idx = AliasIndex.from_arrow(cached_get(alias_ref), max_ngram=max_ngram)
        _WORKER_ALIAS[key] = idx
    return idx


def extract_table(
    t: pa.Table, alias_ref, max_ngram: int = 3, per_row_seconds: float = 5.0
) -> pa.Table:
    """``extract_batch`` with this worker's alias index and token memo."""
    alias = _worker_alias_index(alias_ref, max_ngram)
    return extract_batch(t, alias, _WORKER_TOKENS, per_row_seconds)


def link_extract(
    turns: Dataset,
    alias_ref,
    max_ngram: int = 3,
    batch_size: int = 2048,
    per_row_seconds: float = 5.0,
) -> Dataset:
    """Stateless map tasks + worker-global alias-index memo. The alias index
    is cheap to build (small broadcast table), so paying it once per warm
    worker beats an actor-process spawn per pool slot per run, and the stage
    scales to every free CPU instead of a fixed pool. Rows over
    ``per_row_seconds`` are dead-lettered (see ``extract_batch``)."""

    def _task(t: pa.Table) -> pa.Table:
        return extract_table(t, alias_ref, max_ngram, per_row_seconds)

    return turns.map_batches(
        _task,
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )

