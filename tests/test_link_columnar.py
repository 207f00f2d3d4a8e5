"""Parity of the columnar extraction kernel with the per-row kernel.

``extraction_core.extract_columns`` (what the Ray stage runs) must return
exactly what ``stages.link.extract_rows`` (``scan_mentions`` +
``triples_for_turn``, the oracle's kernel) returns, row for row: compared
with ``Table.equals`` and by the bytes of the written Parquet file."""

import random

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from chunksilo_ray import datagen
from chunksilo_ray.extraction_core import AliasIndex, extract_columns
from chunksilo_ray.stages.link import _with_outputs, extract_batch, extract_rows

# longer aliases on top of datagen's table, so that every max_ngram up to
# 4 has a key only that n-gram length can match
_LONG_ALIASES = [
    ("big data lake store", "system:lake", "system"),
    ("api gateway edge node", "system:edge", "system"),
    ("ghost system 07 replica", "system:replica", "system"),
    ("run book", "artifact:runbook", "artifact"),
    # starts at the second token of "api gateway": a long match the walk skips
    ("gateway edge", "system:gateway-edge", "system"),
]


def _alias(max_ngram: int) -> AliasIndex:
    base = datagen.alias_table()
    rows = list(zip(*(base.column(c).to_pylist() for c in ("alias", "entity_id", "entity_type"))))
    return AliasIndex(rows + _LONG_ALIASES, max_ngram=max_ngram)


def _parquet_bytes(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    pq.write_table(t, sink)
    return sink.getvalue().to_pybytes()


def _assert_parity(t: pa.Table, alias: AliasIndex, batch_size: int) -> None:
    memo: dict = {}
    for off in range(0, t.num_rows, batch_size):
        b = t.slice(off, batch_size)
        mentions, triples = extract_columns(b, alias, memo)
        got = _with_outputs(b, mentions, triples, pa.nulls(b.num_rows, pa.string()))
        want = extract_rows(b, alias, float("inf"))
        if not got.equals(want):
            for g, w in zip(got.to_pylist(), want.to_pylist()):
                assert g == w
        assert got.equals(want)
        assert _parquet_bytes(got) == _parquet_bytes(want)


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("batch_size,n_turns", [(1, 300), (7, 3000), (2048, 6000)])
def test_datagen_parity(seed, batch_size, n_turns):
    _assert_parity(datagen.generate_transcripts(n_turns, seed), _alias(3), batch_size)


@pytest.mark.parametrize("max_ngram", [1, 2, 3, 4])
def test_max_ngram_parity(max_ngram):
    _assert_parity(datagen.generate_transcripts(3000, 5), _alias(max_ngram), 512)


_PIECES = [
    # alias surfaces and their variants
    "database", "db", "data-base", "DataBase", "data base", "redis cache", "RedisCache",
    "api gateway", "api-gateway", "ApiGateway", "Api Gateway", "gateway", "auth",
    "config.yaml", "config yaml", "ConfigYaml", "DATABASE_URL", "database url",
    "README.md", "ghost-system-07", "ghost system 07", "ghost-system 07",
    "big data lake store", "api gateway edge node", "ghost system 07 replica",
    "run book", "bash", "grep", "python", "Alice", "alice", "Bob",
    "api gateway Edge Zorp", "api gateway edge node",
    # row-end / row-start halves of aliases, so n-grams could cross rows
    "api", "data", "redis", "ghost system", "base", "cache", "gateway edge",
    # ID and bigram pieces
    "proj 1234", "ab 1234567", "PROJ_12", "PROJ-1234", "abc1234", "ticket 12",
    "x 1", "abcdefghijk 12", "the 42", "Zorp 99", "fooBar 7", "12", "1234567",
    # delimiter runs, camelCase, stopwords
    "--a..b__", "-", "...", "_x_", "a/b/c", "v1.2.3", "camelCaseWord", "HTTPServer",
    "XMLHttpRequest", "the", "Please", "What", "Can", "ok", "Flumetrics", "Zorpdash",
    # non-ASCII
    "é", "ß", "straße", "café", "naïve", "é", "Zorṕdash", "\U0001f680",
    "érun bash", "éAPI-gateway", "İstanbul", "uſe grep",
    # Python's re folds these to ASCII letters, RE2 does not
    "ınvoke bash", "İnvoke grep", "ınstalled", "İnstalled",
    "Kube", "日本語", "db proj",
    # invoke / configure cues, including non-ASCII neighbours
    "run bash", "Run grep", "please use python", "invoke search", "execute edit",
    "call browser", "use   bash", "use\tgrep", "use bash", "érun ls", "reuse bash",
    "configured", "deployed", "Updated", "installed", "reconfigured", "déployed",
    "deployedé", "run", "use", "",
    # overlapping chains
    "api gateway proj 12", "db proj 12 api gateway", "data base url", "redis cache 42",
    "ghost system 07 1234", "auth service proj 9",
]
_SEPS = [" ", " ", " ", "  ", ", ", ". ", "\n", "-", "/", "", "é", "\t", "!? "]


def _fuzz_table(n: int, seed: int) -> pa.Table:
    rng = random.Random(seed)
    roles = ["user", "assistant", "tool", "system"]
    tools = ["", "", "bash", "grep", "Search", "mystery-tool", "python3"]
    texts = []
    for _ in range(n):
        k = rng.randint(0, 9)
        text = ""
        for _ in range(k):
            text += rng.choice(_PIECES) + rng.choice(_SEPS)
        texts.append(text)
    return pa.table(
        {
            "conv_id": pa.array([f"f{i // 10}" for i in range(n)]),
            "turn_idx": pa.array([i % 10 for i in range(n)], pa.int32()),
            "role": pa.array([rng.choice(roles) for _ in range(n)]),
            "text": pa.array(texts),
            "tool": pa.array([rng.choice(tools) for _ in range(n)]),
        }
    )


@pytest.mark.parametrize("max_ngram", [3, 8])
def test_fuzz_parity(max_ngram):
    """20k seeded strings; max_ngram 8 pushes the packed n-gram code past
    int64 and so exercises the row-wise ``np.unique`` branch."""
    _assert_parity(_fuzz_table(20_000, seed=13 + max_ngram), _alias(max_ngram), 2048)


def _batch(texts, roles=None) -> pa.Table:
    n = len(texts)
    return pa.table(
        {
            "conv_id": pa.array(["c"] * n, pa.string()),
            "turn_idx": pa.array(list(range(n)), pa.int32()),
            "role": pa.array(roles or ["assistant"] * n, pa.string()),
            "tool": pa.array([""] * n, pa.string()),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_null_text_batch_takes_the_per_row_path():
    alias = _alias(3)
    t = _batch(["deployed Flumetrics with the database", None, "run bash on proj 12"])
    got = extract_batch(t, alias, {}, 5.0)
    assert got.equals(extract_rows(t, alias, 5.0))
    errs = got["error"].to_pylist()
    assert errs[0] is None and errs[2] is None
    assert errs[1].startswith("TypeError")
    t = _batch(["run bash", "deployed the db and the cache"], roles=[None, "assistant"])
    assert extract_batch(t, alias, {}, 5.0).equals(extract_rows(t, alias, 5.0))


def test_all_dead_letter_batch():
    """``per_row_seconds = 0`` dead-letters every row, as the per-row loop
    always did."""
    alias = _alias(3)
    t = _batch(["deployed Flumetrics with the database", "", "run bash on proj 12"])
    got = extract_batch(t, alias, {}, 0.0)
    assert got.equals(extract_rows(t, alias, 0.0))
    assert all(e.startswith("TimeBudgetExceeded") for e in got["error"].to_pylist())
    assert got["mentions"].to_pylist() == [[], [], []]
    assert got["triples"].to_pylist() == [[], [], []]


def test_empty_batch():
    alias = _alias(3)
    t = _batch([])
    mentions, triples = extract_columns(t, alias, {})
    got = _with_outputs(t, mentions, triples, pa.nulls(0, pa.string()))
    assert got.equals(extract_rows(t, alias, 5.0))
