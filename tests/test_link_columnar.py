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


def test_packed_ngram_bound():
    """The packed n-gram code is used exactly while the largest code,
    ``n_vocab**k - 1``, fits int64."""
    import numpy as np

    from chunksilo_ray.extraction_core import packed_ngram_fits

    assert packed_ngram_fits(2**63 - 1, 1)
    assert packed_ngram_fits(2**63, 1)
    assert not packed_ngram_fits(2**63 + 1, 1)
    for n, k in ((2**21, 3), (2**9, 7)):
        assert n**k == 2**63
        assert packed_ngram_fits(n, k) and not packed_ngram_fits(n + 1, k)
        # at the bound the largest code is int64's max; one past it wraps
        top = np.full((1, k), n - 1, np.int64) @ (n ** np.arange(k, dtype=np.int64))
        assert int(top[0]) == 2**63 - 1
        past = np.full((1, k), n, np.int64) @ ((n + 1) ** np.arange(k, dtype=np.int64))
        assert int(past[0]) != (n + 1) ** k - 1


# 234**8 < 2**63 < 235**8: with max_ngram 8, a batch of 234 distinct tokens
# packs its 8-grams and one of 235 takes the row-wise branch
@pytest.mark.parametrize("n_vocab", [234, 235])
def test_packed_and_row_wise_ngram_branches_agree(n_vocab, monkeypatch):
    from chunksilo_ray import extraction_core

    eight = "one two three four five six seven eight"
    cue = "deployed and the database".split()
    words = eight.split() + cue + [f"filler{i}" for i in range(n_vocab - 12)]
    rng = random.Random(n_vocab)
    texts = [" ".join(words[i : i + 12]) for i in range(0, n_vocab, 12)]
    texts += [" ".join(rng.choice(words) for _ in range(12)) for _ in range(200)]
    texts += [eight, f"deployed {eight} and the database", f"deployed {eight}"]
    base = datagen.alias_table()
    rows = list(zip(*(base.column(c).to_pylist() for c in ("alias", "entity_id", "entity_type"))))
    alias = AliasIndex(rows + [(eight, "system:eight", "system")], max_ngram=8)
    t = _batch(texts)

    fits = extraction_core.packed_ngram_fits
    seen = []

    def spy(n, k):
        seen.append((n, k))
        return fits(n, k)

    monkeypatch.setattr(extraction_core, "packed_ngram_fits", spy)
    mentions, triples = extract_columns(t, alias, {})
    assert (n_vocab, 8) in seen
    assert fits(n_vocab, 8) == (n_vocab == 234)
    assert "system:eight" in {m["entity_id"] for row in mentions.to_pylist() for m in row}

    monkeypatch.setattr(extraction_core, "packed_ngram_fits", lambda n, k: False)
    row_wise = extract_columns(t, alias, {})
    assert mentions.equals(row_wise[0]) and triples.equals(row_wise[1])
    got = _with_outputs(t, mentions, triples, pa.nulls(t.num_rows, pa.string()))
    assert got.equals(extract_rows(t, alias, float("inf")))
