"""Extraction-kernel unit tests + the P/R >= 0.95 gate vs the single-process
oracle (BASELINE.md correctness target)."""

import pyarrow.parquet as pq
import pytest

from chunksilo_ray import datagen, rules
from chunksilo_ray.extraction_core import AliasIndex, scan_mentions, triples_for_turn
from chunksilo_ray.oracle import extractor


@pytest.fixture(scope="module")
def alias():
    return AliasIndex.from_arrow(datagen.alias_table())


class TestMentionScan:
    def test_known_alias_variants_link_to_same_entity(self, alias):
        for text in ["the database is down", "the db is down", "the data-base is down",
                     "the DataBase is down"]:
            ms = scan_mentions(text, alias)
            assert [m.entity_id for m in ms] == ["system:database"], text

    def test_multiword_alias(self, alias):
        ms = scan_mentions("restart the api gateway now", alias)
        assert ("system:api-gateway" in [m.entity_id for m in ms])

    def test_id_like_single_and_bigram(self, alias):
        for text in ["see PROJ-1234 for details", "see proj_1234 for details",
                     "see ticket proj 1234 for details"]:
            ms = scan_mentions(text, alias)
            unknown = [m for m in ms if not m.known]
            assert [m.norm for m in unknown] == ["proj-1234"], text

    def test_capitalized_unknown(self, alias):
        ms = scan_mentions("deployed Flumetrics yesterday", alias)
        assert [(m.norm, m.known) for m in ms] == [("flumetrics", False)]

    def test_stopwords_and_lowercase_ignored(self, alias):
        assert scan_mentions("Can you please check this for me now", alias) == []

    def test_trailing_punctuation_stripped(self, alias):
        ms = scan_mentions("failing with Zorpdash.", alias)
        assert [m.norm for m in ms] == ["zorpdash"]

    def test_greedy_longest_match(self, alias):
        # "auth-service" must match as one entity, not "auth" + "service"
        ms = scan_mentions("the auth-service rejected it", alias)
        assert [m.entity_id for m in ms] == ["system:auth-service"]


class TestTripleRules:
    def test_user_asks_about(self, alias):
        text = "Can you check the database for config.yaml?"
        ms = scan_mentions(text, alias)
        ts = triples_for_turn("user", "", text, ms, alias)
        assert ts == [("system:database", "asks_about", "artifact:config-yaml")]

    def test_tool_produces(self, alias):
        text = "output: config.yaml contains Flumetrics"
        ms = scan_mentions(text, alias)
        ts = triples_for_turn("tool", "bash", text, ms, alias)
        assert ("tool:bash", "produces", "artifact:config-yaml") in ts
        assert ("tool:bash", "produces", "surface:flumetrics") in ts

    def test_invoke_cue(self, alias):
        text = "Let me run grep on README.md."
        ms = scan_mentions(text, alias)
        ts = triples_for_turn("assistant", "", text, ms, alias)
        assert ("role:assistant", "invokes", "tool:grep") in ts

    def test_configure_cue(self, alias):
        text = "I configured the cache with api-keys."
        ms = scan_mentions(text, alias)
        ts = triples_for_turn("assistant", "", text, ms, alias)
        assert ("system:cache", "configures", "artifact:api-keys") in ts
        assert ("system:cache", "states", "artifact:api-keys") in ts

    def test_single_mention_no_pair_triples(self, alias):
        text = "The database seems fine"
        ms = scan_mentions(text, alias)
        assert triples_for_turn("assistant", "", text, ms, alias) == []


class TestCanonRules:
    def test_family_variants_share_shingles(self):
        a = rules.char_shingles("flumetrics")
        b = rules.char_shingles("flu-metrics")
        assert rules.jaccard(a, b) >= rules.JACCARD_THRESHOLD

    def test_distinct_tickets_do_not_merge(self):
        a = rules.char_shingles("proj-10001")
        b = rules.char_shingles("ops-99999")
        assert rules.jaccard(a, b) < rules.JACCARD_THRESHOLD


@pytest.mark.usefixtures("ray_session")
def test_pipeline_pr_gate_vs_oracle(smoke_corpus, tmp_out):
    """The headline correctness gate: triple P/R >= 0.95 vs the oracle."""
    from chunksilo_ray.pipelines.kg import build_kg

    transcripts = pq.read_table(f"{smoke_corpus}/transcripts.parquet")
    alias_table = pq.read_table(f"{smoke_corpus}/alias_index.parquet")
    expected = extractor.extract(transcripts, alias_table)

    res = build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        tmp_out,
        with_chunks=False,
    )
    predicted = set()
    for b in res["edges"].iter_batches(batch_format="pyarrow"):
        predicted.update(
            zip(
                b["conv_id"].to_pylist(),
                b["turn_idx"].to_pylist(),
                b["subj"].to_pylist(),
                b["pred"].to_pylist(),
                b["obj"].to_pylist(),
            )
        )
    P, R = extractor.precision_recall(predicted, expected["triples"])
    assert P >= 0.95, f"precision {P:.4f} < 0.95"
    assert R >= 0.95, f"recall {R:.4f} < 0.95"


@pytest.mark.usefixtures("ray_session")
def test_dead_letter_policy():
    """A pathological row (null text) must not kill the batch — it emits
    empty mentions/triples plus an error marker (SURVEY.md §4 explicit
    skipped-row policy)."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from chunksilo_ray import datagen
    from chunksilo_ray.stages.link import link_extract

    t = pa.table(
        {
            "conv_id": pa.array(["c1", "c1"]),
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": pa.array(["user", "assistant"]),
            "tool": pa.array(["", ""]),
            "ts": pa.array([0, 1], pa.timestamp("us")),
            "text": pa.array(["Can you check the database?", None]),
        }
    )
    alias_ref = ray.put(datagen.alias_table())
    rows = link_extract(rd.from_arrow(t), alias_ref).take_all()
    by_turn = {r["turn_idx"]: r for r in rows}
    assert by_turn[0]["error"] is None
    assert by_turn[0]["mentions"]
    assert by_turn[1]["error"] is not None
    assert by_turn[1]["mentions"] == []
    assert by_turn[1]["triples"] == []


@pytest.mark.usefixtures("ray_session")
def test_pipeline_weights_and_nodes_vs_oracle(smoke_corpus, tmp_out):
    """Beyond triple P/R: per-edge WEIGHTS and per-node FREQUENCIES must
    agree with the single-process oracle (the kg_edges_agg / kg_nodes
    outputs are rows-only at the driver — this is their in-repo gate)."""
    from chunksilo_ray.pipelines.kg import build_kg

    transcripts = pq.read_table(f"{smoke_corpus}/transcripts.parquet")
    alias_table = pq.read_table(f"{smoke_corpus}/alias_index.parquet")
    expected = extractor.extract(transcripts, alias_table)

    res = build_kg(
        f"{smoke_corpus}/transcripts.parquet",
        f"{smoke_corpus}/alias_index.parquet",
        tmp_out,
        with_chunks=False,
    )
    got_w = {}
    for b in res["edges"].iter_batches(batch_format="pyarrow"):
        for c, i, s, p, o, w in zip(
            b["conv_id"].to_pylist(), b["turn_idx"].to_pylist(),
            b["subj"].to_pylist(), b["pred"].to_pylist(),
            b["obj"].to_pylist(), b["weight"].to_pylist(),
        ):
            got_w[(c, i, s, p, o)] = w
    exp_w = expected["edge_weights"]
    agree = sum(1 for k, w in got_w.items() if exp_w.get(k) == w)
    assert agree / max(len(got_w), 1) >= 0.95
    assert agree / max(len(exp_w), 1) >= 0.95

    got_n = {}
    for b in res["nodes"].iter_batches(batch_format="pyarrow"):
        for e, s, ty, f in zip(
            b["entity_id"].to_pylist(), b["surface"].to_pylist(),
            b["type"].to_pylist(), b["freq"].to_pylist(),
        ):
            got_n[(e, s, ty)] = f
    exp_n = expected["node_freqs"]
    agree_n = sum(1 for k, f in got_n.items() if exp_n.get(k) == f)
    assert agree_n / max(len(got_n), 1) >= 0.95
    assert agree_n / max(len(exp_n), 1) >= 0.95


@pytest.mark.usefixtures("ray_session")
def test_link_extract_matches_serial_kernel(smoke_corpus):
    """The distributed stage over many blocks and small batches equals one
    in-process ``extract_batch`` call over the whole table: the worker-global
    alias index and token memo change no row."""
    import ray
    import ray.data as rd

    from chunksilo_ray.stages.link import extract_batch, link_extract

    t = pq.read_table(f"{smoke_corpus}/transcripts.parquet").slice(0, 200)
    alias = pq.read_table(f"{smoke_corpus}/alias_index.parquet")

    def _key(rows):
        return sorted(
            (r["conv_id"], r["turn_idx"], str(r["mentions"]), str(r["triples"]), r["error"])
            for r in rows
        )

    got = link_extract(rd.from_arrow(t).repartition(7), ray.put(alias), batch_size=16).take_all()
    want = extract_batch(t, AliasIndex.from_arrow(alias, max_ngram=3), {}, 5.0).to_pylist()
    assert len(got) == t.num_rows
    assert any(r["triples"] for r in want)
    assert _key(got) == _key(want)


@pytest.mark.usefixtures("ray_session")
def test_embed_task_mode_matches_actor_mode(smoke_corpus):
    """Same parity contract for the embedding stage's bow backend."""
    import pyarrow as pa
    import ray.data as rd

    from chunksilo_ray.stages.embed import embed_chunks

    t = pa.table({"text": pa.array(["hello world", "the Database is down", "", "alpha beta alpha"])})

    def _vecs(mode):
        rows = embed_chunks(rd.from_arrow(t), mode=mode).take_all()
        return {r["text"]: tuple(r["embedding"]) for r in rows}

    assert _vecs("tasks") == _vecs("actors")
