"""Search pipeline over the chunks table — the reference's retrieval flow
(reference src/chunksilo/search.py:1333-1430) re-expressed Ray-Data-first.

Stage order mirrors the reference:
 1. query preprocess + quoted-phrase extraction      (search.py:1363-1364)
 2. fan-out scoring in ONE vectorized pass per batch:
    vector similarity (cosine vs the broadcast query embedding — analog of
    the vector top-k, search.py:1093-1099), exact-phrase containment scan
    (search.py:319-338), tool/alias token match (the BM25-filename-match
    analog, search.py:1114-1143)
 3. date filter (inclusive, undated rows kept when unbounded —
    search.py:1018-1050)
 4. recency boost score*(1+w*exp(-ln2*age/half_life)) (search.py:1053-1090)
 5. min-score + required-phrase filters, before the cap so that rerank
    truncation backfills (search.py:1394-1408)
 6. candidate cap (rerank_candidates) -> rerank -> top rerank_top_k
    (search.py:1184-1248; the deterministic pass-through scorer of the
    reference's own test suite replaces the cross-encoder, FIXTURES.md §7)
 7. location formatting: heading path join + URI (search.py:1251-1330)

One Ray Data execution per query: one map_batches pass scores, filters,
boosts and keeps each block's own top-K candidates (the query vector is
broadcast via closure — a few hundred floats; the embedding matrix is read
zero-copy off the Arrow buffer, ``stages.embed.embedding_matrix``). The
per-block top-Ks meet in one block (``repartition(1)``, <= K rows per input
block) that takes the global top-K, reranks and formats. Every top-K uses
the total order (score desc, chunk_id asc), so ties at the K boundary do not
depend on the block layout. No global sort, no full materialization. The
recency anchor (corpus max ts) is an argument: a server computes it once
per chunk table (``serve.py``); without it the search runs one more
execution, a ts-only aggregate.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..config import Config
from ..functions.textutils import extract_quoted_phrases, preprocess_query, tokenize_surface
from ..stages.embed import bow_hash_embed, charngram_embed, embedding_matrix

# columns a ranked row carries from the chunk table
_RANKED_COLUMNS = ["chunk_id", "conv_id", "turn_idx", "text", "heading_path", "ts"]

# the ranking's total order: ties on score resolve by chunk_id, the same
# way in every block layout
SCORE_ORDER = [("score", "descending"), ("chunk_id", "ascending")]


def recency_anchor(chunks: Dataset) -> int:
    """The recency boost's anchor: the corpus max ``ts`` in microseconds.
    One aggregate execution over the ``ts`` column only (projection
    pushdown: a Parquet-backed chunk table reads one column, not the
    text+embedding payload). A server computes it once per chunk table."""
    import pandas as pd
    from ray.data.aggregate import Max

    max_ts = chunks.select_columns(["ts"]).aggregate(Max("ts"))["max(ts)"]
    return int(pd.Timestamp(max_ts).value // 1000)


def search_chunks(
    chunks: Dataset,
    query: str,
    date_from: str | None = None,
    date_to: str | None = None,
    cfg: Config | None = None,
    anchor_us: int | None = None,
) -> Dataset:
    """Retrieve ranked chunks for ``query``. Returns a small ranked Dataset
    with columns (chunk_id, conv_id, turn_idx, text, score, rerank_score,
    heading_path, uri, ts).

    ``anchor_us`` is the recency anchor (:func:`recency_anchor` of
    ``chunks``); ``None`` computes it here, in an execution of its own."""
    cfg = cfg or Config()
    s = cfg.section("search")
    embed_top_k = s["embed_top_k"]
    rerank_candidates = s["rerank_candidates"]
    rerank_top_k = s["rerank_top_k"]
    half_life = s["recency_half_life_days"]
    weight = s["recency_weight"]
    min_score = s["min_score"]
    n_candidates = max(rerank_candidates, embed_top_k)

    phrases, remainder = extract_quoted_phrases(query)
    q = preprocess_query(remainder or query)
    # the query MUST be embedded with the same backend the chunks were
    # (search.embed_backend mirrors embedding.backend at build time)
    embed_backend = s.get("embed_backend", "bow")
    if embed_backend == "charngram":
        qvec = charngram_embed([q])[0]
    else:
        qvec = bow_hash_embed([q])[0]
    q_tokens = set(tokenize_surface(q))
    phrases_lower = [p.lower() for p in phrases]

    lo = np.datetime64(date_from, "us") if date_from else None
    hi = (
        np.datetime64(date_to, "us") + np.timedelta64(86_399_999_999, "us")
        if date_to
        else None
    )
    anchor = recency_anchor(chunks) if anchor_us is None else anchor_us

    def score_batch(t: pa.Table) -> pa.Table:
        """Score, filter and boost one block, and keep its own top
        ``n_candidates`` rows: the global top-K is within the union of the
        per-block ones, so no global sort is needed."""
        n = t.num_rows
        emb = embedding_matrix(t["embedding"], np.float32)
        cos = emb @ qvec  # embeddings are L2-normalized at embed time
        phrase_hit = np.zeros(n, dtype=bool)
        if phrases_lower:
            for i, x in enumerate(t["text"].to_pylist()):
                phrase_hit[i] = any(p in x.lower() for p in phrases_lower)
        # tool match, decided once per distinct tool value of the block
        tools = pc.unique(t["tool"])
        tool_match = np.array(
            [bool(x) and bool(q_tokens & set(tokenize_surface(x))) for x in tools.to_pylist()],
            dtype=bool,
        )
        tool_hit = tool_match[pc.index_in(t["tool"], value_set=tools).to_numpy()]
        # fan-out union semantics: vector score, + flat bonuses for exact
        # phrase / tool match (the reference unions candidate SETS; a flat
        # bonus keeps those rows in the candidate pool deterministically)
        score = cos.astype(np.float64)
        score[phrase_hit] += 1.0
        score[tool_hit] += 0.5

        keep = (score > 0) | phrase_hit | tool_hit
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        if lo is not None:
            keep &= ts >= lo.astype("int64")
        if hi is not None:
            keep &= ts <= hi.astype("int64")
        idx = np.flatnonzero(keep)
        # recency boost, then the min-score + required-phrase filters. They
        # run BEFORE the candidate cap and rerank truncation, so rows they
        # remove are backfilled from lower-ranked candidates (reference
        # order, search.py:1394-1408)
        age_days = np.maximum((anchor - ts[idx]) / 86_400_000_000.0, 0.0)
        boosted = score[idx] * (1.0 + weight * np.exp(-np.log(2.0) * age_days / half_life))
        mask = boosted > float(min_score)
        if phrases_lower:
            mask &= phrase_hit[idx]
        candidates = t.select(_RANKED_COLUMNS).take(pa.array(idx[mask]))
        candidates = candidates.append_column("score", pa.array(boosted[mask], pa.float64()))
        return top_k(candidates, n_candidates, SCORE_ORDER)

    rerank_backend = s.get("rerank_backend", "lexical")

    def rerank(t: pa.Table) -> pa.Table:
        # deterministic lexical cross-scorer standing in for the
        # cross-encoder; full merge semantics of the reference,
        # search.py:1204-1241. The merge needs the whole candidate list,
        # exactly like the reference's in-process rerank
        texts = t["text"].to_pylist()
        if rerank_backend == "passthrough":
            # deterministic pass-through "model": echoes the retrieval score,
            # so the merge preserves boosted-score order (the reference's
            # fallback path when reranking fails, search.py:1243-1245)
            base = t["score"].to_numpy(zero_copy_only=False)
            results = [
                {"id": int(i), "text": texts[int(i)], "score": float(base[int(i)])}
                for i in np.argsort(-base, kind="stable")
            ]
        else:
            results = _lexical_rerank(q_tokens, texts)
        order, scores = merge_reranked(len(texts), results, texts)
        order = order[:rerank_top_k]
        out = t.take(pa.array(order, pa.int64()))
        return out.append_column(
            "rerank_score", pa.array([scores[i] for i in order], pa.float64())
        )

    def finalize(t: pa.Table) -> pa.Table:
        # location formatting on the capped (<= rerank_top_k rows) result:
        # plain python is fine here (search.py:133-151 URI analog)
        uri = pa.array(
            [
                f"conv://{c}#{i}"
                for c, i in zip(t["conv_id"].to_pylist(), t["turn_idx"].to_pylist())
            ],
            pa.string(),
        )
        # heading path "role > tool" formatting (search.py:1251-1330 analog)
        hp = [" > ".join(x) for x in t["heading_path"].to_pylist()]
        return pa.table(
            {
                "chunk_id": t["chunk_id"],
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "text": t["text"],
                "score": pc.round(t["score"], ndigits=6),
                "rerank_score": pc.round(t["rerank_score"], ndigits=6),
                "heading_path": pa.array(hp, pa.string()),
                "uri": uri,
                "ts": t["ts"],
            }
        )

    def rank(t: pa.Table) -> pa.Table:
        # candidate cap (the global top-K of the per-block top-Ks) -> rerank
        # -> format; merge order IS the ranking, so no further sort
        return finalize(rerank(top_k(t, n_candidates, SCORE_ORDER)))

    # repartition(1): the per-block top-Ks (<= K rows each) meet in one tiny
    # block for the candidate cap and the whole-list rerank merge
    return (
        chunks.map_batches(
            score_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        .repartition(1)
        .map_batches(rank, batch_format="pyarrow", batch_size=None)
    )


def top_k(t: pa.Table, k: int, order: list[tuple[str, str]]) -> pa.Table:
    """``t``'s first ``k`` rows in ``order``, in that order (a partial
    sort: O(n log k))."""
    if t.num_rows == 0:  # select_k_unstable cannot return an empty result
        return t
    return t.take(pc.select_k_unstable(t, k, sort_keys=order))


def _lexical_rerank(q_tokens: set[str], texts: list[str]) -> list[dict]:
    """Deterministic stand-in for the cross-encoder (reference FlashRank,
    search.py:1196-1201): score = query-token coverage of the passage.
    Returns results sorted by score desc (stable), shaped like the model
    output: [{"id": idx, "text": ..., "score": ...}]."""
    scores = []
    nq = max(len(q_tokens), 1)
    for i, x in enumerate(texts):
        toks = set(tokenize_surface(x))
        scores.append((len(q_tokens & toks) / nq, i))
    order = sorted(range(len(texts)), key=lambda i: (-scores[i][0], i))
    return [{"id": i, "text": texts[i], "score": scores[i][0]} for i in order]


def merge_reranked(
    n: int, results: list[dict], texts: list[str]
) -> tuple[list[int], dict[int, float]]:
    """The reference's rerank merge (search.py:1204-1241), as a pure
    function: match model results to candidates by index first, fall back to
    exact-text match (dedup via a seen-set), then append every unmatched
    candidate with the MINIMUM matched score so index/text mismatches never
    drop results. Returns (candidate order, {candidate_idx: rerank_score})."""
    text_to_indices: dict[str, list[int]] = {}
    for idx, x in enumerate(texts):
        text_to_indices.setdefault(x, []).append(idx)

    order: list[int] = []
    scores: dict[int, float] = {}
    seen: set[int] = set()
    for r in results:
        score = float(r.get("score", 0.0))
        ridx = r.get("id")
        if ridx is not None and 0 <= ridx < n:
            if ridx not in seen:
                order.append(ridx)
                scores[ridx] = score
                seen.add(ridx)
        else:
            for idx in text_to_indices.get(r.get("text", ""), []):
                if idx not in seen:
                    order.append(idx)
                    scores[idx] = score
                    seen.add(idx)
                    break
    min_score = min(scores.values()) if scores else 0.0
    for idx in range(n):
        if idx not in seen:
            order.append(idx)
            scores[idx] = min_score
    return order, scores
