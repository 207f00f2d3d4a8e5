"""Thin query API over the materialized KG tables — the analog of the
reference's MCP serving surface (reference src/chunksilo/server.py:61-106:
one `search_docs(query, date_from, date_to)` tool over the persisted index,
module-level caches reused across requests, reference search.py:72-76).

The engine's "index" is the pipeline's Parquet output directory:
    out_dir/chunks   (chunk_id, conv_id, turn_idx, text, embedding, ...)
    out_dir/edges_agg (subj, pred, obj, weight)
    out_dir/nodes    (entity_id, surface, canonical, type, freq)

`search_docs` returns the reference's result-dict shape (README.md:22-44:
matched_files + chunks with location + counters + retrieval_time);
`entity_neighbors` / `entity_lookup` are the KG-native additions. Results
are small (top-k); the scans behind them stream with column pruning."""

from __future__ import annotations

import pathlib
import time

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import Config
from ..functions.textutils import normalize_surface
from ..state.manifest import MANIFEST_NAME
from .search import recency_anchor, search_chunks, top_k

# module-level index handles per out_dir (reference module-global caches,
# search.py:72-76): the chunk table's lazy Dataset (a cheap plan; caching it
# avoids re-reading Parquet metadata per request) and its recency anchor
# (one aggregate execution per table, not per query). Keyed on the chunks
# manifest, so a rebuild into the same out_dir replaces both: a stale handle
# lists part files the rebuild removed, and a stale anchor skews every score.
_chunk_cache: dict[str, tuple[str, "rd.Dataset", int]] = {}


def _chunks(out_dir: str) -> tuple["rd.Dataset", int]:
    """(chunk Dataset, recency anchor) of ``out_dir``'s current chunk
    table. A table without a manifest is read afresh on every request."""
    try:
        key = (pathlib.Path(out_dir) / "chunks" / MANIFEST_NAME).read_text()
    except FileNotFoundError:
        key = None
    cached = _chunk_cache.get(out_dir)
    if key is not None and cached is not None and cached[0] == key:
        return cached[1], cached[2]
    chunks = rd.read_parquet(f"{out_dir}/chunks")
    anchor = recency_anchor(chunks)
    if key is not None:
        _chunk_cache[out_dir] = (key, chunks, anchor)
    return chunks, anchor


def search_docs(
    out_dir: str,
    query: str,
    date_from: str | None = None,
    date_to: str | None = None,
    cfg: Config | None = None,
) -> dict:
    """Reference `search_docs` tool semantics over the chunks table: ranked
    chunks with location info + matched-conversation rollup + counters."""
    t0 = time.perf_counter()
    chunks, anchor = _chunks(out_dir)
    ranked = search_chunks(
        chunks, query, date_from=date_from, date_to=date_to, cfg=cfg, anchor_us=anchor
    ).take_all()
    matched: dict[str, float] = {}
    chunks_out = []
    for r in ranked:
        conv_uri = f"conv://{r['conv_id']}"
        matched[conv_uri] = max(matched.get(conv_uri, 0.0), r["score"])
        chunks_out.append(
            {
                "text": r["text"],
                "score": r["score"],
                "location": {
                    "uri": r["uri"],
                    "turn_idx": r["turn_idx"],
                    "heading_path": r["heading_path"],
                },
            }
        )
    return {
        "matched_files": [
            {"uri": u, "score": s}
            for u, s in sorted(matched.items(), key=lambda kv: -kv[1])
        ],
        "chunks": chunks_out,
        "num_matched_files": len(matched),
        "num_chunks": len(chunks_out),
        "query": query,
        "retrieval_time": round(time.perf_counter() - t0, 3),
    }


def _top_rows(ds: "rd.Dataset", match, k: int, order: list[tuple[str, str]]) -> list[dict]:
    """The first ``k`` rows of ``ds`` that ``match`` keeps, in the total
    ``order``. Each block keeps its own top ``k`` (the global top ``k`` is
    within their union), and the driver folds them over ``iter_batches``,
    holding at most ``2k`` rows: one execution, no sort exchange."""

    def block_top(t: pa.Table) -> pa.Table:
        return top_k(match(t), k, order)

    top = None
    for b in ds.map_batches(
        block_top, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        top = top_k(b if top is None else pa.concat_tables([top, b]), k, order)
    return top.to_pylist() if top is not None else []


def entity_lookup(out_dir: str, surface: str, k: int = 10) -> list[dict]:
    """Resolve a surface form against the nodes table (exact norm match
    first, then prefix fallback), frequency-ranked."""
    norm = normalize_surface(surface)
    nodes = rd.read_parquet(f"{out_dir}/nodes")

    def match(t: pa.Table) -> pa.Table:
        exact = pc.equal(t["canonical"], norm)
        prefix = pc.starts_with(t["canonical"], norm)
        return t.filter(pc.or_(exact, prefix))

    hits = _top_rows(
        nodes, match, k, [("freq", "descending"), ("entity_id", "ascending"), ("surface", "ascending")]
    )
    return [
        {"entity_id": r["entity_id"], "canonical": r["canonical"],
         "type": r["type"], "freq": r["freq"]}
        for r in hits
    ]


def build_mcp_server(out_dir: str, cfg: Config | None = None, mcp=None):
    """Register the serving tools on a FastMCP server — the reference's MCP
    stdio surface (reference src/chunksilo/server.py:61-106: a FastMCP
    instance exposing `search_docs(query, date_from, date_to)` over the
    persisted index, run over stdio by the CLI).

    ``mcp`` may be injected (tests use a fake with the same ``tool()``
    decorator contract); by default the ``mcp`` package's FastMCP is
    imported lazily and a clear actionable error raised when the package is
    absent in this container (same seam pattern as the onnx embedding
    backend, stages/embed.py). Returns the server with three tools
    registered: search_docs, entity_lookup, entity_neighbors."""
    if mcp is None:
        try:  # pragma: no cover - mcp absent in this environment
            from mcp.server.fastmcp import FastMCP  # type: ignore[import-not-found]
        except ImportError as exc:
            raise RuntimeError(
                "the 'serve' command needs the 'mcp' package (FastMCP) for "
                "the stdio loop; install it, or use 'chunksilo_ray query' "
                "for one-shot requests over the same tables"
            ) from exc
        mcp = FastMCP("chunksilo-ray")  # pragma: no cover

    # bind the module-level request fns under private names so the tool
    # functions can carry the reference's public tool names (the inner defs
    # make those names function-local, so fetch the module fns via globals())
    _search = globals()["search_docs"]
    _lookup = globals()["entity_lookup"]
    _neighbors = globals()["entity_neighbors"]

    @mcp.tool()
    def search_docs(  # noqa: F811 - tool name contract (reference server.py:61)
        query: str, date_from: str | None = None, date_to: str | None = None
    ) -> dict:
        """Search the built chunk table; ranked chunks + conversation rollup."""
        return _search(out_dir, query, date_from=date_from, date_to=date_to, cfg=cfg)

    @mcp.tool()
    def entity_lookup(surface: str, k: int = 10) -> list:  # noqa: F811
        """Resolve a surface form against the KG nodes table."""
        return _lookup(out_dir, surface, k=k)

    @mcp.tool()
    def entity_neighbors(entity_id: str, k: int = 20) -> list:  # noqa: F811
        """Top-k weighted edges touching an entity in the aggregated KG."""
        return _neighbors(out_dir, entity_id, k=k)

    return mcp


def entity_neighbors(out_dir: str, entity_id: str, k: int = 20) -> list[dict]:
    """Top-k weighted edges touching an entity from the aggregated edge
    table — the KG-native query the reference's flat index cannot answer."""
    edges = rd.read_parquet(f"{out_dir}/edges_agg")

    def touch(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.or_(pc.equal(t["subj"], entity_id), pc.equal(t["obj"], entity_id))
        )

    hits = _top_rows(
        edges, touch, k,
        [("weight", "descending"), ("subj", "ascending"), ("pred", "ascending"), ("obj", "ascending")],
    )
    return [
        {"subj": r["subj"], "pred": r["pred"], "obj": r["obj"], "weight": r["weight"]}
        for r in hits
    ]
