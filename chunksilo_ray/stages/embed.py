"""Embedding as an actor-pool map_batches stage.

The reference hosts a FastEmbed ONNX model created once per process and fed
512-text bulk calls (reference src/chunksilo/index.py:1091-1124 — the comment
there documents a ~38x call-overhead reduction vs per-10 batching). The Ray
translation: a callable CLASS passed to ``map_batches(..., concurrency=N)``
so the model loads once per actor in ``__init__`` and every ``__call__``
embeds a whole Arrow batch.

Default backend is the deterministic 384-d Bag-of-Words hash embedding that
the reference's own test suite swaps in for ML-free runs (reference
test/conftest.py:36-55: ``vec[sum(ord(c) for c in word) % 384] += 1`` per
lowercase word) — FIXTURES.md §7 makes that the gated-test contract. A real
ONNX model would drop into ``_load_backend`` without touching the pipeline.
Vectors are L2-normalized so cosine similarity is a plain dot product
downstream.
"""

from __future__ import annotations

import re
from functools import partial

import numpy as np
import pyarrow as pa

from ray.data import Dataset

_WORD_RE = re.compile(r"[A-Za-z0-9]+")


_BUCKET_CACHE_CAP = 1 << 16


def _string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(value_offsets, value_bytes) numpy views of a string/large_string
    array — zero-copy reads of Arrow's own buffers."""
    if pa.types.is_large_string(arr.type):
        width, dtype = 8, np.int64
    else:
        width, dtype = 4, np.int32
    offs = np.frombuffer(
        arr.buffers()[1], dtype=dtype, count=len(arr) + 1, offset=arr.offset * width
    )
    vals = np.frombuffer(arr.buffers()[2], dtype=np.uint8)
    return offs.astype(np.int64, copy=False), vals


def embedding_matrix(col: pa.Array | pa.ChunkedArray, dtype=np.float32) -> np.ndarray:
    """An embedding column as an ``(n, d)`` ndarray of ``dtype``, read off
    Arrow's value buffer (``flatten().to_numpy()``): no Python float per
    element, and a copy only where the column has several chunks or the
    dtype changes. Takes fixed-size lists and variable lists whose rows
    all have one width; a sliced column reads only its own rows. Raises
    ``ValueError`` on a null embedding, a null element or ragged rows."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    n = len(col)
    if col.null_count:
        raise ValueError(f"embedding column has {col.null_count} null row(s) of {n}")
    if pa.types.is_fixed_size_list(col.type):
        dim = col.type.list_size
    elif pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
        widths = np.diff(col.offsets.to_numpy())
        dim = int(widths[0]) if n else 0
        if (widths != dim).any():
            raise ValueError(
                f"ragged embedding column: row widths {sorted(set(widths.tolist()))[:5]}"
            )
    else:
        raise TypeError(f"embedding column must be a list type, got {col.type}")
    values = col.flatten()
    if values.null_count:
        raise ValueError(f"embedding column has {values.null_count} null element(s)")
    return values.to_numpy(zero_copy_only=False).astype(dtype, copy=False).reshape(n, dim)


def bow_hash_embed_arrow(texts: pa.ChunkedArray | pa.Array, dim: int = 384) -> np.ndarray:
    """Vectorized twin of :func:`bow_hash_embed` (parity-tested): same
    ``vec[sum(ord(c) for c in word) % dim] += 1`` contract, computed at C
    speed straight off Arrow buffers.

    Equivalences that make this exact, not approximate:
    - the scalar path lowercases FIRST, so ``findall([A-Za-z0-9]+)`` on the
      lowered text equals ``split on [^a-z0-9]+`` minus empty fragments;
    - every token is pure ASCII by construction, so ``sum(ord(c))`` equals
      the token's UTF-8 byte sum, read via ``np.add.reduceat``-style prefix
      sums over the flattened word buffer."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    out = np.zeros((n, dim), dtype=np.float32)
    if n == 0:
        return out
    if texts.null_count:
        texts = pa.compute.fill_null(texts, "")
    toks = pa.compute.split_pattern_regex(pa.compute.utf8_lower(texts), "[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    row_of = np.repeat(
        np.arange(n, dtype=np.int64),
        toks.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64),
    )
    flat = toks.flatten()
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0 or flat.buffers()[2] is None:
        return out
    voffs, vals = _string_buffers(flat)
    csum = np.concatenate(([0], np.cumsum(vals, dtype=np.int64)))
    sums = csum[voffs[1:]] - csum[voffs[:-1]]
    nonempty = voffs[1:] > voffs[:-1]  # split() emits empty edge fragments
    np.add.at(out.reshape(-1), row_of[nonempty] * dim + (sums[nonempty] % dim), 1.0)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def bow_hash_embed(
    texts: list[str], dim: int = 384, _cache: dict[str, int] | None = None
) -> np.ndarray:
    """Deterministic BoW-hash embeddings, L2-normalized float32 (n, dim).
    ``_cache`` memoizes word->bucket (actor-lifetime in the Ray stage)."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    cache = _cache if _cache is not None else {}
    if len(cache) > _BUCKET_CACHE_CAP:
        cache.clear()
    get = cache.get
    for i, text in enumerate(texts):
        words = _WORD_RE.findall(text.lower())
        if not words:
            continue
        row = out[i]
        for w in words:
            b = get(w)
            if b is None:
                b = sum(map(ord, w)) % dim
                cache[w] = b
            row[b] += 1.0
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


def _charngram_word_buckets(word: str, dim: int) -> np.ndarray:
    """Hashed char n-gram bucket ids for one word, fastText-style
    (Bojanowski et al. 2017, public): boundary-marked 3..5-grams plus the
    whole word, each CRC-hashed into [0, dim). Subword overlap is what makes
    alias variants ('database' / 'data-base' / 'DB_URL') land near each
    other — the stronger deterministic stand-in the BoW contract lacks."""
    import zlib

    w = f"<{word}>"
    grams = [w]
    for n in (3, 4, 5):
        if len(w) > n:
            grams.extend(w[i : i + n] for i in range(len(w) - n + 1))
    return np.fromiter(
        (zlib.crc32(g.encode("utf-8")) % dim for g in grams), np.int64, len(grams)
    )


def charngram_embed_arrow(
    texts: pa.ChunkedArray | pa.Array,
    dim: int = 384,
    memo: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """Char-ngram hashed embeddings, L2-normalized float32 (n, dim).
    Python work is O(NEW distinct words) per batch — each unique word's
    bucket array is memoized (worker-lifetime in the Ray stage) and the
    per-occurrence accumulation is a single vectorized scatter-add."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    out = np.zeros((n, dim), dtype=np.float32)
    if n == 0:
        return out
    if texts.null_count:
        texts = pa.compute.fill_null(texts, "")
    toks = pa.compute.split_pattern_regex(pa.compute.utf8_lower(texts), "[^a-z0-9]+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    row_of = np.repeat(
        np.arange(n, dtype=np.int64),
        toks.value_lengths().to_numpy(zero_copy_only=False).astype(np.int64),
    )
    flat = toks.flatten()
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    if len(flat) == 0:
        return out
    d = flat.dictionary_encode()
    uniq = d.dictionary.to_pylist()
    inv = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)

    memo = memo if memo is not None else {}
    if len(memo) > _BUCKET_CACHE_CAP:
        memo.clear()
    bucket_list = []
    for w in uniq:
        if not w:
            bucket_list.append(np.empty(0, np.int64))  # split() edge fragments
            continue
        b = memo.get(w)
        if b is None:
            b = _charngram_word_buckets(w, dim)
            memo[w] = b
        bucket_list.append(b)
    lens_u = np.fromiter((len(b) for b in bucket_list), np.int64, len(bucket_list))
    flat_u = np.concatenate(bucket_list) if bucket_list else np.empty(0, np.int64)
    starts_u = np.concatenate(([0], np.cumsum(lens_u)))[:-1]

    occ_lens = lens_u[inv]
    total = int(occ_lens.sum())
    if total == 0:
        return out
    # gather each occurrence's bucket run from the unique-word flat buffer
    ends = np.cumsum(occ_lens)
    pos = np.arange(total, dtype=np.int64) - np.repeat(ends - occ_lens, occ_lens)
    gather = np.repeat(starts_u[inv], occ_lens) + pos
    rows_rep = np.repeat(row_of, occ_lens)
    np.add.at(out.reshape(-1), rows_rep * dim + flat_u[gather], 1.0)
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    np.divide(out, norms, out=out, where=norms > 0)
    return out


# worker-global memo for the stateless-task charngram stage (same pattern as
# link.py's _WORKER_ALIAS: state builds once per warm worker, keyed by dim)
_WORKER_NGRAM_MEMO: dict[int, dict[str, np.ndarray]] = {}


def charngram_embed(texts: list[str], dim: int = 384) -> np.ndarray:
    """List-of-str convenience twin (query-time single-text embedding)."""
    return charngram_embed_arrow(pa.array(texts, pa.string()), dim=dim)


class EmbedActor:
    """Actor-pool stage: adds a fixed-size ``embedding`` list<float32>[dim]
    column. State (model/backend) initialized once per actor."""

    def __init__(
        self,
        backend: str = "bow",
        dim: int = 384,
        text_column: str = "text",
        model_name: str = "BAAI/bge-small-en-v1.5",
    ):
        self.dim = dim
        self.text_column = text_column
        if backend == "bow":
            self._embed = None  # __call__ uses the vectorized Arrow kernel
        elif backend == "charngram":
            memo: dict[str, np.ndarray] = {}  # actor-lifetime word memo

            def _cg(col: pa.Array) -> np.ndarray:
                return charngram_embed_arrow(col, self.dim, memo)

            self._embed_arrow = _cg
            self._embed = "arrow"  # sentinel: __call__ keeps the Arrow column
        elif backend == "onnx":
            # real-model seam (reference lazy ONNX load, index.py:1091-1124):
            # the model loads ONCE here — per actor, not per batch — and the
            # pipeline contract (fixed-size list<float32>[dim] column out of
            # whole-batch bulk calls) is identical to the bow path. This
            # container ships no model runtime, so the import fails with an
            # actionable error instead of a stub silently embedding garbage.
            try:  # pragma: no cover - fastembed absent in this environment
                from fastembed import TextEmbedding  # type: ignore[import-not-found]
            except ImportError as exc:
                raise RuntimeError(
                    f"embedding backend 'onnx' needs the fastembed package to "
                    f"load {model_name!r}; install it or use backend='bow'"
                ) from exc
            model = TextEmbedding(model_name)  # pragma: no cover

            def _onnx_embed(texts: list[str]) -> np.ndarray:  # pragma: no cover
                vecs = np.asarray(list(model.embed(texts, batch_size=512)), dtype=np.float32)
                norms = np.linalg.norm(vecs, axis=1, keepdims=True)
                return np.divide(vecs, norms, where=norms > 0)

            self._embed = _onnx_embed  # pragma: no cover
        else:
            raise NotImplementedError(
                f"embedding backend {backend!r}: known backends are 'bow' "
                "(deterministic test contract), 'charngram' (deterministic "
                "subword-hash, fastText-style) and 'onnx' (fastembed seam)"
            )

    def __call__(self, t: pa.Table) -> pa.Table:
        col_in = t.column(self.text_column)
        if self._embed is None:
            vecs = bow_hash_embed_arrow(col_in, self.dim)
        elif self._embed == "arrow":
            vecs = self._embed_arrow(col_in)
        else:
            vecs = self._embed(col_in.to_pylist())
        col = pa.FixedSizeListArray.from_arrays(pa.array(vecs.ravel(), pa.float32()), self.dim)
        return t.append_column("embedding", col)


def embeds_in_task(backend: str, mode: str = "auto") -> bool:
    """Whether ``embed_chunks`` runs stateless tasks (else an actor pool).
    ``auto`` picks by state cost: the bow and charngram backends' only
    state is a word memo (rebuilds in microseconds), so they run as tasks
    on warm workers; a real model backend (onnx) keeps the actor pool so
    weights load once per actor, never per task-worker."""
    if mode == "auto":
        mode = "tasks" if backend in ("bow", "charngram") else "actors"
    return mode == "tasks" and backend in ("bow", "charngram")


def embed_table(t: pa.Table, backend: str = "bow", dim: int = 384) -> pa.Table:
    """``t`` plus the ``embedding`` of its ``text`` column under a stateless
    backend (bow or charngram; charngram's word memo lives for the
    worker)."""
    if backend == "bow":
        vecs = bow_hash_embed_arrow(t.column("text"), dim)
    else:
        memo = _WORKER_NGRAM_MEMO.setdefault(dim, {})
        vecs = charngram_embed_arrow(t.column("text"), dim, memo)
    col = pa.FixedSizeListArray.from_arrays(pa.array(vecs.ravel(), pa.float32()), dim)
    return t.append_column("embedding", col)


def embed_chunks(
    chunks: Dataset,
    backend: str = "bow",
    dim: int = 384,
    batch_size: int = 4096,
    concurrency: int | tuple[int, int] = 4,
    num_cpus: float = 1,
    mode: str = "auto",
) -> Dataset:
    """Stage modes: stateless tasks or an actor pool, as ``embeds_in_task``
    picks."""
    if embeds_in_task(backend, mode):
        return chunks.map_batches(
            partial(embed_table, backend=backend, dim=dim),
            batch_format="pyarrow",
            batch_size=batch_size,
            zero_copy_batch=True,
        )
    # cluster-sized autoscaling pool (see link.py rationale); 0 = pure auto
    if isinstance(concurrency, int):
        from ..util import pool_bounds

        concurrency = pool_bounds(concurrency if concurrency > 0 else None, num_cpus)
    return chunks.map_batches(
        EmbedActor,
        fn_constructor_kwargs={"backend": backend, "dim": dim},
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=num_cpus,
        zero_copy_batch=True,
    )
