"""Entity-surface canonicalization: MinHash-LSH banding + verify + union-find.

The graft's near-dup merge (SURVEY.md §2.7): unknown mention surfaces (those
the alias index could not link) are clustered so variants like "Flumetrics" /
"flu-metrics" / "Flumetric" collapse to one canonical entity id.

Distributed shape (the LSH groupby is SHUFFLE #2 of the pipeline):

    distinct unknown norms (groupby(norm) over a batch-deduped stream)
      -> map_batches: MinHash signatures over char shingles (vectorized,
         crc32 base hashes — deterministic across processes, unlike hash())
      -> explode to (band_id, band_hash, norm) rows
      -> groupby(band_id, band_hash) -> candidate pairs (group-size capped:
         skew guard, reference-style cap pattern search.py:338)
      -> verify: exact jaccard >= tau OR BoW-cosine >= tau2
      -> driver-side union-find over the (small, capped) verified edge list
      -> canonical map, which materialize.materialize_graph applies to the
         placeholder ids (broadcast, or a per-part lookup past its budget)

The oracle (chunksilo_ray.oracle.extractor) runs the same verify thresholds
EXACTLY (all candidate pairs, no LSH) — the P/R gate absorbs LSH misses.
"""

from __future__ import annotations

import os
import pathlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ray.data import Dataset
from ray.data.aggregate import Count

from .. import rules
from .embed import bow_hash_embed


_MERSENNE = (1 << 61) - 1


def _hash_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MERSENNE, size=num_perm, dtype=np.int64)
    b = rng.integers(0, _MERSENNE, size=num_perm, dtype=np.int64)
    return a, b


def _minhash_sig_exact(base: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact ``min((a*x + b) mod (2^61-1))`` over 32-bit base hashes ``x``,
    fully vectorized in uint64 with NO silent overflow.

    The naive int64 product a*x wraps (a can be ~2^61, x up to 2^32), so the
    multiply is split: with a = a_hi*2^31 + a_lo (a_hi < 2^30, a_lo < 2^31)
    and x < 2^32,

        a*x mod M = (a_lo*x mod M) + ((a_hi*x mod M) * 2^31 mod M)   (mod M)

    where a_lo*x < 2^63 and a_hi*x < 2^62 fit uint64 exactly, and the final
    *2^31 uses 2^61 === 1 (mod M): y*2^31 = (y>>30) + ((y & (2^30-1)) << 31)
    (mod M). Verified bit-equal to a pure-Python big-int reference in
    tests/test_canon.py."""
    M = np.uint64(_MERSENNE)
    x = base.astype(np.uint64)[None, :]
    au = a.astype(np.uint64)[:, None]
    bu = b.astype(np.uint64)[:, None]
    a_hi = au >> np.uint64(31)
    a_lo = au & np.uint64((1 << 31) - 1)
    t1 = (a_lo * x) % M
    t2 = (a_hi * x) % M
    r = ((t2 >> np.uint64(30)) + ((t2 & np.uint64((1 << 30) - 1)) << np.uint64(31))) % M
    vals = (t1 + r + bu) % M
    return vals.min(axis=1).astype(np.int64)


def minhash_signature(norm: str, a: np.ndarray, b: np.ndarray, k: int = rules.SHINGLE_K) -> np.ndarray:
    """num_perm minhash values over crc32-hashed char shingles (exact
    mod-Mersenne universal hashing, see _minhash_sig_exact)."""
    shingles = rules.char_shingles(norm, k)
    base = np.fromiter(
        (zlib.crc32(s.encode("utf-8")) for s in shingles), dtype=np.uint64, count=len(shingles)
    )
    return _minhash_sig_exact(base, a, b)


class _BandRows:
    """map_batches: norm -> (band_id, band_hash, norm) rows."""

    def __init__(self, num_perm: int, bands: int, shingle_k: int):
        assert num_perm % bands == 0
        self.rows_per_band = num_perm // bands
        self.bands = bands
        self.shingle_k = shingle_k
        self.a, self.b = _hash_params(num_perm)

    def __call__(self, t: pa.Table) -> pa.Table:
        norms = t.column("norm").to_pylist()
        band_ids: list[int] = []
        band_hashes: list[int] = []
        out_norms: list[str] = []
        for norm in norms:
            sig = minhash_signature(norm, self.a, self.b, self.shingle_k)
            for bi in range(self.bands):
                chunk = sig[bi * self.rows_per_band : (bi + 1) * self.rows_per_band]
                h = zlib.crc32(chunk.tobytes())
                band_ids.append(bi)
                band_hashes.append(h)
                out_norms.append(norm)
        return pa.table(
            {
                "band_id": pa.array(band_ids, pa.int32()),
                "band_hash": pa.array(band_hashes, pa.int64()),
                "norm": pa.array(out_norms, pa.string()),
            }
        )


def _check_bucket(size: int, max_group: int) -> None:
    """Skew guard: pairing a bucket past ``max_group`` norms is refused.
    Dropping its pairs instead would leave the canonical map wrong with
    nothing to show for it, so the build stops."""
    if size > max_group:
        raise ValueError(
            f"LSH bucket of {size} norms exceeds canon.max_group={max_group}; "
            "raise canon.max_group"
        )


def _candidate_pairs_group(max_group: int):
    def fn(t: pa.Table) -> pa.Table:
        norms = sorted(set(t.column("norm").to_pylist()))
        _check_bucket(len(norms), max_group)
        left: list[str] = []
        right: list[str] = []
        for i in range(len(norms)):
            for j in range(i + 1, len(norms)):
                left.append(norms[i])
                right.append(norms[j])
        return pa.table({"a": pa.array(left, pa.string()), "b": pa.array(right, pa.string())})

    return fn


def verify_pair(
    a: str,
    b: str,
    jaccard_threshold: float = rules.JACCARD_THRESHOLD,
    cosine_threshold: float = rules.COSINE_THRESHOLD,
) -> bool:
    """Exact verify shared with the oracle: jaccard OR BoW-cosine threshold.
    Thresholds default to the rules.py spec constants and are threaded from
    the ``canon`` config section by build_canonical_map (so the config knobs
    are live, and checkpoint fingerprints change WITH behavior)."""
    ja = rules.jaccard(rules.char_shingles(a), rules.char_shingles(b))
    if ja >= jaccard_threshold:
        return True
    va, vb = bow_hash_embed([a.replace("-", " "), b.replace("-", " ")])
    return float(va @ vb) >= cosine_threshold


def _verify_batch_fn(jaccard_threshold: float, cosine_threshold: float):
    def _verify_batch(t: pa.Table) -> pa.Table:
        # batch-local pair dedup first: the same pair fires in many LSH bands
        seen: set[tuple[str, str]] = set()
        av = t.column("a").to_pylist()
        bv = t.column("b").to_pylist()
        keep_a: list[str] = []
        keep_b: list[str] = []
        for x, y in zip(av, bv):
            if (x, y) in seen:
                continue
            seen.add((x, y))
            if verify_pair(x, y, jaccard_threshold, cosine_threshold):
                keep_a.append(x)
                keep_b.append(y)
        return pa.table({"a": pa.array(keep_a, pa.string()), "b": pa.array(keep_b, pa.string())})

    return _verify_batch


class UnionFind:
    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent.setdefault(x, x)
        if p != x:
            root = self.find(p)
            self.parent[x] = root
            return root
        return x

    def union(self, x: str, y: str) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # deterministic: lexicographically smaller root wins
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def canonical_map_from_edges(edges: list[tuple[str, str]]) -> dict[str, str]:
    """Union-find merge; canonical representative = lexicographic min of the
    cluster. Returns only norms whose canonical differs from themselves plus
    cluster members (identity mappings omitted)."""
    uf = UnionFind()
    for a, b in edges:
        uf.union(a, b)
    out: dict[str, str] = {}
    for x in list(uf.parent):
        root = uf.find(x)
        if root != x:
            out[x] = root
    # second pass: roots of multi-member clusters map to themselves implicitly
    return out


def batch_distinct_unknown_norms(t: pa.Table) -> pa.Table:
    """Batch-local distinct unknown norms (partial-aggregate pattern);
    ID-like norms are excluded — already canonical (rules.is_id_norm).
    Accepts either flat mention rows (norm/known columns) or the nested
    extraction output (mentions list<struct>) — the nested path avoids
    materializing an exploded mention dataset just to collect norms."""
    if "mentions" in t.column_names:
        lst = t.column("mentions")
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        flat = lst.flatten()
        norm_col = flat.field("norm").filter(pc.invert(flat.field("known")))
    else:
        norm_col = t.column("norm").filter(pc.invert(t.column("known")))
    uniq = pc.unique(norm_col)
    mask = pc.invert(pc.match_substring_regex(uniq, rules.ID_NORM_RE.pattern))
    return pa.table({"norm": uniq.filter(mask)})


def build_canonical_map(
    mentions: Dataset,
    num_perm: int = 64,
    bands: int = 32,
    shingle_k: int = rules.SHINGLE_K,
    max_group: int = 256,
    max_pairs: int = 2_000_000,
    driver_threshold: int = 200_000,
    jaccard_threshold: float = rules.JACCARD_THRESHOLD,
    cosine_threshold: float = rules.COSINE_THRESHOLD,
    norms: "set[str] | None" = None,
) -> dict[str, str]:
    """Full distributed candidate generation + verify; returns the (small)
    canonical map for the driver to broadcast. ``mentions`` is the exploded
    mention dataset (needs columns norm, known). ``norms`` may carry a
    pre-collected distinct-unknown-norm set (the KG pipeline piggybacks the
    collection on its dead-letter scan so the extracted table is read
    once); when None, the scan below collects it."""
    if norms is None:
        unknown = mentions.map_batches(
            batch_distinct_unknown_norms,
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        )
        # collect the distinct norms: per-batch uniques stream to the driver
        # and union into a set. With ID-like norms excluded, the
        # distinct-surface vocabulary is tiny relative to the corpus (it
        # grows with the ENTITY vocabulary, not the row count).
        norms = set()
        for b in unknown.iter_batches(batch_format="pyarrow"):
            norms.update(b["norm"].to_pylist())

    if len(norms) <= driver_threshold:
        # fast path: banding + verify locally — same algorithm, no extra
        # distributed execution on the critical path
        return _driver_lsh_map(
            sorted(norms), num_perm, bands, shingle_k, max_group,
            jaccard_threshold, cosine_threshold,
        )

    # scale path: distribute banding + candidate pairing + verification
    distinct = rd.from_items([{"norm": n} for n in sorted(norms)])
    bands_ds = distinct.map_batches(
        _BandRows(num_perm, bands, shingle_k), batch_format="pyarrow", batch_size=8192
    )
    pairs = bands_ds.groupby(["band_id", "band_hash"]).map_groups(
        _candidate_pairs_group(max_group), batch_format="pyarrow"
    )
    # verify with batch-local pair dedup (the same pair fires in many bands);
    # the final cross-batch dedup happens in the driver's set — the edge list
    # is small by construction (capped buckets, verified pairs only)
    verified = pairs.map_batches(
        _verify_batch_fn(jaccard_threshold, cosine_threshold),
        batch_format="pyarrow", batch_size=8192,
    )
    # the union-find runs on the driver: more verified pairs than the cap
    # would have to be truncated, and which ones arrive first is not
    # deterministic, so the build stops instead
    edge_rows = verified.take(max_pairs + 1)
    if len(edge_rows) > max_pairs:
        raise ValueError(
            f"canonical edge list exceeds canon.max_pairs={max_pairs}; raise canon.max_pairs"
        )
    edges = sorted({(r["a"], r["b"]) for r in edge_rows})
    return canonical_map_from_edges(edges)


def _driver_lsh_map(
    norms: list[str],
    num_perm: int,
    bands: int,
    shingle_k: int,
    max_group: int,
    jaccard_threshold: float = rules.JACCARD_THRESHOLD,
    cosine_threshold: float = rules.COSINE_THRESHOLD,
) -> dict[str, str]:
    """Single-process LSH banding + verify over a small distinct-norm set —
    identical algorithm/parameters to the distributed path."""
    br = _BandRows(num_perm, bands, shingle_k)
    buckets: dict[tuple[int, int], list[str]] = {}
    for norm in norms:
        sig = minhash_signature(norm, br.a, br.b, shingle_k)
        for bi in range(br.bands):
            h = zlib.crc32(sig[bi * br.rows_per_band : (bi + 1) * br.rows_per_band].tobytes())
            buckets.setdefault((bi, h), []).append(norm)
    seen: set[tuple[str, str]] = set()
    edges: list[tuple[str, str]] = []
    for members in buckets.values():
        if len(members) < 2:
            continue
        ms = sorted(set(members))
        _check_bucket(len(ms), max_group)
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                pair = (ms[i], ms[j])
                if pair in seen:
                    continue
                seen.add(pair)
                if verify_pair(*pair, jaccard_threshold, cosine_threshold):
                    edges.append(pair)
    return canonical_map_from_edges(edges)


class CanonicalDriftError(RuntimeError):
    """Raised when an appended corpus re-canonicalizes old norms in a way
    that is not a pure cluster merge (only possible via LSH bucket caps) —
    the incremental fold would be lossy, so the caller must full-rebuild."""


def canonical_remap(
    old_map: dict[str, str], new_map: dict[str, str], old_norms
) -> dict[str, str]:
    """Cluster-level delta between two canonical maps over the SAME old norm
    vocabulary: {old_canonical -> new_canonical} for every drifted cluster.

    Adding norms/pairs to union-find can only MERGE clusters (monotone), so
    drift is representable as a canonical->canonical rewrite of the already
    materialized base tables — no re-extraction. If two norms that shared an
    old canonical now disagree (a split, possible only when an LSH bucket
    cap dropped pairs), the fold would be wrong: fail loud with
    CanonicalDriftError and require a rebuild."""
    remap: dict[str, str] = {}
    for n in old_norms:
        oc = old_map.get(n, n)
        nc = new_map.get(n, n)
        if oc == nc:
            continue
        prev = remap.get(oc)
        if prev is not None and prev != nc:
            raise CanonicalDriftError(
                f"non-merge canonical drift: old cluster {oc!r} maps to both "
                f"{prev!r} and {nc!r}; incremental fold impossible — rebuild"
            )
        remap[oc] = nc
    # a merge target that is itself an old canonical must not also drift
    for oc, nc in remap.items():
        final = remap.get(nc)
        if final is not None and final != nc:
            raise CanonicalDriftError(
                f"chained canonical drift {oc!r}->{nc!r}->{final!r}; rebuild"
            )
    return remap


def canonicalize_id(entity_id: str, cmap: dict[str, str]) -> str:
    if entity_id.startswith(rules.UNKNOWN_PREFIX):
        norm = entity_id[len(rules.UNKNOWN_PREFIX) :]
        return rules.CANONICAL_PREFIX + cmap.get(norm, norm)
    return entity_id


def _canonical_map_table(cmap: dict[str, str]) -> pa.Table:
    keys = sorted(cmap)
    return pa.table(
        {
            "norm": pa.array(keys, pa.string()),
            "canonical": pa.array([cmap[k] for k in keys], pa.string()),
        }
    )


# the map's one persistent form: a flat (norm, canonical) Parquet table with
# the lineage fingerprint in its schema metadata. The same file lets an
# external SQL engine recompute edges/nodes from the extracted checkpoint by
# joining the map (the kg_* DuckDB oracles).
_CMAP_FILE = "canonical_map.parquet"
_CMAP_FP_KEY = b"fingerprint"


def save_canonical_map(out, cmap: dict[str, str], fp: str) -> None:
    """Atomically write ``cmap`` under ``out`` tagged with lineage ``fp``."""
    path = pathlib.Path(out) / _CMAP_FILE
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(
        _canonical_map_table(cmap).replace_schema_metadata({_CMAP_FP_KEY: fp.encode()}),
        tmp,
    )
    os.replace(tmp, path)


def load_canonical_map(out, fp: str) -> dict[str, str] | None:
    """The map saved under ``out``, or None when there is none or it was
    built for a different lineage fingerprint than ``fp``."""
    path = pathlib.Path(out) / _CMAP_FILE
    if not path.exists():
        return None
    t = pq.read_table(path)
    if (t.schema.metadata or {}).get(_CMAP_FP_KEY) != fp.encode():
        return None
    return dict(zip(t["norm"].to_pylist(), t["canonical"].to_pylist()))
