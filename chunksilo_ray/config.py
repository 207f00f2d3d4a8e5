"""Layered configuration with deep-merge defaults.

Mirrors the semantics of the reference's config loader (reference
src/chunksilo/cfgload.py:44-137): a dict of defaults, deep-merged with an
optional user YAML file, plus dot-path ``get``. Values the reference exposes
(chunk_size 512 / chunk_overlap 50, embed batch 512, parallel workers, caps)
keep their meanings here, re-targeted at the Ray pipeline stages.
"""

from __future__ import annotations

import copy
from typing import Any

DEFAULTS: dict[str, Any] = {
    "chunking": {
        # reference defaults: cfgload.py:65-66 (chunk_size 512, overlap 50),
        # measured in whitespace tokens here (the reference counts model tokens).
        "chunk_size": 512,
        "chunk_overlap": 50,
    },
    "embedding": {
        "backend": "bow",  # deterministic 384-d bag-of-words hash (test contract)
        "dim": 384,
        # bulk-call lever, reference index.py:1091-1124. 512 was tuned for
        # the per-word Python kernel; the vectorized Arrow bow kernel
        # amortizes better at 4096 (output alloc 4096x384 f32 = 6 MB/batch,
        # still heap-safe with a full actor pool)
        "batch_size": 4096,
        "concurrency": 0,  # 0 = size pool from cluster CPUs (util.pool_bounds)
        "num_cpus": 1,
        # auto = stateless tasks for cheap state (bow), actor pool for
        # expensive state (onnx model weights); see stages/embed.py
        "mode": "auto",
    },
    "linking": {
        "max_ngram": 3,  # longest alias n-gram matched during the scan
        "batch_size": 2048,
        # wall-clock budget per row in the extraction task (reference
        # per_file_seconds, cfgload.py:74-80): over-budget rows dead-letter
        "per_row_seconds": 5.0,
    },
    "canon": {
        "num_perm": 64,  # MinHash permutations
        "bands": 32,  # 32 bands x 2 rows — catches jaccard>=0.6 w/ p~1.0
        "shingle_k": 3,  # character shingles over normalized surfaces
        "jaccard_threshold": 0.6,
        "cosine_threshold": 0.90,  # secondary verify on BoW embeddings
        "max_group": 256,  # largest LSH bucket paired (skew guard; the build raises past it)
        "max_pairs": 2_000_000,  # driver union-find edge-list cap (the build raises past it)
    },
    "runtime": {
        "target_max_block_size": None,  # bytes; None = Ray default (128 MiB)
    },
    "search": {
        # query-embedding backend — must mirror embedding.backend used at
        # build time ("bow" or "charngram")
        "embed_backend": "bow",
        # retained reference knobs (cfgload.py:86-96) for the search-style ops
        "embed_top_k": 20,
        "rerank_candidates": 100,
        "rerank_top_k": 5,
        # "lexical" = deterministic query-token-coverage cross-scorer (the
        # in-container stand-in for FlashRank); "passthrough" = echo the
        # retrieval score (the reference's rerank-failure fallback order)
        "rerank_backend": "lexical",
        "recency_half_life_days": 30.0,
        "recency_weight": 0.5,
        "min_score": 0.0,
    },
}


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge: override wins, nested dicts merge (cfgload.py:127-137)."""
    out = copy.deepcopy(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = deep_merge(out[k], v)
        else:
            out[k] = copy.deepcopy(v)
    return out


class Config:
    """Dot-path config view over merged defaults (cfgload.py:176-200 semantics)."""

    def __init__(self, overrides: dict | None = None):
        self._data = deep_merge(DEFAULTS, overrides or {})

    @classmethod
    def from_yaml(cls, path: str) -> "Config":
        import yaml

        with open(path) as f:
            data = yaml.safe_load(f) or {}
        return cls(data)

    def get(self, dotted: str, default: Any = None) -> Any:
        node: Any = self._data
        for part in dotted.split("."):
            if not isinstance(node, dict) or part not in node:
                return default
            node = node[part]
        return node

    def section(self, name: str) -> dict:
        return copy.deepcopy(self._data.get(name, {}))

    def as_dict(self) -> dict:
        return copy.deepcopy(self._data)
