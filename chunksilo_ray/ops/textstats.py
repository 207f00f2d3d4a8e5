"""Text-analysis operators over the ``documents`` table (task brief: language
ID, quality scoring, token counting, document fingerprinting) — the
training-data-pipeline staples, each as a vectorized map_batches stage.

Column names match the oracle SQL in __ray_entry__.oracle_sql() where the
semantics are SQL-expressible; heuristics that aren't (n-gram language ID,
rolling-hash fingerprints) ship rows-only checks.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import Dataset
from ray.data.aggregate import Count, Mean, Sum

from ..exchange import map_partitions, part_ids

_WORD_RE = re.compile(r"[A-Za-z0-9]+")

# tiny per-language stopword profiles for the n-gram/stopword language
# heuristic (public-knowledge lists; langid libs aren't in this container)
_LANG_PROFILES: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to in is you that it he was for on are as with".split()),
    "de": frozenset("der die und in den von zu das mit sich des auf ist nicht".split()),
    "fr": frozenset("le la et les des en un du une que est pour qui dans".split()),
    "es": frozenset("el la de que y en un los se del las por con una".split()),
}


def _docs(sf_dir: str, columns: list[str] | None = None) -> Dataset:
    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_token_counts(sf_dir: str) -> Dataset:
    """doc_id + n_tokens (alnum-run tokens) + n_chars — SQL-matchable via
    DuckDB regexp_extract_all length."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def g(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_tok = [len(_WORD_RE.findall(x)) for x in texts]
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )

    return ds.map_batches(g, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def docs_by_lang(sf_dir: str) -> Dataset:
    """Grouped doc counts + mean length per language tag."""
    ds = _docs(sf_dir, ["lang", "n_chars"])
    agg = ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"), Mean("n_chars", alias_name="avg_chars")
    )
    from .relational import round_columns

    return round_columns(agg, ["avg_chars"])


class LangIdActor:
    """Stopword-profile language ID (n-gram heuristic): state — the merged
    word->languages lookup + compiled regex — is built once per worker
    (reference pattern: stateful stages table, SURVEY.md §2.3). A word may
    sit in several profiles ('in' is both English and German), so the merged
    map fans each token out to ALL its languages in ONE dict probe — the
    per-language membership scans of the first version cost |langs| set
    probes per token."""

    _LANG_ORDER = tuple(_LANG_PROFILES)  # insertion order breaks ties

    def __init__(self):
        self.word = _WORD_RE
        lookup: dict[str, tuple[int, ...]] = {}
        for li, (_, prof) in enumerate(_LANG_PROFILES.items()):
            for w in prof:
                lookup[w] = (*lookup.get(w, ()), li)
        self.lookup = lookup

    def __call__(self, t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        langs: list[str] = []
        hits_out: list[int] = []
        ntok_out: list[int] = []
        lookup, order = self.lookup, self._LANG_ORDER
        for x in texts:
            toks = self.word.findall(x.lower())
            n = len(toks)
            counts = [0] * len(order)
            for w in toks:
                for li in lookup.get(w, ()):
                    counts[li] += 1
            # max with insertion-order tiebreak (en > de > fr > es),
            # strictly-greater to advance — the oracle SQL mirrors this
            # with ordered CASE arms
            best = max(counts) if n else 0
            best_lang = order[counts.index(best)] if best else "und"
            # confidence gate best/n > 0.05 as the exact integer compare
            # 20*best > n (float-rounding-proof; SQL does the same)
            langs.append(best_lang if n and 20 * best > n else "und")
            hits_out.append(best)
            ntok_out.append(n)
        out = t.select([c for c in ("doc_id",) if c in t.column_names])
        out = out.append_column("pred_lang", pa.array(langs, pa.string()))
        out = out.append_column("n_hits", pa.array(hits_out, pa.int64()))
        out = out.append_column("n_tokens", pa.array(ntok_out, pa.int64()))
        return out


_LANGID_MEMO: list = []


def _langid_batch(t: pa.Table) -> pa.Table:
    # stateless task + worker-global memo: same load-once state as the actor
    # pool without per-query actor spin-up (the pattern link/embed use for
    # small sessions); the lookup build is microseconds either way
    if not _LANGID_MEMO:
        _LANGID_MEMO.append(LangIdActor())
    return _LANGID_MEMO[0](t)


def detect_language(sf_dir: str) -> Dataset:
    ds = _docs(sf_dir, ["doc_id", "text"])
    return ds.map_batches(
        _langid_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def quality_scores(sf_dir: str) -> Dataset:
    """Heuristic quality metrics: the standard pretraining-corpus gates
    (punctuation ratio = 1 - n_alnum/n_chars, stopword ratio =
    n_stop/n_words, mean word length = n_alnum/n_words) emitted as their
    EXACT integer components — ratio columns are derived client-side, so
    the oracle compare never hinges on float rounding at dyadic boundaries
    (n_chars=128 with odd counts rounds differently under banker's vs
    half-away rounding)."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    from ..functions.textutils import STOPWORDS

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n = len(texts)
        n_chars = np.empty(n, np.int64)
        n_alnum = np.empty(n, np.int64)
        n_words = np.empty(n, np.int64)
        n_stop = np.empty(n, np.int64)
        for i, x in enumerate(texts):
            n_chars[i] = len(x)
            words = _WORD_RE.findall(x)
            n_alnum[i] = sum(len(w) for w in words)
            n_words[i] = len(words)
            n_stop[i] = sum(1 for w in words if w.lower() in STOPWORDS)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": pa.array(n_chars),
                "n_alnum": pa.array(n_alnum),
                "n_words": pa.array(n_words),
                "n_stop": pa.array(n_stop),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def fingerprint_docs(sf_dir: str, window: int = 64) -> Dataset:
    """Winnowing-style document fingerprint: md5 over sliding character
    windows (stride = window/2), keep the minimum digest prefix (a 1-perm
    MinHash). Hex-string output so the DuckDB oracle computes the identical
    value with md5(substring(...)) — lexicographic min on fixed-width hex
    equals numeric min."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "text"])
    stride = window // 2

    def h16(s: str) -> str:
        return hashlib.md5(s.encode("utf-8")).hexdigest()[:16]

    def f(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        fps = []
        full = []
        for x in texts:
            full.append(hashlib.md5(x.encode("utf-8")).hexdigest())
            if len(x) <= window:
                fps.append(h16(x))
            else:
                fps.append(
                    min(h16(x[i : i + window]) for i in range(0, len(x) - window + 1, stride))
                )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fingerprint": pa.array(fps, pa.string()),
                "content_md5": pa.array(full, pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def sample_docs_by_hash(sf_dir: str) -> Dataset:
    """Deterministic ~1/16 sample: keep docs whose md5(text) starts with
    '0' — the seeded, rerun-stable sampling a training pipeline needs
    (FIXTURES.md: deterministic sampling by content hash). SQL-matchable."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        keep = [
            hashlib.md5(x.encode("utf-8")).hexdigest().startswith("0")
            for x in t["text"].to_pylist()
        ]
        return t.filter(pa.array(keep, pa.bool_())).select(["doc_id"])

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def quality_filter(sf_dir: str, min_chars: int = 200, max_symbol_ratio: float = 0.05) -> Dataset:
    """Quality gate: keep docs long enough and with a low symbol
    (non-alnum-space-punct-basic) ratio — the pretraining-corpus filter
    shape, expressed with char-class metrics both engines compute
    identically (SQL oracle via regexp_replace)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        import re as _re

        sym = _re.compile(r"[^A-Za-z0-9 .,]")
        ids, chars, ratios = [], [], []
        for did, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            n = len(x)
            if n < min_chars:
                continue
            r = len(sym.findall(x)) / n
            if r <= max_symbol_ratio:
                ids.append(did)
                chars.append(n)
                ratios.append(round(r, 6))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_chars": pa.array(chars, pa.int64()),
                "symbol_ratio": pa.array(ratios, pa.float64()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def tfidf_top_terms(sf_dir: str, k: int = 3) -> Dataset:
    """Top-k TF-IDF terms per document (tf × ln(N/df), classic unsmoothed
    form). The pipeline shape a 100-TB corpus needs:

    1. document frequency first, as a per-batch PARTIAL: a doc lives wholly
       in one batch, so per-batch distinct-term counts sum exactly to df —
       the exchange moves one row per distinct term per block, never the
       (doc, term) explode, and nothing is pinned mid-pipeline;
    2. a second streaming pass re-tokenizes and emits (doc, term, tf) rows
       (recompute beats materializing the explode: the token scan is cheap,
       the pinned table at corpus scale is not);
    3. df attached through ``broadcast_inner_join`` — the vocabulary is
       log-bounded in corpus size, so the broadcast budget (tested shuffle
       fallback) covers both regimes;
    4. per-doc top-k over coarse doc-hash partitions, one vectorized
       pandas sort + cumcount per partition (never one call per doc).

    Scores are rounded to 6 decimals and ORDERED BY THE ROUNDED value (term
    asc tiebreak), so the ranking is reproducible bit-for-bit against the
    DuckDB oracle regardless of libm ulp differences."""
    from collections import Counter

    from ray.data.aggregate import Sum as _Sum

    from .relational import broadcast_inner_join

    ds = _docs(sf_dir, ["doc_id", "text"])
    n_docs = ds.count()  # parquet metadata count - no execution

    def df_partial(t: pa.Table) -> pa.Table:
        cnt: Counter = Counter()
        for x in t["text"].to_pylist():
            cnt.update(set(_WORD_RE.findall(x.lower())))
        return pa.table(
            {
                "term": pa.array(list(cnt.keys()), pa.string()),
                "df": pa.array(list(cnt.values()), pa.int64()),
            }
        )

    df_pd = (
        ds.map_batches(df_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("term")
        .aggregate(_Sum("df", alias_name="df"))
        .to_pandas()
    )

    def tf_batch(t: pa.Table) -> pa.Table:
        od, ot, oc = [], [], []
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            for term, c in Counter(_WORD_RE.findall(x.lower())).items():
                od.append(d)
                ot.append(term)
                oc.append(c)
        return pa.table(
            {
                "doc_id": pa.array(od, t["doc_id"].type),
                "term": pa.array(ot, pa.string()),
                "tf": pa.array(oc, pa.int64()),
            }
        )

    tf = ds.map_batches(
        tf_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    joined = broadcast_inner_join(tf, "term", df_pd, "term", ["df"])

    def score_part(t: pa.Table) -> pa.Table:
        doc = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        tfv = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        score = np.round(tfv * np.log(float(n_docs) / dfv), 6)
        out = t.select([c for c in ("doc_id", "term", "tf", "df") if c in t.column_names])
        out = out.append_column("score", pa.array(score, pa.float64()))
        return out.append_column("__part", part_ids(doc))

    scored = joined.map_batches(
        score_part, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )

    def topk_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True], kind="mergesort"
        )
        g = g[g.groupby("doc_id").cumcount() < k]
        return g[["doc_id", "term", "tf", "df", "score"]]

    import pandas as pd  # noqa: F811 - local for the pandas-format stage

    return map_partitions(
        scored,
        "__part",
        topk_partition,
        batch_format="pandas",
    )


def cap_docs_per_lang(sf_dir: str, cap: int = 50) -> Dataset:
    """Deterministic per-group downsampling cap: keep at most ``cap`` docs
    per language, chosen by md5(doc_id) order (rerun-stable, no RNG state) —
    the domain-balancing primitive of a pretraining mix. Per-batch partial
    capping bounds the exchange at cap rows per (lang, batch); the final
    per-lang cap is one vectorized sort + cumcount per group (group count =
    language count, so map_groups' per-group Python call is fine here)."""
    import hashlib

    import pandas as pd

    ds = _docs(sf_dir, ["doc_id", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.to_pandas()
        g["__h"] = [
            hashlib.md5(str(d).encode("utf-8")).hexdigest() for d in g["doc_id"]
        ]
        g = g.sort_values(["lang", "__h", "doc_id"], kind="mergesort")
        g = g[g.groupby("lang").cumcount() < cap]
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["lang", "__h", "doc_id"], kind="mergesort")
        g = g[g.groupby("lang").cumcount() < cap]
        return g[["doc_id", "lang"]]

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("lang")
        .map_groups(final, batch_format="pandas")
    )


def pack_sequences(sf_dir: str, budget: int = 512, bucket_width: int = 256) -> Dataset:
    """Pack documents (in deterministic doc_id order) into fixed
    token-budget training sequences: seq_id = floor(prefix_tokens / budget)
    where prefix_tokens is the exclusive running token total in doc_id
    order — the sequence-packing step of an LLM data pipeline.

    A global ordered prefix sum without a global sort: tokenize once into an
    int-only (doc_id, n_tokens) table (text never crosses an exchange),
    reduce per doc_id-range BUCKET (tiny: #docs/bucket_width rows reach the
    driver), exclusive-scan the bucket totals driver-side, broadcast them,
    then one bucket-key exchange cumsum-finishes each bucket vectorized.
    The driver holds one int per bucket — at 1e9 docs and width 4096 that
    is ~2 MB — and the widest shuffle carries 3 ints per doc."""
    import ray

    from .relational import _pq

    ds = _pq(sf_dir, "documents", ["doc_id", "text"])

    def counts(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        n_tok = [len(_WORD_RE.findall(x)) for x in texts]
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": pa.array(n_tok, pa.int64()),
                "__bucket": pa.array(did // bucket_width),
            }
        )

    toks = ds.map_batches(
        counts, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).materialize()  # 24 B/row; reused by both passes below

    def bucket_partial(t: pa.Table) -> pa.Table:
        g = t.select(["__bucket", "n_tokens"]).group_by("__bucket", use_threads=False).aggregate(
            [("n_tokens", "sum")]
        )
        return g.rename_columns(["__bucket", "tok"])

    from ray.data.aggregate import Sum

    btab = (
        toks.map_batches(bucket_partial, batch_format="pyarrow", batch_size=None)
        .groupby("__bucket")
        .aggregate(Sum("tok", alias_name="tok"))
        .to_pandas()
        .sort_values("__bucket")
    )
    bucket_ids = btab["__bucket"].to_numpy(np.int64)
    offsets = np.concatenate([[0], np.cumsum(btab["tok"].to_numpy(np.int64))[:-1]])
    ref = ray.put((bucket_ids, offsets))

    def finish_bucket(g: pa.Table) -> pa.Table:
        from ..util import cached_get

        bids, offs = cached_get(ref)
        did = g["doc_id"].to_numpy(zero_copy_only=False)
        ntok = g["n_tokens"].to_numpy(zero_copy_only=False)
        order = np.argsort(did, kind="stable")
        cum = np.zeros(len(did), dtype=np.int64)
        cum[order] = np.cumsum(ntok[order]) - ntok[order]
        base = offs[np.searchsorted(bids, g["__bucket"][0].as_py())]
        seq = (base + cum) // budget
        return pa.table(
            {"doc_id": g["doc_id"], "n_tokens": g["n_tokens"], "seq_id": pa.array(seq)}
        )

    return toks.groupby("__bucket").map_groups(finish_bucket, batch_format="pyarrow")


def long_docs_per_lang(sf_dir: str, q: float = 0.9) -> Dataset:
    """Per-group percentile filter: keep each language's longest decile
    (n_chars >= that lang's q-quantile). The threshold comes from a
    MERGEABLE (lang, n_chars) count histogram — partial counts per batch,
    one Sum combine, cumsum over the tiny lang x distinct-length table —
    then broadcasts into a vectorized filter pass. The discrete-quantile
    rule (smallest length whose cumulative count reaches ceil(q*n)) is
    deterministic, so the DuckDB oracle reproduces it bit-for-bit; no
    holistic per-group sort of the corpus ever runs."""
    import ray
    from ray.data.aggregate import Sum

    counts = (
        _docs(sf_dir, ["lang", "n_chars"])
        .map_batches(
            lambda t: pa.table({"lang": t["lang"], "n_chars": t["n_chars"]})
            .group_by(["lang", "n_chars"], use_threads=False)
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "n_chars", "n"]),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True,
        )
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("n", alias_name="n"))
    )
    hist = counts.to_pandas()  # |langs| x |distinct lengths| — tiny
    thr: dict[str, int] = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("n_chars", kind="mergesort")
        cum = g["n"].cumsum().to_numpy()
        need = float(np.ceil(q * float(cum[-1])))
        i = int(np.searchsorted(cum, need, side="left"))
        thr[str(lang)] = int(g["n_chars"].to_numpy()[i])
    thr_ref = ray.put(thr)

    def keep_long(t: pa.Table) -> pa.Table:
        from ..util import cached_get

        cuts = cached_get(thr_ref)
        # vectorized threshold lookup: dictionary-encode lang (|langs| codes),
        # map each code to its cut once, then one numpy compare over the batch
        enc = t["lang"].combine_chunks().dictionary_encode()
        cut_per_code = np.array(
            [cuts.get(v, np.iinfo(np.int64).max) for v in enc.dictionary.to_pylist()],
            dtype=np.int64,
        )
        codes = enc.indices.to_numpy(zero_copy_only=False)
        n = t["n_chars"].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(n >= cut_per_code[codes]))

    return _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        keep_long, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def split_assign(sf_dir: str) -> Dataset:
    """Deterministic train/val/test assignment by content hash — the
    rerun-stable split a training pipeline freezes before any shuffling:
    first hex digit of md5(text) routes ~14/16 to train, 1/16 to val
    ('e'), 1/16 to test ('f'). Content-keyed (not id-keyed) so exact dups
    land in the SAME split and never leak across train/eval. One stateless
    pass; SQL-matchable (DuckDB md5)."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        split = [
            "val" if h == "e" else "test" if h == "f" else "train"
            for h in (
                hashlib.md5(x.encode("utf-8")).hexdigest()[0]
                for x in t["text"].to_pylist()
            )
        ]
        return pa.table(
            {"doc_id": t["doc_id"], "split": pa.array(split, pa.string())}
        )

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)


def weighted_sample_per_lang(sf_dir: str, k: int = 20) -> Dataset:
    """Deterministic length-weighted sampling: per language, the k docs
    with the smallest integer priority ``md5_60(doc_id) // max(n_chars,1)``
    — an integer-exact stand-in for Efraimidis-Spirakis weighted reservoir
    sampling (rank by u^(1/w)): the uniform is a 60-bit digest of the doc
    id and the weight divides it, so longer docs draw systematically
    smaller priorities, and the entire order replays in SQL with no float
    (and no libm last-ulp divergence) anywhere. This is the data-mixing
    primitive — importance-sample a corpus toward a weight column without
    a global sort.

    Scale shape (the topk_events_per_user contract): each batch emits a
    vectorized partial top-k per language it contains (<= k rows/lang), so
    only ~k x n_blocks x n_langs light rows reach the final lang-keyed
    top-k — the corpus itself never shuffles."""
    import hashlib

    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars"])
    out_schema = pa.schema(
        [("lang", pa.string()), ("doc_id", pa.int64()), ("priority", pa.int64())]
    )

    def _topk(lang: np.ndarray, did: np.ndarray, pr: np.ndarray) -> pa.Table:
        _, inv = np.unique(lang, return_inverse=True)
        order = np.lexsort((did, pr, inv))
        gi = inv[order]
        starts = np.concatenate([[0], np.nonzero(gi[1:] != gi[:-1])[0] + 1])
        rank = np.arange(len(gi)) - np.repeat(starts, np.diff(np.concatenate([starts, [len(gi)]])))
        keep = order[rank < k]
        keep.sort()  # preserve a stable (input) order within the batch
        return pa.table(
            {
                "lang": pa.array(lang[keep].tolist(), pa.string()),
                "doc_id": pa.array(did[keep], pa.int64()),
                "priority": pa.array(pr[keep], pa.int64()),
            }
        )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        did = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = np.fromiter(
            (
                int(hashlib.md5(str(int(x)).encode()).hexdigest()[:15], 16)
                for x in did
            ),
            np.int64,
            len(did),
        )
        w = np.maximum(t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64), 1)
        lang = t["lang"].to_numpy(zero_copy_only=False).astype(str)
        return _topk(lang, did, h // w)

    def final(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        return _topk(
            t["lang"].to_numpy(zero_copy_only=False).astype(str),
            t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["priority"].to_numpy(zero_copy_only=False).astype(np.int64),
        )

    partials = ds.map_batches(
        partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return map_partitions(partials, "lang", final)


def bpe_pair_counts(sf_dir: str, k: int = 50) -> Dataset:
    """Top-k adjacent BYTE-pair frequencies inside whitespace-delimited
    tokens over ``documents.text`` — the counting step of the first BPE
    merge iteration (tokenizer-prep primitive). Per batch the texts are
    viewed as one uint8 array, adjacent pairs are packed into uint16 and
    counted with ONE np.bincount (no Python loop over characters); pairs
    containing whitespace (space/tab/newline/CR) are masked out, so token
    boundaries never pair. Partials are (pair_id, n) rows bounded by the
    2^16 pair vocabulary, merged by one tiny groupby.

    Contract: pairs are BYTE pairs (standard byte-level BPE); on ASCII
    corpora — which the testdata is — byte pairs equal the oracle's
    character pairs, and the docstring documents the divergence on
    non-ASCII input rather than hiding it."""
    ds = _docs(sf_dir, ["text"])
    _WS = np.zeros(256, dtype=bool)
    _WS[[9, 10, 13, 32]] = True

    def partial(t: pa.Table) -> pa.Table:
        texts = t["text"].to_pylist()
        if not texts:
            return pa.table(
                {"pair_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        # '\n' joiner is whitespace, so document boundaries never pair
        buf = np.frombuffer("\n".join(texts).encode("utf-8"), dtype=np.uint8)
        if buf.size < 2:
            return pa.table(
                {"pair_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
            )
        hi, lo = buf[:-1], buf[1:]
        mask = ~(_WS[hi] | _WS[lo])
        packed = hi[mask].astype(np.uint16) << np.uint16(8)
        packed |= lo[mask].astype(np.uint16)
        counts = np.bincount(packed, minlength=65536)
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "pair_id": pa.array(nz.astype(np.int64)),
                "n": pa.array(counts[nz].astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .groupby("pair_id")
        .aggregate(Sum("n", alias_name="n"))
    )
    # the aggregate is bounded by the 2^16 pair vocabulary — top-k on the
    # driver is a vocab-bounded collect (the library's documented pattern)
    merged = pa.concat_tables(list(agg.iter_batches(batch_format="pyarrow")))
    pid = merged["pair_id"].to_numpy(zero_copy_only=False)
    n = merged["n"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((pid, -n))[:k]
    pairs = [chr(int(p) >> 8) + chr(int(p) & 0xFF) for p in pid[order]]
    return rd.from_arrow(
        pa.table({"pair": pa.array(pairs, pa.string()), "n": pa.array(n[order])})
    )


def readability_scores(sf_dir: str) -> Dataset:
    """Per-document Flesch reading-ease card: word count ([a-z0-9]+ runs on
    the lowered text — the engine's shared tokenizer), sentence count
    ([.!?]+ runs, so "..." is one boundary, clamped to >= 1 — the standard
    readability-library behavior for prose with no terminal punctuation),
    syllable proxy ([aeiouy]+ vowel groups), and flesch = 206.835 -
    1.015*(words/sentences) - 84.6*(syllables/words) rounded to 4 — the
    classic readability quality signal for curation. Documents with zero
    words are excluded (the formula is undefined there; the oracle filters
    the same way). Embarrassingly parallel: three RE2 match-count kernels per
    block, no exchange at all.

    Reference parity: the reference scores text quality per document
    (SURVEY.md §2.3); the formula is public (Flesch 1948)."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t["text"])
        words = pc.count_substring_regex(low, pattern=r"[a-z0-9]+")
        sents = pc.count_substring_regex(low, pattern=r"[.!?]+")
        syll = pc.count_substring_regex(low, pattern=r"[aeiouy]+")
        w = words.to_numpy(zero_copy_only=False).astype(np.int64)
        s = np.maximum(sents.to_numpy(zero_copy_only=False).astype(np.int64), 1)
        y = syll.to_numpy(zero_copy_only=False).astype(np.int64)
        keep = w > 0
        flesch = np.round(
            206.835 - 1.015 * (w[keep] / s[keep]) - 84.6 * (y[keep] / w[keep]), 4
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()).filter(pa.array(keep)),
                "n_words": pa.array(w[keep]),
                "n_sentences": pa.array(s[keep]),
                "n_syllables": pa.array(y[keep]),
                "flesch": pa.array(flesch + 0.0, pa.float64()),
            }
        )

    return ds.map_batches(
        score, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def lang_source_crosstab(sf_dir: str) -> Dataset:
    """Corpus composition crosstab: one row per language, one count column
    per source plus a row total — the datasheet table a mixing plan reads.
    Sources form a closed vocabulary (the PIVOT contract:
    pivot_events_daily's wide-partial shape re-used over documents), so
    each block collapses to |langs| fixed-width rows before the exchange."""
    import pyarrow.dataset as pads

    srcs = sorted(
        pads.dataset(f"{sf_dir}/documents.parquet")
        .to_table(columns=["source"])["source"]
        .unique()
        .to_pylist()
    )
    ds = _docs(sf_dir, ["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        cols = {"lang": t["lang"]}
        for s in srcs:
            cols[f"n_{s}"] = pc.cast(pc.equal(t["source"], s), pa.int64())
        g = (
            pa.table(cols)
            .group_by("lang", use_threads=False)
            .aggregate([(f"n_{s}", "sum") for s in srcs])
        )
        return g.rename_columns(["lang"] + [f"n_{s}" for s in srcs])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("lang")
        .aggregate(*[Sum(f"n_{s}", alias_name=f"n_{s}") for s in srcs])
    )

    def finish(t: pa.Table) -> pa.Table:
        cols = {"lang": t["lang"]}
        tot = np.zeros(t.num_rows, np.int64)
        for s in srcs:
            v = pc.cast(t[f"n_{s}"], pa.int64())
            cols[f"n_{s}"] = v
            tot += v.to_numpy(zero_copy_only=False)
        cols["n_total"] = pa.array(tot)
        return pa.table(cols)

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def lang_confusion_matrix(sf_dir: str) -> Dataset:
    """Language-ID quality card: the confusion matrix between the corpus's
    TAGGED language column and the stopword-profile heuristic's prediction
    — (lang, pred_lang, n_docs). The eval every language filter needs
    before anyone trusts `docs_by_lang` splits downstream.

    Scale shape: the LangId kernel runs per block (worker-global memoized
    state — no per-batch rebuild), the matrix partial collapses each block
    to <= |langs| x (|langs|+1) rows, and the combine is tiny. The oracle
    replays the identical profile/threshold arithmetic in SQL (the
    detect_language contract) and joins it to the tag."""
    from ray.data.aggregate import Sum

    ds = _docs(sf_dir, ["lang", "text"])

    def partial(t: pa.Table) -> pa.Table:
        pred = _langid_batch(t.select(["text"]))  # row-aligned with t
        g = (
            pa.table({"lang": t["lang"], "pred_lang": pred["pred_lang"]})
            .group_by(["lang", "pred_lang"], use_threads=False)
            .aggregate([([], "count_all")])
        )
        return g.rename_columns(["lang", "pred_lang", "n_docs"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["lang", "pred_lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_docs"), "n_docs", pc.cast(t["n_docs"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
