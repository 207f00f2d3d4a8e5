"""Per-turn mention detection + triple rules (pure Python, no Ray).

This module is the shared *inner kernel* of the extraction spec documented in
:mod:`chunksilo_ray.rules`. Both executors use it:

- the Ray pipeline (chunksilo_ray.stages.link) calls it per row inside
  stateless ``map_batches`` tasks with the alias index broadcast once via
  ``ray.put`` and materialized once per worker process;
- the single-process oracle (chunksilo_ray.oracle.extractor) calls it in a
  plain loop.

What the P/R >= 0.95 gate then measures is everything *distribution* can get
wrong: the groupby/sort reassembly, batch boundaries, the approximate
MinHash-LSH canonicalization (vs the oracle's exact all-pairs clustering),
and the final shuffle aggregation.

Mention-scan behavior models the reference's retrieval matching: longest
alias-n-gram-first scanning (analog of BM25 filename token match, reference
src/chunksilo/index.py:1218-1265), ID normalization (search.py:381-425),
stopword gating (search.py:79-96).
"""

from __future__ import annotations

from typing import NamedTuple

from .functions.textutils import (
    ID_LIKE_RE,
    RAW_TOKEN_RE,
    STOPWORDS,
    normalize_surface,
    tokenize_surface,
)
from . import rules


class Mention(NamedTuple):
    # NamedTuple, not a frozen dataclass: construction is C-speed, and this
    # object is built once per mention in the hottest loop of the engine
    entity_id: str  # canonical id for known; rules.UNKNOWN_PREFIX + norm for unknown
    surface: str
    norm: str
    entity_type: str  # person/system/tool/artifact for known; "unknown" otherwise
    known: bool


_NORM_MEMO_CAP = 1 << 16
_norm_memo: dict[str, str] = {}


def _norm_cached(surface: str) -> str:
    """Memoized normalize_surface: surfaces follow the corpus' heavy-tailed
    entity distribution, so the worker-lifetime memo hits constantly."""
    n = _norm_memo.get(surface)
    if n is None:
        if len(_norm_memo) > _NORM_MEMO_CAP:
            _norm_memo.clear()
        n = normalize_surface(surface)
        _norm_memo[surface] = n
    return n


class AliasIndex:
    """Token-tuple keyed alias lookup. Built once (driver or actor __init__)
    from the small alias table; the broadcast small-side of the KG graft."""

    def __init__(self, aliases: list[tuple[str, str, str]], max_ngram: int = 3):
        # aliases: (alias_surface, entity_id, entity_type)
        self.max_ngram = max_ngram
        self.by_tokens: dict[tuple[str, ...], tuple[str, str]] = {}
        for surf, eid, etype in aliases:
            key = tuple(tokenize_surface(surf))
            if key:
                # first writer wins (stable — alias tables are deduped upstream)
                self.by_tokens.setdefault(key, (eid, etype))
        # prefix filter: first sub-token of every alias key. A position whose
        # first sub-token is absent here cannot start ANY alias match, so the
        # scan skips the n-gram key construction entirely (the common case —
        # most corpus tokens start no alias).
        self.first_subtokens: frozenset[str] = frozenset(k[0] for k in self.by_tokens)

    @classmethod
    def from_arrow(cls, table, max_ngram: int = 3) -> "AliasIndex":
        cols = (
            table.column("alias").to_pylist(),
            table.column("entity_id").to_pylist(),
            table.column("entity_type").to_pylist(),
        )
        return cls(list(zip(*cols)), max_ngram=max_ngram)

    def lookup_tool(self, tool_name: str) -> tuple[str, str]:
        """Tool column -> entity id (alias lookup, else tool:<norm> fallback)."""
        key = tuple(tokenize_surface(tool_name))
        hit = self.by_tokens.get(key)
        if hit is not None:
            return hit
        return rules.TOOL_FALLBACK_PREFIX + normalize_surface(tool_name), "tool"


_TOKEN_CACHE_CAP = 1 << 16


def scan_mentions(
    text: str, alias: AliasIndex, _cache: dict[str, tuple[str, ...]] | None = None
) -> list[Mention]:
    """Greedy left-to-right longest-match mention scan (rules.py spec, rule 1).

    Order at each position: (a) alias n-gram, longest first; (b) ID-like —
    single token or (alpha{2,10}, digits{1,6}) bigram; (c) token with inner
    delimiters / camelCase; (d) Capitalized non-stopword token of length >= 3.

    ``_cache`` is an optional {raw_token: token_tuple} memo (actor-lifetime
    in the Ray stage) — semantically transparent, saves re-tokenizing the
    heavy-tailed token distribution of real corpora. N-gram keys are built by
    tuple concatenation (tokenize_surface distributes over space-joins), so
    each raw token is tokenized at most once per scan.
    """
    raw = RAW_TOKEN_RE.findall(text)
    n = len(raw)
    if _cache is None:
        tuples = [tuple(tokenize_surface(tok)) for tok in raw]
    else:
        if len(_cache) > _TOKEN_CACHE_CAP:
            _cache.clear()
        tuples = []
        for tok in raw:
            tt = _cache.get(tok)
            if tt is None:
                tt = tuple(tokenize_surface(tok))
                _cache[tok] = tt
            tuples.append(tt)
    out: list[Mention] = []
    first_sub = alias.first_subtokens
    i = 0
    while i < n:
        matched = False
        # (a) alias n-grams, longest first. Prefix-filtered: if this
        # position's first sub-token starts no alias key, no n-gram here can
        # match — skip without building any concatenated keys. (Positions
        # whose token tokenizes to nothing keep the unfiltered probe: their
        # n-gram keys start with a LATER token's sub-tokens.)
        ti = tuples[i]
        if not ti or ti[0] in first_sub:
            for k in range(min(alias.max_ngram, n - i), 0, -1):
                key = ti if k == 1 else sum(tuples[i : i + k], ())
                hit = alias.by_tokens.get(key)
                if hit is not None:
                    surf = " ".join(raw[i : i + k])
                    eid, etype = hit
                    out.append(Mention(eid, surf, _norm_cached(surf), etype, True))
                    i += k
                    matched = True
                    break
        if matched:
            continue
        tok = raw[i]
        # (b) ID-like: single token, or (alpha, digits) bigram
        if ID_LIKE_RE.match(tok):
            norm = _norm_cached(tok)
            out.append(Mention(rules.UNKNOWN_PREFIX + norm, tok, norm, "unknown", False))
            i += 1
            continue
        if (
            i + 1 < n
            and tok.isalpha()
            and 2 <= len(tok) <= 10
            and raw[i + 1].isdigit()
            and len(raw[i + 1]) <= 6
            and tok.lower() not in STOPWORDS
        ):
            surf = f"{tok} {raw[i + 1]}"
            norm = f"{tok.lower()}-{raw[i + 1]}"
            out.append(Mention(rules.UNKNOWN_PREFIX + norm, surf, norm, "unknown", False))
            i += 2
            continue
        # (c) inner delimiters / camelCase (multi-part surface)
        parts = tuples[i]
        if len(parts) > 1:
            norm = "-".join(parts)
            out.append(Mention(rules.UNKNOWN_PREFIX + norm, tok, norm, "unknown", False))
            i += 1
            continue
        # (d) Capitalized non-stopword
        if (
            len(tok) >= rules.MIN_CAP_LEN
            and tok[0].isupper()
            and tok.lower() not in STOPWORDS
            and not tok.isdigit()
        ):
            norm = _norm_cached(tok)
            out.append(Mention(rules.UNKNOWN_PREFIX + norm, tok, norm, "unknown", False))
        i += 1
    return out


def triples_for_turn(
    role: str, tool: str, text: str, mentions: list[Mention], alias: AliasIndex
) -> list[tuple[str, str, str]]:
    """Role/tool-aware triple rules (rules.py spec, rules 2-5).
    Returns (subj, pred, obj) with placeholder ids for unknown entities."""
    triples: list[tuple[str, str, str]] = []
    if role == "tool" and tool:
        subj, _ = alias.lookup_tool(tool)
        for m in mentions:
            triples.append((subj, rules.PRED_PRODUCES, m.entity_id))
    elif len(mentions) >= 2:
        pred = rules.PRED_BY_ROLE.get(role, "mentions")
        subj = mentions[0].entity_id
        for m in mentions[1:]:
            triples.append((subj, pred, m.entity_id))

    m_inv = rules.INVOKE_RE.search(text)
    if m_inv is not None:
        key = tuple(tokenize_surface(m_inv.group(1)))
        hit = alias.by_tokens.get(key)
        if hit is not None and hit[1] == "tool":
            triples.append((rules.ROLE_PREFIX + role, rules.PRED_INVOKES, hit[0]))

    if role == "assistant" and len(mentions) >= 2 and rules.CONFIGURE_RE.search(text):
        triples.append((mentions[0].entity_id, rules.PRED_CONFIGURES, mentions[1].entity_id))
    return triples
