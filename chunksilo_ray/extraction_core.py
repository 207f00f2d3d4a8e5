"""Per-turn mention detection + triple rules: two kernels of one spec.

This module holds both implementations of the extraction spec documented
in :mod:`chunksilo_ray.rules`:

- ``extract_columns``, the columnar kernel, is what the Ray pipeline
  (chunksilo_ray.stages.link) runs inside stateless ``map_batches`` tasks,
  with the alias index broadcast once via ``ray.put`` and materialized once
  per worker process. It tokenizes a whole Arrow batch in Arrow compute,
  classifies each distinct token once, looks each distinct alias n-gram up
  once, and builds the nested ``mentions`` / ``triples`` columns from small
  per-batch dictionaries;
- ``scan_mentions`` + ``triples_for_turn``, the per-row kernel, is what the
  single-process oracle (chunksilo_ray.oracle.extractor) calls in a plain
  loop, and what the Ray stage falls back to for a batch the columnar pass
  cannot take (null text, a pass over the per-row time budget, a raise).

``tests/test_link_columnar.py`` holds the two kernels equal row for row,
so the P/R >= 0.95 gate compares two independent implementations. What it
measures beyond that is everything *distribution* can get wrong: the
groupby/sort reassembly, batch boundaries, the approximate MinHash-LSH
canonicalization (vs the oracle's exact all-pairs clustering), and the
final shuffle aggregation.

Mention-scan behavior models the reference's retrieval matching: longest
alias-n-gram-first scanning (analog of BM25 filename token match, reference
src/chunksilo/index.py:1218-1265), ID normalization (search.py:381-425),
stopword gating (search.py:79-96).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


# ---------------------------------------------------------------------------
# Columnar kernel: the same spec over one Arrow batch at a time.

MENTION_STRUCT = pa.struct(
    [
        ("entity_id", pa.string()),
        ("surface", pa.string()),
        ("norm", pa.string()),
        ("entity_type", pa.string()),
        ("known", pa.bool_()),
    ]
)
TRIPLE_STRUCT = pa.struct([("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string())])


def packed_ngram_fits(n_vocab: int, k: int) -> bool:
    """Whether every ``k``-gram of token ids below ``n_vocab`` packs into one
    int64 code (base ``n_vocab``, largest code ``n_vocab**k - 1``) without
    overflow. Where it does not, distinct n-grams are found row-wise
    (``np.unique(axis=0)``), which gives the same matches."""
    return n_vocab**k <= 2**63


# Complement of RAW_TOKEN_RE's character class. Both are ASCII-only, so a
# split on runs of it, trimmed of the inner delimiters, yields exactly
# RAW_TOKEN_RE.findall per row (one token per maximal run holding an
# alphanumeric; non-ASCII characters are delimiters on both sides).
_SPLIT_PATTERN = r"[^A-Za-z0-9_\-./]+"
_TRIM_CHARS = "_-./"
# Arrow (RE2) prefilters of the cue regexes: no ``\b`` and no ``\s``, so on
# ASCII text every row ``INVOKE_RE`` / ``CONFIGURE_RE`` matches also matches
# these. Non-ASCII rows always go to Python (RE2's ``\b`` and case folding
# differ from Python's there); Python's regexes make every final decision.
_INVOKE_PREFILTER = r"run|invoke|execute|call|use"
_CONFIGURE_PREFILTER = r"configured|deployed|updated|installed"

# rule-1 classes of a token that no alias or bigram claims
_PLAIN, _ID, _MULTI, _CAP = 0, 1, 2, 3


class TokenClass(NamedTuple):
    """Everything rule 1 needs to know about one distinct raw token."""

    sub: tuple[str, ...]  # tokenize_surface sub-tokens (alias keys concatenate these)
    kind: int  # _ID / _MULTI / _CAP when the token is an unknown mention on its own
    norm: str
    left: bool  # can open an (alpha, digits) bigram
    right: bool  # can close one


def classify_token(tok: str) -> TokenClass:
    sub = tuple(tokenize_surface(tok))
    low = tok.lower()
    if ID_LIKE_RE.match(tok):
        kind, norm = _ID, _norm_cached(tok)
    elif len(sub) > 1:
        kind, norm = _MULTI, "-".join(sub)
    elif (
        len(tok) >= rules.MIN_CAP_LEN
        and tok[0].isupper()
        and low not in STOPWORDS
        and not tok.isdigit()
    ):
        kind, norm = _CAP, _norm_cached(tok)
    else:
        kind, norm = _PLAIN, ""
    left = tok.isalpha() and 2 <= len(tok) <= 10 and low not in STOPWORDS
    right = tok.isdigit() and len(tok) <= 6
    return TokenClass(sub, kind, norm, left, right)


def _one_chunk(col) -> pa.Array:
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _offsets(rows: np.ndarray, n_rows: int) -> np.ndarray:
    """List offsets for values whose (sorted) parent rows are ``rows``."""
    off = np.zeros(n_rows + 1, np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=off[1:])
    return off


def _cue_rows(text: pa.Array, prefilter: str, nonascii: np.ndarray) -> np.ndarray:
    hit = pc.match_substring_regex(text, prefilter, ignore_case=True)
    return hit.to_numpy(zero_copy_only=False) | nonascii


def extract_columns(
    t: pa.Table, alias: AliasIndex, memo: dict[str, TokenClass]
) -> tuple[pa.Array, pa.Array]:
    """Rules 1-5 over a whole batch: returns the ``mentions`` and
    ``triples`` list columns, equal to ``scan_mentions`` +
    ``triples_for_turn`` run row by row.

    ``t`` needs non-null ``text`` and ``role``. ``memo`` keeps the token
    classes across batches (cleared past ``_TOKEN_CACHE_CAP`` entries)."""
    text = _one_chunk(t.column("text"))
    mentions, m_ref, m_off, d_eid = _mention_columns(text, alias, memo)
    triples = _triple_columns(t, text, alias, m_ref, m_off, d_eid)
    return mentions, triples


def _mention_columns(text: pa.Array, alias: AliasIndex, memo: dict[str, TokenClass]):
    """Rule 1. Tokenizing runs in Arrow compute; each distinct token is
    classified once and each distinct alias n-gram looked up once; the
    greedy walk loops in Python only over positions whose match spans more
    than one token. Returns the ``mentions`` column plus, per mention, its
    index into the per-batch mention dictionary, the list offsets and the
    dictionary's entity ids (the triple rules' inputs)."""
    n_rows = len(text)

    # -- tokens: flat positions, their rows and dictionary ids
    split = pc.split_pattern_regex(text, _SPLIT_PATTERN)
    toks = pc.utf8_trim(pc.list_flatten(split), characters=_TRIM_CHARS)
    keep = pc.not_equal(toks, "")
    row = pc.list_parent_indices(split).filter(keep).to_numpy().astype(np.int64)
    enc = toks.filter(keep).dictionary_encode()
    ids = enc.indices.to_numpy().astype(np.int64)
    vocab = enc.dictionary.to_pylist()
    n = len(ids)
    n_vocab = len(vocab)

    if len(memo) > _TOKEN_CACHE_CAP:
        memo.clear()
    classes = []
    for tok in vocab:
        c = memo.get(tok)
        if c is None:
            c = memo[tok] = classify_token(tok)
        classes.append(c)
    first_sub = alias.first_subtokens
    kind = np.fromiter((c.kind for c in classes), np.int8, n_vocab)[ids]
    left = np.fromiter((c.left for c in classes), bool, n_vocab)[ids]
    right = np.fromiter((c.right for c in classes), bool, n_vocab)[ids]
    prefix = np.fromiter((c.sub[0] in first_sub for c in classes), bool, n_vocab)[ids]
    row_start = np.zeros(n_rows + 1, np.int64)
    np.cumsum(np.bincount(row, minlength=n_rows), out=row_start[1:])
    end = row_start[row + 1]  # one past the last position of each position's row

    # -- (a) alias n-grams, longest first, each distinct n-gram looked up once
    alias_len = np.zeros(n, np.int64)
    alias_hit = np.zeros(n, np.int64)
    hits: list[tuple[str, str, str, str]] = []  # (entity_id, surface, norm, type)
    starts = np.flatnonzero(prefix)
    for k in range(alias.max_ngram, 0, -1):
        p = starts[(starts + k <= end[starts]) & (alias_len[starts] == 0)]
        if not p.size:
            continue
        grams = np.stack([ids[p + j] for j in range(k)], axis=1)
        if packed_ngram_fits(n_vocab, k):
            code = grams @ (n_vocab ** np.arange(k, dtype=np.int64))
            _, first, inv = np.unique(code, return_index=True, return_inverse=True)
            distinct = grams[first]
        else:
            distinct, inv = np.unique(grams, axis=0, return_inverse=True)
        slot = np.full(len(distinct), -1, np.int64)
        for g, gram in enumerate(distinct.tolist()):
            hit = alias.by_tokens.get(sum((classes[x].sub for x in gram), ()))
            if hit is not None:
                slot[g] = len(hits)
                surf = " ".join(vocab[x] for x in gram)
                hits.append((hit[0], surf, _norm_cached(surf), hit[1]))
        s = slot[inv.reshape(-1)]
        matched = p[s >= 0]
        alias_len[matched] = k
        alias_hit[matched] = s[s >= 0]

    # -- (b) the (alpha, digits) bigram; ID-like tokens are never alpha, so
    # a bigram can only lose to an alias match
    bigram = np.zeros(n, bool)
    bigram[:-1] = left[:-1] & right[1:] & (np.arange(1, n) < end[:-1])
    bigram &= alias_len == 0

    # -- greedy walk: only a match longer than one token skips positions
    jump = np.where(alias_len > 0, alias_len, np.where(bigram, 2, 1))
    reached = np.ones(n, bool)
    long = np.flatnonzero(jump > 1)
    for i, j in zip(long.tolist(), jump[long].tolist()):
        if reached[i]:
            reached[i + 1 : i + j] = False

    # -- mentions: indices into a small per-batch dictionary of alias hits,
    # distinct bigrams and distinct token mentions
    is_alias = reached & (alias_len > 0)
    is_bigram = reached & bigram
    is_token = reached & ~is_alias & ~is_bigram & (kind != _PLAIN)
    d_eid = [h[0] for h in hits]
    d_surf = [h[1] for h in hits]
    d_norm = [h[2] for h in hits]
    d_type = [h[3] for h in hits]
    ref = alias_hit.copy()

    def _add_unknown(at: np.ndarray, codes: np.ndarray, render) -> None:
        uniq, inv = np.unique(codes, return_inverse=True)
        ref[at] = len(d_eid) + inv.reshape(-1)
        for c in uniq.tolist():
            surf, norm = render(c)
            d_eid.append(rules.UNKNOWN_PREFIX + norm)
            d_surf.append(surf)
            d_norm.append(norm)
            d_type.append("unknown")

    def _bigram(c: int) -> tuple[str, str]:
        a, b = vocab[c // n_vocab], vocab[c % n_vocab]
        return f"{a} {b}", f"{a.lower()}-{b}"

    at = np.flatnonzero(is_bigram)
    _add_unknown(at, ids[at] * n_vocab + ids[at + 1], _bigram)
    at = np.flatnonzero(is_token)
    _add_unknown(at, ids[at], lambda c: (vocab[c], classes[c].norm))

    emit = np.flatnonzero(is_alias | is_bigram | is_token)
    m_ref = ref[emit]
    m_off = _offsets(row[emit], n_rows)
    mdict = pa.StructArray.from_arrays(
        [
            pa.array(d_eid, pa.string()),
            pa.array(d_surf, pa.string()),
            pa.array(d_norm, pa.string()),
            pa.array(d_type, pa.string()),
            pa.array([i < len(hits) for i in range(len(d_eid))], pa.bool_()),
        ],
        fields=list(MENTION_STRUCT),
    )
    mentions = pa.ListArray.from_arrays(
        pa.array(m_off), mdict.take(pa.array(m_ref)), type=pa.list_(MENTION_STRUCT)
    )
    return mentions, m_ref, m_off, d_eid


def _triple_columns(
    t: pa.Table,
    text: pa.Array,
    alias: AliasIndex,
    m_ref: np.ndarray,
    m_off: np.ndarray,
    d_eid: list[str],
) -> pa.Array:
    """Rules 2-5 from the mention offsets. Each triple is three indices
    into a string pool that starts with the mention dictionary's entity
    ids; role predicates and tool subjects are resolved once per distinct
    role and tool."""
    n_rows = len(text)
    pool = list(d_eid)
    interned: dict[str, int] = {}

    def _str(s: str) -> int:
        i = interned.get(s)
        if i is None:
            i = interned[s] = len(pool)
            pool.append(s)
        return i

    roles = _one_chunk(t.column("role")).dictionary_encode()
    role_of = roles.indices.to_numpy().astype(np.int64)
    role_names = roles.dictionary.to_pylist()
    role_pred = np.array(
        [_str(rules.PRED_BY_ROLE.get(r, "mentions")) for r in role_names], np.int64
    )
    tools = pc.fill_null(_one_chunk(t.column("tool")), "").dictionary_encode()
    tool_of = tools.indices.to_numpy().astype(np.int64)
    tool_names = tools.dictionary.to_pylist()
    tool_subj = np.array(
        [_str(alias.lookup_tool(x)[0]) if x else -1 for x in tool_names], np.int64
    )
    is_tool_role = np.array([r == "tool" for r in role_names], bool)[role_of]
    produces_row = is_tool_role & (tool_subj[tool_of] >= 0)
    m_first = m_off[:-1].astype(np.int64)
    m_count = np.diff(m_off)
    m_row = np.repeat(np.arange(n_rows), m_count)

    # rules 2 and 3, in mention order
    prod = produces_row[m_row]
    sel = prod | (np.arange(len(m_ref)) != m_first[m_row])
    subj = np.where(prod, tool_subj[tool_of[m_row]], m_ref[m_first[m_row]])
    pred = np.where(prod, _str(rules.PRED_PRODUCES), role_pred[role_of[m_row]])
    parts = [(m_row[sel], subj[sel], pred[sel], m_ref[sel])]

    # rules 4 and 5: Arrow picks candidate rows, Python's regexes decide
    nonascii = ~pc.string_is_ascii(text).to_numpy(zero_copy_only=False)
    invokes: list[tuple[int, int, int, int]] = []
    cand = np.flatnonzero(_cue_rows(text, _INVOKE_PREFILTER, nonascii))
    for r, s in zip(cand.tolist(), text.take(pa.array(cand)).to_pylist()):
        m_inv = rules.INVOKE_RE.search(s)
        if m_inv is not None:
            hit = alias.by_tokens.get(tuple(tokenize_surface(m_inv.group(1))))
            if hit is not None and hit[1] == "tool":
                role_subj = _str(rules.ROLE_PREFIX + role_names[role_of[r]])
                invokes.append((r, role_subj, _str(rules.PRED_INVOKES), _str(hit[0])))
    parts.append(tuple(np.array([v[i] for v in invokes], np.int64) for i in range(4)))
    is_asst = np.array([r == "assistant" for r in role_names], bool)[role_of]
    cand = np.flatnonzero(
        is_asst & (m_count >= 2) & _cue_rows(text, _CONFIGURE_PREFILTER, nonascii)
    )
    conf = np.array(
        [
            r
            for r, s in zip(cand.tolist(), text.take(pa.array(cand)).to_pylist())
            if rules.CONFIGURE_RE.search(s)
        ],
        np.int64,
    )
    first = m_first[conf]
    parts.append(
        (conf, m_ref[first], np.full(len(conf), _str(rules.PRED_CONFIGURES)), m_ref[first + 1])
    )

    # per row: rules 2/3, then invoke, then configure
    t_row, t_subj, t_pred, t_obj = (np.concatenate([p[i] for p in parts]) for i in range(4))
    section = np.concatenate([np.full(len(p[0]), s, np.int64) for s, p in enumerate(parts)])
    order = np.argsort(t_row * len(parts) + section, kind="stable")
    strs = pa.array(pool, pa.string())
    values = pa.StructArray.from_arrays(
        [strs.take(pa.array(x[order])) for x in (t_subj, t_pred, t_obj)],
        fields=list(TRIPLE_STRUCT),
    )
    return pa.ListArray.from_arrays(
        pa.array(_offsets(t_row[order], n_rows)), values, type=pa.list_(TRIPLE_STRUCT)
    )
