"""The triple-extraction SPEC — constants shared by the Ray pipeline and the
single-process oracle.

The spec itself (predicate vocabulary, cue regexes, mention rules, thresholds)
lives here exactly once so the two *independent implementations* — the
vectorized Ray stages (chunksilo_ray.stages.*, whose extraction runs the
columnar kernel ``extraction_core.extract_columns``) and the plain-Python
oracle (chunksilo_ray.oracle.extractor, on the per-row kernel
``scan_mentions`` / ``triples_for_turn``) — cannot drift on constants while
still exercising different execution paths. Role/tool-aware predicates per the
north rule; cue patterns modeled on the reference's rule-style normalizers
(reference src/chunksilo/search.py:381-425 for ID normalization).

Extraction spec (applies per turn, after mention detection):

1. Mentions are scanned left-to-right over raw tokens, longest alias n-gram
   first (max n = config linking.max_ngram); unmatched tokens become UNKNOWN
   mentions when they are ID-like, contain inner delimiters/camelCase, or are
   Capitalized non-stopwords of length >= 3.
2. ``role == "tool"`` and ``tool != ""``: subj = the tool's entity (alias
   lookup of the tool name, else ``tool:<norm>``); emit
   (subj, "produces", m) for every mention m.
3. Otherwise, with mentions M ordered by appearance and |M| >= 2:
   subj = M[0]; emit (M[0], PRED_BY_ROLE[role], m) for each m in M[1:].
4. Invoke cue: if the text matches INVOKE_RE and the captured name is a known
   tool alias, emit ("role:<role>", "invokes", tool_entity).
5. Configure cue (assistant only): if CONFIGURE_RE matches and |M| >= 2,
   emit (M[0], "configures", M[1]).

Unknown mentions carry the placeholder id ``surface:<norm>`` until the
canonicalization stage rewrites them to ``ent:<canonical-norm>``.
"""

from __future__ import annotations

import re

PRED_BY_ROLE: dict[str, str] = {
    "user": "asks_about",
    "assistant": "states",
    "tool": "produces",
}

PRED_INVOKES = "invokes"
PRED_CONFIGURES = "configures"
PRED_PRODUCES = "produces"

INVOKE_RE = re.compile(r"\b(?:run|invoke|execute|call|use)\s+([A-Za-z0-9_\-]+)", re.IGNORECASE)
CONFIGURE_RE = re.compile(r"\b(?:configured|deployed|updated|installed)\b", re.IGNORECASE)

# placeholder-id prefixes
UNKNOWN_PREFIX = "surface:"
CANONICAL_PREFIX = "ent:"
ROLE_PREFIX = "role:"
TOOL_FALLBACK_PREFIX = "tool:"

# mention-candidate gates (rule 1)
MIN_CAP_LEN = 3

# canonicalization thresholds (shared with the oracle's exact clustering)
SHINGLE_K = 3
JACCARD_THRESHOLD = 0.6
COSINE_THRESHOLD = 0.90

# ID-like norms ("proj-1234") are ALREADY canonical — the ID normalizer
# (reference search.py:381-425 analog) unified their surface variants at
# mention time. They are excluded from fuzzy canonicalization: two distinct
# ticket numbers must never merge, and excluding them keeps LSH buckets free
# of systematic same-prefix collisions (the skew that would otherwise
# dominate banding at scale).
import re as _re

ID_NORM_RE = _re.compile(r"^[a-z]{2,10}-\d{1,6}$")


def is_id_norm(norm: str) -> bool:
    return ID_NORM_RE.match(norm) is not None


def char_shingles(norm: str, k: int = SHINGLE_K) -> set[str]:
    """Character k-shingles of a normalized surface (padded so short strings
    still produce at least one shingle). Delimiters are stripped first so
    "zorp-dash" and "zorpdash" shingle identically — the token-boundary
    information already lives in the norm itself."""
    s = f"^{norm.replace('-', '')}$"
    if len(s) <= k:
        return {s}
    return {s[i : i + k] for i in range(len(s) - k + 1)}


def jaccard(a: set[str], b: set[str]) -> float:
    if not a and not b:
        return 1.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)
