"""Stream-shaped operators over the ``events`` table (ray_guide.md
"Streaming-shaped workloads"): tumbling windows and session windows,
implemented as one coarse user-hash exchange (``exchange.map_partitions``)
over ts-sorted partitions.

Ordering assumption (documented per the guide): events of one ``user_id``
are processed together inside one partition; the partition is explicitly
sorted by ``ts`` inside the UDF — global row order is never relied on. Both
operators have exact ANSI-SQL oracles (time_bucket GROUP BY; lag()-gap
session ids).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data import Dataset

from ..exchange import map_partitions, part_ids, with_parts
from .relational import round_columns

HOUR_US = 3_600_000_000


def _events(sf_dir: str, columns: list[str] | None = None) -> Dataset:
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def tumbling_hourly(sf_dir: str) -> Dataset:
    """Hourly tumbling-window aggregate per user: count + value sum.
    Window key is computed vectorized per batch; the aggregate is then an
    ordinary partial-combining groupby — no per-group sorting needed for a
    tumbling window."""
    ds = _events(sf_dir, ["user_id", "ts", "value"])

    def window_partial(t: pa.Table) -> pa.Table:
        # window key + per-batch partial combine in one pass: the exchange
        # then moves one row per (user, window) per batch, not every event
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // HOUR_US) * HOUR_US
        t = t.append_column("window_start_us", pa.array(win, pa.int64()))
        g = t.group_by(["user_id", "window_start_us"], use_threads=False).aggregate(
            [("value", "count"), ("value", "sum")]
        )
        return g.rename_columns(["user_id", "window_start_us", "n", "v"])

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(window_partial, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .groupby(["user_id", "window_start_us"])
        .aggregate(Sum("n", alias_name="n_events"), Sum("v", alias_name="value_sum"))
    )

    def fix_types(t: pa.Table) -> pa.Table:
        i = t.column_names.index("n_events")
        return t.set_column(i, "n_events", pa.compute.cast(t.column("n_events"), pa.int64()))

    agg = agg.map_batches(fix_types, batch_format="pyarrow", batch_size=None)
    return round_columns(agg, ["value_sum"])


def session_windows(sf_dir: str, gap_minutes: int = 30) -> Dataset:
    """Session windows per user (gap > ``gap_minutes`` starts a new session):
    returns one row per session with start/end (us), event count, value sum.
    groupby(user).map_groups with an in-group ts sort — the canonical Ray
    Data session-windowing shape."""
    gap_us = gap_minutes * 60_000_000
    ds = _events(sf_dir, ["user_id", "ts", "value"])

    def sessions_partition(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse user-hash partition holds COMPLETE event sets for many
        # users; session ids are computed vectorized across all of them
        # (a new session starts at a user change OR a gap) — one pandas call
        # per partition, not per user
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ts = g["ts"].astype("int64").to_numpy()
        uid = g["user_id"].to_numpy()
        new_session = np.empty(len(ts), dtype=bool)
        if len(ts):
            new_session[0] = True
            new_session[1:] = (uid[1:] != uid[:-1]) | ((ts[1:] - ts[:-1]) > gap_us)
        sid = np.cumsum(new_session)
        out = (
            pd.DataFrame({"user_id": uid, "session_idx": sid, "ts_us": ts,
                          "value": g["value"].to_numpy()})
            .groupby("session_idx")
            .agg(
                user_id=("user_id", "first"),
                session_start_us=("ts_us", "min"),
                session_end_us=("ts_us", "max"),
                n_events=("ts_us", "size"),
                value_sum=("value", "sum"),
            )
            .reset_index(drop=True)
        )
        out["n_events"] = out["n_events"].astype("int64")
        out["value_sum"] = out["value_sum"].round(4)
        return out[["user_id", "session_start_us", "session_end_us", "n_events", "value_sum"]]

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        sessions_partition,
        batch_format="pandas",
    )


def rolling_daily_per_user(sf_dir: str) -> Dataset:
    """Per-user running cumulative value ordered by ts (windowed running
    aggregate; oracle = SUM() OVER (PARTITION BY ... ORDER BY ...))."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def running_partition(g: pd.DataFrame) -> pd.DataFrame:
        # (ts, event_id) sort: deterministic under duplicate timestamps so
        # the SQL window-function oracle orders identically; the cumsum is a
        # single vectorized groupby over the whole partition
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g["running_value"] = g.groupby("user_id")["value"].cumsum().round(4)
        return g[["event_id", "user_id", "running_value"]]

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        running_partition,
        batch_format="pandas",
    )


def lag_delta_per_user(sf_dir: str) -> Dataset:
    """Per-user LAG window: each event's previous value and value delta in
    (ts, event_id) order; a user's first event gets NULL prev/delta. Same
    coarse-user-partition machinery as the other windows (one vectorized
    shift per partition, never one Python call per user); oracle =
    LAG(value) OVER (PARTITION BY user_id ORDER BY ts, event_id)."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "value"])

    def lag_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id")["value"].shift(1)
        g["prev_value"] = prev.round(4)
        g["delta"] = (g["value"] - prev).round(4)
        return g[["event_id", "user_id", "prev_value", "delta"]]

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        lag_partition,
        batch_format="pandas",
    )


def latest_event_per_user_type(sf_dir: str) -> Dataset:
    """Keep-latest compaction (CDC upsert semantics): for every
    (user_id, event_type) keep the single most recent event, ties on ts
    broken by the larger event_id — the deterministic "last writer wins"
    rule a log-compaction sink applies.

    100 TB shape: each batch first compacts LOCALLY to one row per key
    (sort + keep-last inside the batch), so the exchange moves at most one
    row per key per batch; the same vectorized keep-last then runs once per
    coarse user partition — never one Python call per key."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type", "value"])

    def _keep_last(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts", "event_id"], kind="mergesort")
        g = g.drop_duplicates(["user_id", "event_type"], keep="last")
        out = g[["user_id", "event_type", "event_id", "value"]].copy()
        out["ts_us"] = g["ts"].astype("int64")
        return out[["user_id", "event_type", "ts_us", "event_id", "value"]]

    def batch_compact(g: pd.DataFrame) -> pd.DataFrame:
        return _keep_last(g)

    compacted = ds.map_batches(batch_compact, batch_format="pandas", batch_size=None)

    def partition_compact(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_type", "ts_us", "event_id"], kind="mergesort")
        return g.drop_duplicates(["user_id", "event_type"], keep="last")[
            ["user_id", "event_type", "ts_us", "event_id", "value"]
        ]

    return map_partitions(
        with_parts(compacted, ["user_id"]),
        "__part",
        partition_compact,
        batch_format="pandas",
    )


def event_path_per_user(sf_dir: str, k: int = 8) -> Dataset:
    """Ordered group-concat: each user's first ``k`` event types in
    (ts, event_id) order joined with '>' — the classic clickstream-path /
    journey operator (SQL: string_agg(... ORDER BY ...) over a ROW_NUMBER
    prefix).

    The coarse user partition co-locates complete users; the k-prefix is
    taken vectorized (cumcount < k) and only the final join-to-string is
    per-user work — unavoidable, since the OUTPUT is one string per user."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def paths_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g[g.groupby("user_id").cumcount() < k]
        out = g.groupby("user_id", sort=False)["event_type"].agg(">".join)
        return pd.DataFrame({"user_id": out.index.to_numpy(), "path": out.to_numpy()})

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        paths_partition,
        batch_format="pandas",
    )


def daily_new_users(sf_dir: str) -> pa.Table:
    """User-acquisition curve: first-seen day per user (distributed argmin),
    new-user count per day, cumulative total. The per-batch partial
    collapses to one (user, min_day) row per user per batch, the global
    combine is a Min over int days, and the only driver-side step is the
    running sum over the per-DAY table — bounded by the calendar, not by
    the data."""
    from ray.data.aggregate import Min, Sum

    ds = _events(sf_dir, ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        day = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // 86_400_000_000
        g = (
            pa.table({"user_id": t["user_id"], "day": pa.array(day)})
            .group_by("user_id", use_threads=False)
            .aggregate([("day", "min")])
        )
        return g.rename_columns(["user_id", "day"])

    first_seen = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Min("day", alias_name="day"))
    )

    def day_partial(t: pa.Table) -> pa.Table:
        g = t.select(["day"]).group_by("day", use_threads=False).aggregate([([], "count_all")])
        return g.rename_columns(["day", "n_new"])

    per_day = (
        first_seen.map_batches(day_partial, batch_format="pyarrow", batch_size=None)
        .groupby("day")
        .aggregate(Sum("n_new", alias_name="n_new"))
        .to_pandas()
        .sort_values("day")
    )
    days = per_day["day"].to_numpy(np.int64)
    n_new = per_day["n_new"].to_numpy(np.int64)
    labels = (days.astype("datetime64[D]")).astype(str)
    return pa.table(
        {
            "day": pa.array(labels.tolist(), pa.string()),
            "n_new": pa.array(n_new),
            "cum_users": pa.array(np.cumsum(n_new)),
        }
    )


def funnel_stages(sf_dir: str) -> pa.Table:
    """Ordered conversion funnel view -> click -> purchase: stage k counts
    users with an event of stage-k type STRICTLY AFTER their stage-(k-1)
    anchor (anchor = earliest qualifying ts, the classic greedy funnel).
    Returns 3 rows (stage, n_users), cumulative-entry semantics.

    Scale shape: ONE coarse user-hash exchange (complete users per
    partition), then the whole funnel resolves inside each partition with
    three vectorized polars joins; the exchange output is 3 ints per
    partition — the global combine is a 3-row sum."""
    import polars as pl

    ds = _events(sf_dir, ["user_id", "ts", "event_type"])

    def funnel_partition(g: pd.DataFrame) -> pd.DataFrame:
        df = pl.from_pandas(g[["user_id", "ts", "event_type"]])
        v = (
            df.filter(pl.col("event_type") == "view")
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("t1"))
        )
        c = (
            df.filter(pl.col("event_type") == "click")
            .join(v, on="user_id")
            .filter(pl.col("ts") > pl.col("t1"))
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("t2"))
        )
        p = (
            df.filter(pl.col("event_type") == "purchase")
            .join(c, on="user_id")
            .filter(pl.col("ts") > pl.col("t2"))
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("t3"))
        )
        return pd.DataFrame(
            {"stage": [1, 2, 3], "n_users": [v.height, c.height, p.height]}
        )

    parts = map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        funnel_partition,
        batch_format="pandas",
    )
    out = (
        parts.groupby("stage")
        .sum("n_users")
        .to_pandas()
        .rename(columns={"sum(n_users)": "n_users"})
        .sort_values("stage")
    )
    return pa.table(
        {
            "stage": pa.array(out["stage"].to_numpy(), pa.int64()),
            "n_users": pa.array(out["n_users"].to_numpy(), pa.int64()),
        }
    )


def role_transitions(transcripts_path: str) -> Dataset:
    """Role-transition matrix of the NORTH-RULE input table itself: for
    every conversation, count consecutive (role -> next role) pairs across
    the corpus. Emits (role_from, role_to, n) — the conversation-structure
    profile a transcript-scale pipeline wants before modeling turn order.

    Scale shape: read only (conv_id, turn_idx, role); coarse conv-hash
    partitions co-locate each conversation; the per-partition kernel is one
    factorize + lexsort + vectorized shift emitting per-partition PARTIAL
    transition counts (at most |roles|^2 rows per partition), and a tiny
    groupby-sum finishes. Turn text never leaves the scan."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role"])

    def part_counts(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        role = t["role"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, role = codes[order], role[order]
        same = codes[1:] == codes[:-1]
        frm, to = role[:-1][same], role[1:][same]
        roles, rcodes = np.unique(np.concatenate([frm, to]), return_inverse=True)
        n = len(roles)
        fc, tc = rcodes[: len(frm)], rcodes[len(frm):]
        counts = np.bincount(fc * n + tc, minlength=n * n).reshape(n, n)
        nz = np.nonzero(counts)
        return pa.table(
            {
                "role_from": pa.array(roles[nz[0]].tolist(), pa.string()),
                "role_to": pa.array(roles[nz[1]].tolist(), pa.string()),
                "cnt": pa.array(counts[nz].astype("int64"), pa.int64()),
            }
        )

    partials = map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        part_counts,
    )
    return (
        partials.groupby(["role_from", "role_to"]).aggregate(Sum("cnt", alias_name="n"))
    )


def tool_usage(transcripts_path: str) -> Dataset:
    """Tool-usage profile of the transcripts table: per (role, tool) the
    turn count and distinct conversations touched. Partial pre-agg per
    block (distinct (role, tool, conv) rows), one small exchange."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "role", "tool"])

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["role", "tool", "conv_id"], use_threads=False).aggregate(
            [("conv_id", "count")]
        )
        return pa.table(
            {
                "role": g["role"],
                "tool": g["tool"],
                "conv_id": g["conv_id"],
                "n": g["conv_id_count"].cast(pa.int64()),
            }
        )

    # second level: collapse per (role, tool, conv) across blocks, then the
    # final (role, tool) rollup counts conversations exactly
    per_conv = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["role", "tool", "conv_id"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def finish(t: pa.Table) -> pa.Table:
        g = t.group_by(["role", "tool"], use_threads=False).aggregate(
            [("n", "sum"), ("conv_id", "count")]
        )
        return pa.table(
            {
                "role": g["role"],
                "tool": g["tool"],
                "n_turns": g["n_sum"].cast(pa.int64()),
                "n_convs": g["conv_id_count"].cast(pa.int64()),
            }
        )

    return (
        per_conv.map_batches(finish, batch_format="pyarrow", batch_size=None)
        .groupby(["role", "tool"])
        .aggregate(Sum("n_turns", alias_name="n_turns"), Sum("n_convs", alias_name="n_convs"))
    )


def conv_stats(transcripts_path: str) -> Dataset:
    """Per-conversation structural profile of the NORTH-RULE transcripts
    table: turn count, tool-turn count, total / max turn characters, and
    wall-clock span in microseconds — the first-look statistics a
    transcript-scale curation pipeline computes before filtering (too-short
    conversations, tool-only traces, degenerate single-turn rows).

    Emits (conv_id, n_turns, n_tool_turns, total_chars, max_turn_chars,
    duration_us). Scale shape: every statistic is a mergeable partial
    (count / sum / max / min), so one in-batch Arrow group_by per block +
    a single conv-keyed Sum/Max/Min exchange finishes — turn text never
    crosses the shuffle (only its length does)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "text", "tool", "ts"]
    )

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "conv_id": t["conv_id"],
                    "one": pa.array(np.ones(t.num_rows, np.int64)),
                    "is_tool": pc.cast(
                        pc.invert(pc.equal(t["tool"], "")), pa.int64()
                    ),
                    "chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                    "ts_us": t["ts"].cast(pa.int64()),
                }
            )
            .group_by("conv_id", use_threads=False)
            .aggregate(
                [
                    ("one", "sum"),
                    ("is_tool", "sum"),
                    ("chars", "sum"),
                    ("chars", "max"),
                    ("ts_us", "min"),
                    ("ts_us", "max"),
                ]
            )
        )
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_turns": pc.cast(g["one_sum"], pa.int64()),
                "n_tool_turns": pc.cast(g["is_tool_sum"], pa.int64()),
                "total_chars": pc.cast(g["chars_sum"], pa.int64()),
                "max_turn_chars": pc.cast(g["chars_max"], pa.int64()),
                "ts_min": g["ts_us_min"],
                "ts_max": g["ts_us_max"],
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("conv_id")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("n_tool_turns", alias_name="n_tool_turns"),
            Sum("total_chars", alias_name="total_chars"),
            Max("max_turn_chars", alias_name="max_turn_chars"),
            Min("ts_min", alias_name="ts_min"),
            Max("ts_max", alias_name="ts_max"),
        )
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "n_turns": t["n_turns"],
                "n_tool_turns": t["n_tool_turns"],
                "total_chars": t["total_chars"],
                "max_turn_chars": t["max_turn_chars"],
                "duration_us": pc.subtract(
                    t["ts_max"].cast(pa.int64()), t["ts_min"].cast(pa.int64())
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def sft_pairs(transcripts_path: str) -> Dataset:
    """Supervised-fine-tuning pair extraction over the NORTH-RULE
    transcripts table: every (user turn, immediately-following assistant
    turn) adjacency becomes one (prompt, response) training example — the
    standard instruction-tuning harvest from multi-turn agent transcripts.
    Emits (conv_id, prompt_turn, prompt, response); adjacency means
    turn_idx + 1 exactly, so tool interludes break the pair.

    Scale shape: coarse conv-hash partitions co-locate each conversation
    ONCE (text must travel to meet its reply — that movement IS the
    operator's output); the per-partition kernel is factorize + lexsort +
    one vectorized shift, no Python row loop. Order inside a partition is
    re-derived from turn_idx — global row order is never relied on."""

    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "turn_idx", "role", "text"]
    )

    def pairs(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        role = t["role"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx, role = codes[order], idx[order], role[order]
        adj = (
            (codes[1:] == codes[:-1])
            & (idx[1:] == idx[:-1] + 1)
            & (role[:-1] == "user")
            & (role[1:] == "assistant")
        )
        pi = order[:-1][adj]  # prompt rows (original positions)
        ri = order[1:][adj]  # response rows
        text = t["text"]
        return pa.table(
            {
                "conv_id": t["conv_id"].take(pa.array(pi)),
                "prompt_turn": pa.array(
                    t["turn_idx"].to_numpy(zero_copy_only=False)[pi].astype(np.int64)
                ),
                "prompt": text.take(pa.array(pi)),
                "response": text.take(pa.array(ri)),
            }
        )

    return map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        pairs,
    )


def conv_dedup(transcripts_path: str) -> Dataset:
    """EXACT conversation-level deduplication over the north-rule
    transcripts table: two conversations are duplicates when their full
    turn-ordered text sequences are byte-identical (the transcript analog
    of exact_dedup_docs — retries, re-runs and mirrored logs produce them
    at corpus scale). Emits (conv_id, conv_sha, rep_conv_id, group_size)
    where conv_sha = md5 of the '\\x1f'-joined turn texts in turn order,
    rep = lexicographically smallest member.

    Scale shape: conv-hash partitions co-locate each conversation once; the
    per-partition kernel lexsorts and emits ONE 16-byte digest row per
    conversation; a second digest-keyed partition groups identical
    conversations (members of a digest co-locate) and emits each member
    with its representative. Turn text never crosses the second exchange."""
    import hashlib

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "text"])

    def digest(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = t["text"].to_numpy(zero_copy_only=False)
        convs, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes_s, text_s = codes[order], text[order]
        starts = np.concatenate(([0], np.flatnonzero(codes_s[1:] != codes_s[:-1]) + 1))
        ends = np.concatenate((starts[1:], [len(codes_s)]))
        shas = [
            hashlib.md5("\x1f".join(text_s[s:e]).encode()).hexdigest()
            for s, e in zip(starts.tolist(), ends.tolist())
        ]
        out = pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "conv_sha": pa.array(shas, pa.string()),
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_sha"]))

    # first exchange: conversations co-locate by conv hash; digest() emits
    # one row per conversation already tagged with its SECOND (digest-keyed)
    # partition, so duplicates co-locate next
    per_conv = map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        digest,
    )

    def group(t: pa.Table) -> pa.Table:
        sha = t["conv_sha"].to_numpy(zero_copy_only=False)
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((conv, sha))
        sha_s, conv_s = sha[order], conv[order]
        starts = np.concatenate(([0], np.flatnonzero(sha_s[1:] != sha_s[:-1]) + 1))
        sizes = np.diff(np.concatenate((starts, [len(sha_s)])))
        rep = np.repeat(conv_s[starts], sizes)  # min conv_id per sha (sorted)
        return pa.table(
            {
                "conv_id": pa.array(conv_s.tolist(), pa.string()),
                "conv_sha": pa.array(sha_s.tolist(), pa.string()),
                "rep_conv_id": pa.array(rep.tolist(), pa.string()),
                "group_size": pa.array(np.repeat(sizes, sizes).astype(np.int64)),
            }
        )

    return map_partitions(
        per_conv,
        "__part",
        group,
    )


def conv_loop_score(transcripts_path: str) -> Dataset:
    """Loop-detection curation signal over agent transcripts: per
    conversation, the fraction of turns whose text is an exact repeat of
    an earlier turn in the SAME conversation (an agent stuck re-emitting
    the same tool call / apology loop scores high). Emits (conv_id,
    n_turns, n_distinct, loop_score) with
    loop_score = round(1 - n_distinct / n_turns, 6).

    Scale shape: turn text is md5-hashed in the scan (16 B crosses the
    wire, never text; the oracle hashes identically); distinct counting is
    the two-level distinct pattern — per-block distinct (conv, digest)
    partials, one pair-keyed exchange collapses global distinct, then a
    tagged union with per-block turn-count partials folds both statistics
    in ONE final conv-keyed Sum exchange."""
    import hashlib

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "text"])

    def pair_partial(t: pa.Table) -> pa.Table:
        text = t["text"].to_numpy(zero_copy_only=False)
        digs = [hashlib.md5(x.encode()).hexdigest()[:16] for x in text]
        g = (
            pa.table({"conv_id": t["conv_id"], "h": pa.array(digs, pa.string())})
            .group_by(["conv_id", "h"], use_threads=False)
            .aggregate([])
        )
        # dummy agg column: Ray's groupby needs at least one aggregate to
        # collapse duplicates (the distinct_users_by_type pattern)
        return g.append_column("one", pa.array(np.ones(g.num_rows, np.int64)))

    from ray.data.aggregate import Max

    distinct = (
        ds.map_batches(pair_partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["conv_id", "h"])
        .aggregate(Max("one", alias_name="one"))
    )

    def tag_distinct(t: pa.Table) -> pa.Table:
        n = t.num_rows
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "n_distinct": pa.array(np.ones(n, np.int64)),
                "n_turns": pa.array(np.zeros(n, np.int64)),
            }
        )

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.group_by("conv_id", use_threads=False).aggregate([("conv_id", "count")])
        return pa.table(
            {
                "conv_id": g["conv_id"],
                "n_distinct": pa.array(np.zeros(g.num_rows, np.int64)),
                "n_turns": pc.cast(g["conv_id_count"], pa.int64()),
            }
        )

    u = distinct.map_batches(
        tag_distinct, batch_format="pyarrow", batch_size=None
    ).union(
        ds.map_batches(count_partial, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
    )
    agg = u.groupby("conv_id").aggregate(
        Sum("n_distinct", alias_name="n_distinct"),
        Sum("n_turns", alias_name="n_turns"),
    )

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_distinct"].to_numpy(zero_copy_only=False).astype(np.float64)
        nt = t["n_turns"].to_numpy(zero_copy_only=False).astype(np.float64)
        # half-away-from-zero rounding (SQL ROUND), not numpy's banker's —
        # the curation.py precedent; loop_score is non-negative
        score = np.floor((1.0 - nd / nt) * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "n_turns": t["n_turns"],
                "n_distinct": t["n_distinct"],
                "loop_score": pa.array(score, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def turn_length_percentiles(transcripts_path: str) -> Dataset:
    """EXACT per-role turn-length distribution over the transcripts table:
    p50 / p90 / p99 of the turn's character count plus min/max/n — the
    length profile a curation pipeline reads before choosing truncation
    budgets per role. Emits (role, n_turns, len_min, p50, p90, p99,
    len_max), all int64.

    Scale shape: turn length is a SMALL int, so the full distribution is a
    mergeable (role, len) histogram — one in-batch group_by partial per
    block, one (role, len)-keyed Sum exchange, then a per-role vectorized
    cumsum pick. Percentile indices use the discrete ceil(q*n) rule in
    exact integer arithmetic (matches SQL quantile_disc / percentile_disc);
    no sort of the data itself, no driver state."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(transcripts_path, columns=["role", "text"])

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    "role": t["role"],
                    "len": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                }
            )
            .group_by(["role", "len"], use_threads=False)
            .aggregate([("len", "count")])
        )
        return pa.table(
            {
                "role": g["role"],
                "len": g["len"],
                "n": pc.cast(g["len_count"], pa.int64()),
            }
        )

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["role", "len"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def pick(t: pa.Table) -> pa.Table:
        role = t["role"].to_numpy(zero_copy_only=False)
        ln = t["len"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ln, role))
        role, ln, n = role[order], ln[order], n[order]
        starts = np.concatenate(([0], np.flatnonzero(role[1:] != role[:-1]) + 1))
        ends = np.concatenate((starts[1:], [len(role)]))
        rows = {k: [] for k in ("role", "n_turns", "len_min", "p50", "p90", "p99", "len_max")}
        for s, e in zip(starts.tolist(), ends.tolist()):
            lens, cnts = ln[s:e], n[s:e]
            cum = np.cumsum(cnts)
            total = int(cum[-1])
            # discrete percentile: smallest len with cum >= ceil(q * total),
            # in exact integer arithmetic (q = pct/100)
            qs = [
                lens[np.searchsorted(cum, (total * pct + 99) // 100)]
                for pct in (50, 90, 99)
            ]
            rows["role"].append(role[s])
            rows["n_turns"].append(total)
            rows["len_min"].append(int(lens[0]))
            rows["p50"].append(int(qs[0]))
            rows["p90"].append(int(qs[1]))
            rows["p99"].append(int(qs[2]))
            rows["len_max"].append(int(lens[-1]))
        return pa.table(
            {
                "role": pa.array([str(r) for r in rows["role"]], pa.string()),
                "n_turns": pa.array(rows["n_turns"], pa.int64()),
                "len_min": pa.array(rows["len_min"], pa.int64()),
                "p50": pa.array(rows["p50"], pa.int64()),
                "p90": pa.array(rows["p90"], pa.int64()),
                "p99": pa.array(rows["p99"], pa.int64()),
                "len_max": pa.array(rows["len_max"], pa.int64()),
            }
        )

    return map_partitions(
        hist,
        "role",
        pick,
    )


def flagged_turn_fraction(
    transcripts_path: str, pattern: str = r"(failing|error)"
) -> Dataset:
    """Per-conversation incident-density curation signal over the
    north-rule transcripts table: the fraction of turns whose text matches
    an RE2 ``pattern`` (default: error/failure chatter). The same operator
    with a refusal-pattern argument is the standard SFT-harvest refusal
    filter — conversations above a threshold get dropped or down-weighted
    before training. Emits (conv_id, n_turns, n_flagged, flag_fraction)
    with flag_fraction = ROUND(n_flagged / n_turns, 6).

    Scale shape: the regex runs as ONE vectorized Arrow RE2 kernel per
    block (pc.match_substring_regex — same engine as DuckDB's
    regexp_matches, so the oracle shares the kernel); each block collapses
    to (conv_id, n, n_flagged) partial counts before the single conv-keyed
    Sum exchange — text never crosses the shuffle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.cast(pc.match_substring_regex(t["text"], pattern), pa.int64())
        g = (
            pa.table({"conv_id": t["conv_id"], "n_flagged": m})
            .group_by("conv_id", use_threads=False)
            .aggregate([("n_flagged", "sum"), ([], "count_all")])
        )
        return g.rename_columns(["conv_id", "n_flagged", "n_turns"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby("conv_id")
        .aggregate(Sum("n_turns", alias_name="n_turns"), Sum("n_flagged", alias_name="n_flagged"))
    )

    def finish(t: pa.Table) -> pa.Table:
        nf = t["n_flagged"].to_numpy(zero_copy_only=False).astype(np.float64)
        nt = t["n_turns"].to_numpy(zero_copy_only=False).astype(np.float64)
        # half-away-from-zero rounding (SQL ROUND); fraction is non-negative
        frac = np.floor(nf / nt * 1e6 + 0.5) / 1e6
        return pa.table(
            {
                "conv_id": t["conv_id"],
                "n_turns": pc.cast(t["n_turns"], pa.int64()),
                "n_flagged": pc.cast(t["n_flagged"], pa.int64()),
                "flag_fraction": pa.array(frac, pa.float64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", batch_size=None)


def prompt_prefix_dedup(transcripts_path: str) -> Dataset:
    """Prompt-level dedup over the north-rule transcripts table: two
    conversations are prompt-duplicates when their FIRST user turns are
    byte-identical — the SFT-harvest guard against one over-represented
    prompt dominating the (prompt, response) training mix (the
    conv_dedup sibling at prompt granularity; re-asked FAQs and templated
    tickets produce these at corpus scale). Emits one row per conversation
    that has a user turn: (conv_id, prompt_sha, rep_conv_id, group_size),
    rep = lexicographically smallest member of the digest group.

    Scale shape (the conv_dedup two-exchange contract): conv-hash
    partitions co-locate each conversation once; the per-partition kernel
    lexsorts (conv, turn_idx) over the user rows and emits ONE 16-byte
    md5 digest row per conversation, pre-tagged with its digest-keyed
    second partition where identical prompts co-locate for grouping.
    Prompt text never crosses the second exchange."""
    import hashlib

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role", "text"])

    _DIGEST_SCHEMA = pa.schema(
        [("conv_id", pa.string()), ("prompt_sha", pa.string()), ("__part", pa.int64())]
    )

    def digest_first_user(t: pa.Table) -> pa.Table:
        mask = pa.compute.equal(t["role"], "user")
        t = t.filter(mask)
        if t.num_rows == 0:  # partition held only non-user turns
            return _DIGEST_SCHEMA.empty_table()
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        text = t["text"].to_numpy(zero_copy_only=False)
        convs, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes_s = codes[order]
        starts = np.concatenate(([0], np.flatnonzero(codes_s[1:] != codes_s[:-1]) + 1))
        first_rows = order[starts]  # min turn_idx user row per conversation
        shas = [hashlib.md5(text[r].encode()).hexdigest() for r in first_rows.tolist()]
        out = pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "prompt_sha": pa.array(shas, pa.string()),
            }
        )
        return out.append_column("__part", part_ids(out, ["prompt_sha"]))

    per_conv = map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        digest_first_user,
    )

    def group(t: pa.Table) -> pa.Table:
        sha = t["prompt_sha"].to_numpy(zero_copy_only=False)
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((conv, sha))
        sha_s, conv_s = sha[order], conv[order]
        starts = np.concatenate(([0], np.flatnonzero(sha_s[1:] != sha_s[:-1]) + 1))
        sizes = np.diff(np.concatenate((starts, [len(sha_s)])))
        rep = np.repeat(conv_s[starts], sizes)  # min conv_id per sha (sorted)
        return pa.table(
            {
                "conv_id": pa.array(conv_s.tolist(), pa.string()),
                "prompt_sha": pa.array(sha_s.tolist(), pa.string()),
                "rep_conv_id": pa.array(rep.tolist(), pa.string()),
                "group_size": pa.array(np.repeat(sizes, sizes).astype(np.int64)),
            }
        )

    return map_partitions(
        per_conv,
        "__part",
        group,
    )


def role_alternation_audit(transcripts_path: str) -> Dataset:
    """Per-conversation structural VALIDATION of the north-rule transcripts
    table: turn count plus the number of adjacent same-role turn pairs
    (``n_role_repeats``) under stable turn ordering. An SFT harvest filters
    on n_role_repeats = 0 before pairing prompts with replies — this is the
    audit that says which conversations are well-formed alternations and
    which need repair (merged double-sends, dropped turns).

    Scale shape: read only (conv_id, turn_idx, role); conv-hash partitions
    co-locate each conversation ONCE, the per-partition kernel is one
    factorize + lexsort + vectorized shift emitting final per-conversation
    rows directly (no second exchange — each conversation is complete in
    its partition). Text never leaves the scan."""
    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role"])

    def audit(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        role = t["role"].to_numpy(zero_copy_only=False)
        convs, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, role = codes[order], role[order]
        same = (codes[1:] == codes[:-1]) & (role[1:] == role[:-1])
        reps = np.bincount(codes[1:][same], minlength=len(convs)).astype(np.int64)
        n_turns = np.bincount(codes, minlength=len(convs)).astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_role_repeats": pa.array(reps, pa.int64()),
            }
        )

    return map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        audit,
    )


def context_window_pack(transcripts_path: str, context_chars: int = 400) -> Dataset:
    """Last-k-turns context assembly plan over the transcripts table: per
    conversation, keep the maximal SUFFIX of turns (stable turn order) whose
    total character length fits ``context_chars``, always keeping at least
    the final turn — the truncation rule a chat-training pipeline applies
    before tokenizing multi-turn context. Emits per conversation the turn
    count, how many trailing turns survive, their character total, and the
    first surviving turn_idx.

    Scale shape: reads (conv_id, turn_idx, n=utf8_length(text)) — lengths
    are computed in the scan so TEXT never crosses the exchange; conv-hash
    partitions co-locate conversations once; the kernel is a segmented
    reverse cumulative sum (suffix sums are monotone, so the kept set is a
    reverse-prefix — one vectorized reduceat pass, final rows emitted
    directly)."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "text"])
    B = np.int64(context_chars)

    def lengths(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": t["turn_idx"],
                "n_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))

    def pack(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.int64)
        convs, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((-idx, codes))  # reverse turn order within conv
        codes, idx, n = codes[order], idx[order], n[order]
        seg = np.concatenate([[0], np.flatnonzero(codes[1:] != codes[:-1]) + 1])
        seg_len = np.diff(np.concatenate([seg, [len(codes)]]))
        inc = np.cumsum(n) - np.repeat((np.cumsum(n) - n)[seg], seg_len)
        pos = np.arange(len(codes)) - np.repeat(seg, seg_len)
        keep = (inc <= B) | (pos == 0)  # suffix sums monotone -> reverse-prefix
        n_kept = np.add.reduceat(keep.astype(np.int64), seg)
        chars_kept = np.add.reduceat(np.where(keep, n, 0), seg)
        idx_masked = np.where(keep, idx, np.int64(2**62))
        start_idx = np.minimum.reduceat(idx_masked, seg)
        n_turns = seg_len.astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(convs[codes[seg]].tolist(), pa.string()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_kept": pa.array(n_kept, pa.int64()),
                "chars_kept": pa.array(chars_kept, pa.int64()),
                "start_turn_idx": pa.array(start_idx, pa.int64()),
            }
        )

    return map_partitions(
        ds.map_batches(lengths, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        pack,
    )


def tool_attribution(transcripts_path: str) -> Dataset:
    """As-of tool attribution over the transcripts table: for every turn,
    the tool of the most recent tool-bearing turn at or before it in the
    same conversation ('' until one occurs) — the forward-fill that lets a
    downstream stage ask "which tool produced the context this assistant
    turn is reacting to?". This is the engine's segmented FORWARD-FILL
    primitive (an ordered as-of lookup, not a mergeable fold).

    Scale shape: reads (conv_id, turn_idx, tool) only; conv-hash partitions
    co-locate conversations once; the kernel is one lexsort + a single
    np.maximum.accumulate over valid-row indices with a segment-start guard
    (no per-row Python). Output cardinality = input turns, but each row is
    three light columns — text never enters the op."""
    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "tool"])

    def ffill(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False).astype(np.int64)
        tool = t["tool"].to_numpy(zero_copy_only=False).astype(object)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        conv, idx, tool, codes = conv[order], idx[order], tool[order], codes[order]
        n = len(codes)
        seg = np.concatenate([[0], np.flatnonzero(codes[1:] != codes[:-1]) + 1])
        seg_first = np.repeat(seg, np.diff(np.concatenate([seg, [n]])))
        valid = tool != ""
        ptr = np.maximum.accumulate(np.where(valid, np.arange(n), -1))
        filled = np.where(ptr >= seg_first, ptr, -1)
        out = np.where(filled >= 0, tool[np.maximum(filled, 0)], "")
        return pa.table(
            {
                "conv_id": pa.array(conv.tolist(), pa.string()),
                "turn_idx": pa.array(idx, pa.int64()),
                "last_tool": pa.array(out.tolist(), pa.string()),
            }
        )

    return map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        ffill,
    )


def response_latency(transcripts_path: str) -> Dataset:
    """Per-conversation assistant responsiveness over the transcripts
    table: across adjacent (user turn -> assistant turn) pairs under stable
    turn order, the pair count plus the exact SUM and MAX reply gap in
    microseconds (0 when a conversation has no such pair). All-integer
    outputs — the mean is a client-side division — so the oracle compare
    never touches float rounding.

    Scale shape: reads (conv_id, turn_idx, role, ts); conv-hash partitions
    co-locate conversations once; the kernel is one lexsort + vectorized
    shift producing the adjacency mask, then three bincount/maximum.at
    folds emit FINAL per-conversation rows directly."""
    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role", "ts"])

    def gaps(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        role = t["role"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        convs, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, role, ts = codes[order], role[order], ts[order]
        adj = (codes[1:] == codes[:-1]) & (role[:-1] == "user") & (role[1:] == "assistant")
        pc_ = codes[:-1][adj]
        gap = ts[1:][adj] - ts[:-1][adj]
        k = len(convs)
        n_pairs = np.bincount(pc_, minlength=k).astype(np.int64)
        sum_gap = np.bincount(pc_, weights=gap, minlength=k).astype(np.int64)
        max_gap = np.zeros(k, np.int64)
        np.maximum.at(max_gap, pc_, gap)
        return pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "n_pairs": pa.array(n_pairs, pa.int64()),
                "sum_gap_us": pa.array(sum_gap, pa.int64()),
                "max_gap_us": pa.array(max_gap, pa.int64()),
            }
        )

    return map_partitions(
        with_parts(ds, ["conv_id"]),
        "__part",
        gaps,
    )


def hopping_window_counts(sf_dir: str, size_us: int = HOUR_US, hop_us: int = HOUR_US // 4) -> Dataset:
    """Hopping (sliding) window counts over events: windows of ``size_us``
    starting every ``hop_us`` (default 1 h / 15 min), each event counted in
    the size/hop windows covering it — the overlapping-window aggregate
    tumbling_hourly can't express. Emits (window_start_us, event_type,
    n_events) with integer epoch-microsecond window starts so the oracle is
    pure integer arithmetic.

    Scale shape: the fan-out is BOUNDED (size/hop rows per event, here 4)
    and immediately collapsed by an in-block (window, type) count partial,
    so the exchange carries pre-aggregated light rows — window cardinality,
    not event cardinality. No per-event keyed shuffle ever happens."""
    from ray.data.aggregate import Sum

    assert size_us % hop_us == 0
    k = size_us // hop_us
    ds = _events(sf_dir, ["ts", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        ts = t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        last = (ts // hop_us) * hop_us
        # windows (ts - size, ts] at hop multiples: last - j*hop, j in [0, k)
        ws = (last[:, None] - np.arange(k, dtype=np.int64) * hop_us).ravel()
        et = t["event_type"].to_numpy(zero_copy_only=False).astype(object)
        et = np.repeat(et, k)
        types, tcodes = np.unique(et, return_inverse=True)
        wuniq, wcodes = np.unique(ws, return_inverse=True)
        key = wcodes.astype(np.int64) * len(types) + tcodes
        cnt = np.bincount(key, minlength=len(wuniq) * len(types))
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "window_start_us": pa.array(wuniq[nz // len(types)], pa.int64()),
                "event_type": pa.array(types[nz % len(types)].tolist(), pa.string()),
                "n": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        .groupby(["window_start_us", "event_type"])
        .aggregate(Sum("n", alias_name="n_events"))
    )


def conv_partition_skew(transcripts_path: str, parts: int = 64) -> Dataset:
    """Partition-skew audit of the transcripts table under a 64-way
    conversation-hash partitioner — the explicit skew QA the north rule
    asks for: per partition, distinct conversations, turn rows, and total
    text characters, from which the driver reads the imbalance factor
    before sizing a shuffle. The partitioner here is the engine's
    digest trick (md5 60-bit % parts) so the SQL oracle replays the exact
    assignment; production stages use the same modulus over their own hash.

    Scale shape: per-block (part, conv) pre-aggregated partials (tool_usage
    two-level-distinct contract), ONE part-keyed exchange of light rows,
    exact distinct-conversation counts in the final kernel. The md5 is
    computed once per DISTINCT conv in a block, not per row."""
    import hashlib

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "text"])

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        nc = pc.cast(pc.utf8_length(t["text"]), pa.int64()).to_numpy(zero_copy_only=False)
        convs, codes = np.unique(conv, return_inverse=True)
        p = np.fromiter(
            (int(hashlib.md5(c.encode()).hexdigest()[:15], 16) % parts for c in convs),
            np.int64,
            len(convs),
        )
        n_turns = np.bincount(codes, minlength=len(convs)).astype(np.int64)
        n_chars = np.bincount(codes, weights=nc, minlength=len(convs)).astype(np.int64)
        return pa.table(
            {
                "conv_id": pa.array(convs.tolist(), pa.string()),
                "__part": pa.array(p, pa.int64()),
                "n_turns": pa.array(n_turns, pa.int64()),
                "n_chars": pa.array(n_chars, pa.int64()),
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        part = t["__part"].to_numpy(zero_copy_only=False)
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        nt = t["n_turns"].to_numpy(zero_copy_only=False)
        nc = t["n_chars"].to_numpy(zero_copy_only=False)
        puniq, pcodes = np.unique(part, return_inverse=True)
        # distinct convs per part: unique (part, conv) pairs
        pair = np.unique(np.stack([pcodes, np.unique(conv, return_inverse=True)[1]]), axis=1)
        n_convs = np.bincount(pair[0], minlength=len(puniq)).astype(np.int64)
        return pa.table(
            {
                "part": pa.array(puniq, pa.int64()),
                "n_convs": pa.array(n_convs, pa.int64()),
                "n_turns": pa.array(np.bincount(pcodes, weights=nt, minlength=len(puniq)).astype(np.int64), pa.int64()),
                "n_chars": pa.array(np.bincount(pcodes, weights=nc, minlength=len(puniq)).astype(np.int64), pa.int64()),
            }
        )

    return map_partitions(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
        "__part",
        finish,
    )


def qa_length_correlation(transcripts_path: str) -> pa.Table:
    """Prompt/response length coupling: Pearson r between the character
    length of each user turn and its immediately-following assistant turn
    (turn_idx + 1 in the same conversation — sft_pairs' adjacency), plus
    the exact pair count. Do long prompts beget long answers?

    Scale shape: unlike sft_pairs, NO text moves — the scan reduces each
    turn to (conv, turn_idx, role code, length) light rows; the coarse
    conv-hash partition kernel detects adjacencies vectorized and emits
    one float64 moment row (n, sx, sy, sxx, syy, sxy) per partition; the
    driver folds ~64 rows. Moments are exact integer sums (< 2^53), and
    the SQL oracle mirrors the same final formula, so r is bit-identical
    before the shared ROUND."""
    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "turn_idx", "role", "text"]
    )

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "is_user": pc.cast(pc.equal(t["role"], "user"), pa.int8()),
                "is_asst": pc.cast(pc.equal(t["role"], "assistant"), pa.int8()),
                "len": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))


    def moments(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        iu = t["is_user"].to_numpy(zero_copy_only=False)
        ia = t["is_asst"].to_numpy(zero_copy_only=False)
        ln = t["len"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx, iu, ia, ln = (
            codes[order], idx[order], iu[order], ia[order], ln[order]
        )
        adj = (
            (codes[1:] == codes[:-1])
            & (idx[1:] == idx[:-1] + 1)
            & (iu[:-1] == 1)
            & (ia[1:] == 1)
        )
        x = ln[:-1][adj].astype(np.float64)
        y = ln[1:][adj].astype(np.float64)
        return pa.table(
            {
                "n": pa.array([float(len(x))], pa.float64()),
                "sx": pa.array([float(x.sum())], pa.float64()),
                "sy": pa.array([float(y.sum())], pa.float64()),
                "sxx": pa.array([float((x * x).sum())], pa.float64()),
                "syy": pa.array([float((y * y).sum())], pa.float64()),
                "sxy": pa.array([float((x * y).sum())], pa.float64()),
            }
        )

    m = (
        map_partitions(
            ds.map_batches(light, batch_format="pyarrow", batch_size=None,
                           zero_copy_batch=True),
            "__part",
            moments,
        )
        .to_pandas()
        .sum()
    )
    n, sx, sy, sxx, syy, sxy = (m[c] for c in ("n", "sx", "sy", "sxx", "syy", "sxy"))
    num = n * sxy - sx * sy
    den = np.sqrt(max(n * sxx - sx * sx, 0.0)) * np.sqrt(max(n * syy - sy * sy, 0.0))
    r = float(num / den) if den > 0 else float("nan")
    return pa.table(
        {
            "qa_len_corr": pa.array([round(r, 6)], pa.float64()),
            "n_pairs": pa.array([int(n)], pa.int64()),
        }
    )


def conv_tool_chains(transcripts_path: str, k: int = 12, topn: int = 50) -> Dataset:
    """Tool-call journey analysis: each conversation's first ``k`` tool
    invocations (role='tool' turns in turn order) joined with '>' into a
    chain string, then the ``topn`` most common chains — which tool
    sequences dominate agent behavior (the event_path_per_user operator
    re-expressed over the north-rule transcripts). Conversations with no
    tool turns are excluded (an empty chain is no journey). Output
    (chain, n_convs), ranked (n DESC, chain) on both engines.

    Scale shape: only (conv_id, turn_idx, tool) light rows enter the
    conv-hash exchange (text never moves); per-partition the k-prefix is
    vectorized cumcount and only the final join-to-string is per-conv
    work; chain counts are partial-aggregated per partition before one
    tiny chain-keyed exchange, and the top-n collect is bounded."""
    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "turn_idx", "role", "tool"]
    )

    def light(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["role"], "tool"))
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "tool": t["tool"],
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))

    def chains_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        g = g[g.groupby("conv_id").cumcount() < k]
        chains = g.groupby("conv_id", sort=False)["tool"].agg(">".join)
        # partial count per chain INSIDE the partition (chains repeat a lot)
        cnt = chains.value_counts()
        return pd.DataFrame(
            {"chain": cnt.index.to_numpy(), "n_convs": cnt.to_numpy().astype("int64")}
        )

    from ray.data.aggregate import Sum as _Sum

    agg = (
        map_partitions(
            ds.map_batches(light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True),
            "__part",
            chains_partition,
            batch_format="pandas",
        )
        .groupby("chain")
        .aggregate(_Sum("n_convs", alias_name="n_convs"))
    )
    top = agg.sort(["n_convs", "chain"], descending=[True, False]).limit(topn)
    return top


def role_trigrams(transcripts_path: str) -> Dataset:
    """Conversation-structure motif census: counts of every adjacent role
    trigram (role at turn t, t+1, t+2 within one conversation) across the
    corpus — the dialogue-shape profile a curation pass reads to spot
    degenerate flows (assistant>assistant>assistant runs, tool storms).
    Emits (r1, r2, r3, n_trigrams); adjacency is turn_idx arithmetic, so
    the oracle is a double self-join on turn_idx+1 / turn_idx+2.

    Scale shape: only (conv_id, turn_idx, role) light rows enter the
    conv-hash exchange (role_transitions' contract, one more shift); per
    partition the trigram detect is three aligned slices of one lexsort
    and the count is np.unique over packed role codes; |roles|^3-bounded
    partials meet in a tiny final combine."""
    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role"])

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "role": t["role"],
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))

    out_schema = pa.schema(
        [
            ("r1", pa.string()),
            ("r2", pa.string()),
            ("r3", pa.string()),
            ("n_trigrams", pa.int64()),
        ]
    )

    def trigrams(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        role = t["role"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx, role = codes[order], idx[order], role[order]
        roles, rc = np.unique(role, return_inverse=True)
        if len(rc) < 3:
            return out_schema.empty_table()
        ok = (
            (codes[2:] == codes[:-2])
            & (idx[1:-1] == idx[:-2] + 1)
            & (idx[2:] == idx[:-2] + 2)
        )
        k = len(roles)
        key = rc[:-2][ok] * k * k + rc[1:-1][ok] * k + rc[2:][ok]
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "r1": pa.array(roles[uk // (k * k)].tolist(), pa.string()),
                "r2": pa.array(roles[(uk // k) % k].tolist(), pa.string()),
                "r3": pa.array(roles[uk % k].tolist(), pa.string()),
                "n_trigrams": pa.array(cnt.astype(np.int64)),
            }
        )

    from ray.data.aggregate import Sum as _Sum

    agg = (
        map_partitions(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            trigrams,
        )
        .groupby(["r1", "r2", "r3"])
        .aggregate(_Sum("n_trigrams", alias_name="n_trigrams"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_trigrams"),
            "n_trigrams",
            pc.cast(t["n_trigrams"], pa.int64()),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def tool_latency_profile(transcripts_path: str) -> Dataset:
    """Per-tool execution-latency profile: for every assistant turn
    immediately followed (turn_idx + 1, same conversation) by a tool turn —
    the assistant issued the call, the tool turn is its result — the gap
    between the two timestamps, keyed by the TOOL turn's tool name: which
    tools stall the agent. Emits (tool, n_pairs, sum_gap_us, max_gap_us);
    all-integer microseconds (response_latency's contract), the mean is a
    client-side division.

    Scale shape: light rows only — (conv_id, turn_idx, role, tool, ts) with
    text never read; conv-hash co-location, one lexsort + shift adjacency
    mask, per-partition per-tool bincount/maximum.at partials, final
    |tools|-row Sum/Max combine."""
    from ray.data.aggregate import Max as _Max
    from ray.data.aggregate import Sum as _Sum

    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "turn_idx", "role", "tool", "ts"]
    )

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "is_tool": pc.cast(pc.equal(t["role"], "tool"), pa.int8()),
                "is_asst": pc.cast(pc.equal(t["role"], "assistant"), pa.int8()),
                "tool": t["tool"],
                "ts": t["ts"],
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))

    out_schema = pa.schema(
        [
            ("tool", pa.string()),
            ("n_pairs", pa.int64()),
            ("sum_gap_us", pa.int64()),
            ("max_gap_us", pa.int64()),
        ]
    )

    def gaps(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        it = t["is_tool"].to_numpy(zero_copy_only=False)
        ia = t["is_asst"].to_numpy(zero_copy_only=False)
        tool = t["tool"].to_numpy(zero_copy_only=False)
        ts = (
            t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        )
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx, it, ia, tool, ts = (
            codes[order], idx[order], it[order], ia[order], tool[order], ts[order]
        )
        adj = (
            (codes[1:] == codes[:-1])
            & (idx[1:] == idx[:-1] + 1)
            & (ia[:-1] == 1)
            & (it[1:] == 1)
        )
        gap = ts[1:][adj] - ts[:-1][adj]
        if (gap < 0).any():
            raise ValueError("tool_latency_profile: negative gap — ts not monotone")
        tools, tc = np.unique(tool[1:][adj], return_inverse=True)
        if len(tools) == 0:
            return out_schema.empty_table()
        n = np.bincount(tc).astype(np.int64)
        s = np.bincount(tc, weights=gap).astype(np.int64)
        mx = np.zeros(len(tools), np.int64)
        np.maximum.at(mx, tc, gap)
        return pa.table(
            {
                "tool": pa.array(tools.tolist(), pa.string()),
                "n_pairs": pa.array(n),
                "sum_gap_us": pa.array(s),
                "max_gap_us": pa.array(mx),
            }
        )

    agg = (
        map_partitions(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            gaps,
        )
        .groupby("tool")
        .aggregate(
            _Sum("n_pairs", alias_name="n_pairs"),
            _Sum("sum_gap_us", alias_name="sum_gap_us"),
            _Max("max_gap_us", alias_name="max_gap_us"),
        )
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "tool": t["tool"],
                "n_pairs": pc.cast(t["n_pairs"], pa.int64()),
                "sum_gap_us": pc.cast(t["sum_gap_us"], pa.int64()),
                "max_gap_us": pc.cast(t["max_gap_us"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def transcript_sessionize(transcripts_path: str, gap_us: int = 1_800_000_000) -> Dataset:
    """Within-conversation sessionization: split each conversation at
    timestamp gaps > ``gap_us`` (default 30 min) and emit the histogram of
    session lengths — (session_turns, n_sessions). The long-running-agent
    analytics shape: one conv_id can span days of intermittent use, and
    training-data packing wants natural session boundaries, not raw convs.

    Scale shape: (conv_id, turn_idx, ts) light rows, conv-hash co-location;
    sessions never straddle a conversation so the whole split is
    partition-local — one lexsort, one gap compare, one cumsum for session
    ids, np.unique for per-session turn counts; only the turns-bounded
    (session_turns, n) histogram partials cross the final combine."""
    from ray.data.aggregate import Sum as _Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "ts"])

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "ts": t["ts"],
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))


    def sessions(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        ts = (
            t["ts"].to_numpy(zero_copy_only=False).astype("datetime64[us]").astype(np.int64)
        )
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, ts = codes[order], ts[order]
        new_sess = np.ones(len(codes), bool)
        if len(codes) > 1:
            new_sess[1:] = (codes[1:] != codes[:-1]) | (ts[1:] - ts[:-1] > gap_us)
        sess_id = np.cumsum(new_sess)
        _, turns = np.unique(sess_id, return_counts=True)
        lens, n = np.unique(turns, return_counts=True)
        return pa.table(
            {
                "session_turns": pa.array(lens.astype(np.int64)),
                "n_sessions": pa.array(n.astype(np.int64)),
            }
        )

    agg = (
        map_partitions(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            sessions,
        )
        .groupby("session_turns")
        .aggregate(_Sum("n_sessions", alias_name="n_sessions"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_sessions"),
            "n_sessions",
            pc.cast(t["n_sessions"], pa.int64()),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def turn_integrity_audit(transcripts_path: str) -> "pa.Table":
    """One-row ingest-integrity card for the transcripts table: total
    conversations, conversations with duplicated turn_idx values, with
    gapped (non-contiguous) indices, and with a nonzero first index — the
    fail-fast audit a pipeline runs before trusting turn-adjacency
    operators (every adjacency kernel here assumes idx arithmetic).
    All-integer output.

    Scale shape: (conv_id, turn_idx) light rows, conv-hash co-location;
    per conversation the checks are vectorized segment folds (count,
    distinct count, min, max) and only four counters per partition reach
    the driver."""
    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx"])

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {"conv_id": t["conv_id"], "turn_idx": pc.cast(t["turn_idx"], pa.int64())}
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))

    out_schema = pa.schema(
        [
            ("n_convs", pa.int64()),
            ("n_dup_idx", pa.int64()),
            ("n_gapped", pa.int64()),
            ("n_nonzero_start", pa.int64()),
        ]
    )

    def audit(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx = codes[order], idx[order]
        n_convs = codes[-1] + 1 if len(codes) else 0
        n = np.bincount(codes).astype(np.int64)
        starts = np.zeros(n_convs, np.int64)
        starts[1:] = np.cumsum(n)[:-1]
        ends = np.cumsum(n) - 1
        mn, mx = idx[starts], idx[ends]
        # distinct idx per conv: adjacent-equal collapse within segments
        same = np.zeros(len(idx), bool)
        if len(idx) > 1:
            same[1:] = (codes[1:] == codes[:-1]) & (idx[1:] == idx[:-1])
        nd = np.bincount(codes, weights=~same).astype(np.int64)
        dup = nd < n
        gap = (mx - mn + 1) != nd
        return pa.table(
            {
                "n_convs": pa.array([int(n_convs)], pa.int64()),
                "n_dup_idx": pa.array([int(dup.sum())], pa.int64()),
                "n_gapped": pa.array([int(gap.sum())], pa.int64()),
                "n_nonzero_start": pa.array([int((mn != 0).sum())], pa.int64()),
            }
        )

    parts = map_partitions(
        ds.map_batches(
            light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ),
        "__part",
        audit,
    )
    tot = parts.to_pandas().sum()
    return pa.table(
        {c: pa.array([int(tot[c])], pa.int64()) for c in out_schema.names}
    )


def cohort_retention(sf_dir: str) -> Dataset:
    """Weekly cohort retention over events: users grouped by first-seen
    epoch-week (cohort), counted as retained in every later week they were
    active — (cohort_week, offset_weeks, n_users). The product-analytics
    wide op; weekly buckets keep the output calendar^2-bounded.

    Scale shape: per-block distinct (user, week) partials collapse the
    event stream before anything moves; ONE user-hash exchange co-locates
    each user's week set; cohort = segment min after one lexsort and the
    (cohort, offset) counts are a vectorized unique — only calendar^2 rows
    reach the final combine."""
    from ray.data.aggregate import Sum as _Sum

    WEEK_US = 7 * 86_400_000_000
    ds = _events(sf_dir, ["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        week = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // WEEK_US
        g = (
            pa.table({"user_id": t["user_id"], "week": pa.array(week.astype(np.int64))})
            .group_by(["user_id", "week"], use_threads=False)
            .aggregate([])
        )
        return g


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["user_id", "week"])
            .group_by(["user_id", "week"], use_threads=False)
            .aggregate([])
        )
        uid = g["user_id"].to_numpy(zero_copy_only=False)
        week = g["week"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((week, uid))
        uid, week = uid[order], week[order]
        first = np.ones(len(uid), bool)
        if len(uid) > 1:
            first[1:] = uid[1:] != uid[:-1]
        cohort = week[first][np.cumsum(first) - 1]  # broadcast segment min
        key = np.stack([cohort, week - cohort], axis=1)
        uk, cnt = np.unique(key, axis=0, return_counts=True)
        return pa.table(
            {
                "cohort_week": pa.array(uk[:, 0].astype(np.int64)),
                "offset_weeks": pa.array(uk[:, 1].astype(np.int64)),
                "n_users": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        map_partitions(
            with_parts(
                ds.map_batches(
                    partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
                ),
                ["user_id"],
            ),
            "__part",
            fold,
        )
        .groupby(["cohort_week", "offset_weeks"])
        .aggregate(_Sum("n_users", alias_name="n_users"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_users"), "n_users", pc.cast(t["n_users"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def echo_rate_histogram(transcripts_path: str) -> Dataset:
    """Assistant echo-rate audit: for every adjacent user -> assistant turn
    pair, the Jaccard overlap of their distinct token sets ([a-z0-9]+ on
    the lowered text — the engine's shared tokenizer), folded into the
    bounded histogram (echo_bucket, n_pairs) with bucket =
    10 * |intersection| // |union| (integer arithmetic, 0..10, so the
    boundary is exact on both engines; pairs where both sides tokenize to
    nothing are excluded). High buckets flag parroting assistants — a
    standard SFT-curation reject signal.

    Scale shape: sft_pairs' contract — text crosses the conv-hash exchange
    ONCE to meet its reply, then only 11-row histogram partials move; the
    per-pair set work is bounded by turn length and embarrassingly parallel
    within partitions."""
    from ray.data.aggregate import Sum as _Sum

    import re

    tok_re = re.compile(r"[a-z0-9]+")
    ds = rd.read_parquet(
        transcripts_path, columns=["conv_id", "turn_idx", "role", "text"]
    )

    def light(t: pa.Table) -> pa.Table:
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "is_user": pc.cast(pc.equal(t["role"], "user"), pa.int8()),
                "is_asst": pc.cast(pc.equal(t["role"], "assistant"), pa.int8()),
                "text": pc.utf8_lower(t["text"]),
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))


    def buckets(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        iu = t["is_user"].to_numpy(zero_copy_only=False)
        ia = t["is_asst"].to_numpy(zero_copy_only=False)
        txt = t["text"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        order = np.lexsort((idx, codes))
        codes, idx, iu, ia, txt = (
            codes[order], idx[order], iu[order], ia[order], txt[order]
        )
        adj = (
            (codes[1:] == codes[:-1])
            & (idx[1:] == idx[:-1] + 1)
            & (iu[:-1] == 1)
            & (ia[1:] == 1)
        )
        left = np.flatnonzero(adj)
        counts = np.zeros(11, np.int64)
        for i in left:
            ta = set(tok_re.findall(txt[i]))
            tb = set(tok_re.findall(txt[i + 1]))
            nu = len(ta | tb)
            if nu == 0:
                continue
            counts[10 * len(ta & tb) // nu] += 1
        nz = np.flatnonzero(counts)
        return pa.table(
            {
                "echo_bucket": pa.array(nz.astype(np.int64)),
                "n_pairs": pa.array(counts[nz]),
            }
        )

    agg = (
        map_partitions(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            buckets,
        )
        .groupby("echo_bucket")
        .aggregate(_Sum("n_pairs", alias_name="n_pairs"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_pairs"), "n_pairs", pc.cast(t["n_pairs"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def event_type_bigrams(sf_dir: str) -> Dataset:
    """Sequential pattern mining over the event stream: counts of adjacent
    event-type bigrams per user under the deterministic (ts, event_id)
    order — which action follows which. Emits (t1, t2, n_bigrams),
    |types|^2-bounded.

    Scale shape: (user_id, ts, event_id, event_type) light rows, ONE
    user-hash exchange; per partition one lexsort + shift adjacency and a
    packed-code np.unique; the event_id tie-break makes same-timestamp
    ordering identical on both engines."""
    from ray.data.aggregate import Sum as _Sum

    ds = with_parts(_events(sf_dir, ["user_id", "ts", "event_id", "event_type"]), ["user_id"])

    out_schema = pa.schema(
        [("t1", pa.string()), ("t2", pa.string()), ("n_bigrams", pa.int64())]
    )

    def bigrams(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        eid = t["event_id"].to_numpy(zero_copy_only=False)
        ty = t["event_type"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        uid, ty = uid[order], ty[order]
        if len(uid) < 2:
            return out_schema.empty_table()
        adj = uid[1:] == uid[:-1]
        types, tc = np.unique(ty, return_inverse=True)
        k = len(types)
        key = tc[:-1][adj] * k + tc[1:][adj]
        uk, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "t1": pa.array(types[uk // k].tolist(), pa.string()),
                "t2": pa.array(types[uk % k].tolist(), pa.string()),
                "n_bigrams": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        map_partitions(ds, "__part", bigrams)
        .groupby(["t1", "t2"])
        .aggregate(_Sum("n_bigrams", alias_name="n_bigrams"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_bigrams"),
            "n_bigrams",
            pc.cast(t["n_bigrams"], pa.int64()),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def conversion_within_window(
    sf_dir: str, window_us: int = 7 * 86_400_000_000
) -> "pa.Table":
    """Windowed funnel conversion: of users whose FIRST signup event exists,
    how many made a purchase within ``window_us`` (default 7 days) AFTER
    that signup. Emits one row (n_signup_users, n_converted) — the rate is
    a client-side division (all-integer oracle compare).

    Scale shape: the scan keeps only signup/purchase light rows; ONE
    user-hash exchange co-locates each user's events; per partition the
    first-signup is a segment min and the conversion test one
    searchsorted-free vectorized mask fold; two counters per partition
    reach the driver."""
    ds = _events(sf_dir, ["user_id", "ts", "event_type"])

    def light(t: pa.Table) -> pa.Table:
        keep = pc.is_in(
            t["event_type"], value_set=pa.array(["signup", "purchase"])
        )
        f = t.filter(keep)
        return pa.table(
            {
                "user_id": f["user_id"],
                "ts": pc.cast(f["ts"].cast(pa.int64()), pa.int64()),
                "is_signup": pc.cast(pc.equal(f["event_type"], "signup"), pa.int8()),
            }
        )

    out_schema = pa.schema(
        [("n_signup_users", pa.int64()), ("n_converted", pa.int64())]
    )

    def fold(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_numpy(zero_copy_only=False)
        ts = t["ts"].to_numpy(zero_copy_only=False)
        sg = t["is_signup"].to_numpy(zero_copy_only=False) == 1
        users, codes = np.unique(uid, return_inverse=True)
        big = np.iinfo(np.int64).max
        first_signup = np.full(len(users), big, np.int64)
        np.minimum.at(first_signup, codes[sg], ts[sg])
        has_signup = first_signup < big
        conv = np.zeros(len(users), bool)
        pu = ~sg
        lo = first_signup[codes[pu]]
        ok = (ts[pu] > lo) & (ts[pu] <= lo + window_us)
        conv_users = np.unique(codes[pu][ok])
        conv[conv_users] = True
        conv &= has_signup
        return pa.table(
            {
                "n_signup_users": pa.array([int(has_signup.sum())], pa.int64()),
                "n_converted": pa.array([int(conv.sum())], pa.int64()),
            }
        )

    parts = map_partitions(
        with_parts(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            ["user_id"],
        ),
        "__part",
        fold,
    )
    tot = parts.to_pandas().sum()
    return pa.table(
        {c: pa.array([int(tot[c])], pa.int64()) for c in out_schema.names}
    )


def turn_volume_weekly(transcripts_path: str) -> Dataset:
    """Temporal corpus drift: per (epoch-week, role) turn count and total
    text characters — the volume curve an ingest monitor alarms on. All
    integers; per-block Arrow group_by partials, one calendar x |roles|
    bounded combine, no conversation co-location needed."""
    from ray.data.aggregate import Sum as _Sum

    WEEK_US = 7 * 86_400_000_000
    ds = rd.read_parquet(transcripts_path, columns=["ts", "role", "text"])

    def partial(t: pa.Table) -> pa.Table:
        week = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False) // WEEK_US
        g = (
            pa.table(
                {
                    "week": pa.array(week.astype(np.int64)),
                    "role": t["role"],
                    "total_chars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
                }
            )
            .group_by(["week", "role"], use_threads=False)
            .aggregate([("total_chars", "sum"), ([], "count_all")])
        )
        return g.rename_columns(["week", "role", "total_chars", "n_turns"])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None,
                       zero_copy_batch=True)
        .groupby(["week", "role"])
        .aggregate(
            _Sum("n_turns", alias_name="n_turns"),
            _Sum("total_chars", alias_name="total_chars"),
        )
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "week": pc.cast(t["week"], pa.int64()),
                "role": t["role"],
                "n_turns": pc.cast(t["n_turns"], pa.int64()),
                "total_chars": pc.cast(t["total_chars"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


def top_users_profile(sf_dir: str, k: int = 20) -> Dataset:
    """Whale report: the top ``k`` users by EXACT total event value
    (integer cents — events money is cents-exact, the q5/q6 contract),
    each with their event count and dominant event type (count DESC, type
    ASC tie-break). Emits (user_id, n_events, total_cents, top_type)
    ranked (total_cents DESC, user_id).

    Scale shape: per-block (user, type) partials; ONE user-hash exchange;
    per partition the dominant type is one lexsort pick and the top-k is a
    per-partition partial before the k-row driver merge."""
    ds = _events(sf_dir, ["user_id", "event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.rint(
            t["value"].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        g = (
            pa.table(
                {
                    "user_id": t["user_id"],
                    "event_type": t["event_type"],
                    "n": pa.array(np.ones(t.num_rows, np.int64)),
                    "cents": pa.array(cents),
                }
            )
            .group_by(["user_id", "event_type"], use_threads=False)
            .aggregate([("n", "sum"), ("cents", "sum")])
        )
        return g.rename_columns(["user_id", "event_type", "n", "cents"])


    def fold(t: pa.Table) -> pa.Table:
        g = (
            t.select(["user_id", "event_type", "n", "cents"])
            .group_by(["user_id", "event_type"], use_threads=False)
            .aggregate([("n", "sum"), ("cents", "sum")])
        )
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ty = g["event_type"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        cents = g["cents_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((ty, -n, uid))  # per user: count DESC, type ASC
        uid_o, ty_o = uid[order], ty[order]
        first = np.ones(len(uid_o), bool)
        if len(uid_o) > 1:
            first[1:] = uid_o[1:] != uid_o[:-1]
        users = uid_o[first]
        top_type = ty_o[first]
        # totals per user (bincount over codes aligned with `users` order)
        _, codes = np.unique(uid, return_inverse=True)
        n_events = np.bincount(codes, weights=n).astype(np.int64)
        total_cents = np.bincount(codes, weights=cents).astype(np.int64)
        # np.unique sorts ascending = same order as `users` (lexsort by uid)
        out = pa.table(
            {
                "user_id": pa.array(users),
                "n_events": pa.array(n_events),
                "total_cents": pa.array(total_cents),
                "top_type": pa.array(top_type.tolist(), pa.string()),
            }
        )
        if out.num_rows > k:
            idx = pc.select_k_unstable(
                out, k,
                sort_keys=[("total_cents", "descending"), ("user_id", "ascending")],
            )
            out = out.take(idx)
        return out

    cand = map_partitions(
        with_parts(
            ds.map_batches(
                partial, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            ["user_id"],
        ),
        "__part",
        fold,
    )
    return cand.sort(["total_cents", "user_id"], descending=[True, False]).limit(k)


def first_tool_distribution(transcripts_path: str) -> Dataset:
    """Conversation-opener analysis: which tool a conversation invokes
    FIRST (its earliest role='tool' turn), counted across the corpus;
    conversations that never invoke a tool count under '<none>'. Emits
    (first_tool, n_convs) — the agent-behavior prior a routing layer reads.

    Scale shape: tool turns reduce to (conv, turn_idx, tool) light rows
    and the no-tool spine to (conv) rows; ONE conv-hash exchange; per
    partition the first tool is a lexsort segment head; |tools|+1 partials
    combine."""
    from ray.data.aggregate import Sum as _Sum

    ds = rd.read_parquet(transcripts_path, columns=["conv_id", "turn_idx", "role", "tool"])

    def light(t: pa.Table) -> pa.Table:
        is_tool = pc.equal(t["role"], "tool")
        out = pa.table(
            {
                "conv_id": t["conv_id"],
                "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                "is_tool": pc.cast(is_tool, pa.int8()),
                "tool": t["tool"],
            }
        )
        return out.append_column("__part", part_ids(out, ["conv_id"]))


    def fold(t: pa.Table) -> pa.Table:
        conv = t["conv_id"].to_numpy(zero_copy_only=False)
        idx = t["turn_idx"].to_numpy(zero_copy_only=False)
        it = t["is_tool"].to_numpy(zero_copy_only=False) == 1
        tool = t["tool"].to_numpy(zero_copy_only=False)
        _, codes = np.unique(conv, return_inverse=True)
        n_convs = codes.max() + 1 if len(codes) else 0
        first_tool = np.full(n_convs, "<none>", object)
        big = np.iinfo(np.int64).max
        best = np.full(n_convs, big, np.int64)
        # earliest tool turn per conv: lexsort then first tool row per conv
        order = np.lexsort((idx, codes))
        c_o, i_o, it_o, t_o = codes[order], idx[order], it[order], tool[order]
        tl = np.flatnonzero(it_o)
        if len(tl):
            seen_first = np.ones(len(tl), bool)
            seen_first[1:] = c_o[tl[1:]] != c_o[tl[:-1]]
            heads = tl[seen_first]
            first_tool[c_o[heads]] = t_o[heads]
            best[c_o[heads]] = i_o[heads]
        vals, cnt = np.unique(first_tool, return_counts=True)
        return pa.table(
            {
                "first_tool": pa.array(vals.tolist(), pa.string()),
                "n_convs": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        map_partitions(
            ds.map_batches(
                light, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
            ),
            "__part",
            fold,
        )
        .groupby("first_tool")
        .aggregate(_Sum("n_convs", alias_name="n_convs"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("n_convs"), "n_convs", pc.cast(t["n_convs"], pa.int64())
        ),
        batch_format="pyarrow",
        batch_size=None,
    )
