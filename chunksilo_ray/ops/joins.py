"""Join operators Ray Data lacks natively: as-of join and range join,
composed from one coarse user-hash exchange (``exchange.map_partitions``)
+ in-partition sorting (composition first, actor state only when semantics
demand it).

Partitioning assumption: both sides are co-partitioned by the equality key
(user_id) via the same exchange, so each partition holds every row needed
for its joins; within a partition, pandas
merge_asof / interval logic runs over ts-sorted frames (ray_guide.md as-of
join recipe)."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data as rd
from ray.data import Dataset

from ..exchange import map_partitions, with_parts


def _events(sf_dir: str, columns: list[str] | None = None) -> Dataset:
    return rd.read_parquet(f"{sf_dir}/events.parquet", columns=columns)


def asof_join_purchases_to_clicks(sf_dir: str) -> Dataset:
    """For every 'purchase' event, the most recent prior-or-equal 'click' by
    the same user (NULL when none): the canonical as-of join.

    Implemented as ONE groupby(user_id) over the tagged union of both sides
    — each group then splits left/right and runs pd.merge_asof. This is the
    composition path: one shuffle, no actor state."""
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type", "value"])

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        # one coarse user-hash partition: pandas merge_asof(by="user_id")
        # performs the per-user as-of for EVERY user in the partition in one
        # vectorized call (the round-1 per-user map_groups paid one Python
        # call per user)
        left = g[g["event_type"] == "purchase"].sort_values(["ts", "event_id"])
        right = g[g["event_type"] == "click"].sort_values(["ts", "event_id"])
        if left.empty:
            return pd.DataFrame(
                {
                    "purchase_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "click_id": pd.Series([], dtype="float64"),
                    "ms_since_click": pd.Series([], dtype="float64"),
                }
            )
        merged = pd.merge_asof(
            left[["event_id", "user_id", "ts"]],
            right[["event_id", "user_id", "ts"]].rename(columns={"event_id": "click_id"}),
            on="ts",
            by="user_id",
            direction="backward",
        )
        click_ts = merged.merge(
            right[["event_id", "ts"]].rename(
                columns={"event_id": "click_id", "ts": "click_ts"}
            ),
            on="click_id",
            how="left",
        )["click_ts"]
        merged["ms_since_click"] = (
            (merged["ts"] - click_ts).dt.total_seconds() * 1000.0
        ).round(3)
        return merged.rename(columns={"event_id": "purchase_id"})[
            ["purchase_id", "user_id", "click_id", "ms_since_click"]
        ]

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        per_partition,
        batch_format="pandas",
    )


def range_join_events_in_window(sf_dir: str, window_minutes: int = 5) -> Dataset:
    """Pairs of (purchase, click) by the same user with the click inside
    [purchase_ts - window, purchase_ts] — a bounded range join realized as
    per-group sorted interval scanning (no cartesian blowup: two pointers)."""
    gap = pd.Timedelta(minutes=window_minutes)
    ds = _events(sf_dir, ["event_id", "user_id", "ts", "event_type"])

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        # sorted-by-(user, ts) sides; per USER SEGMENT the window bounds come
        # from two vectorized searchsorted calls over that user's clicks
        # (two-pointer semantics, no per-purchase Python scanning and no
        # cartesian blowup)
        import numpy as np

        left = g[g["event_type"] == "purchase"].sort_values(["user_id", "ts", "event_id"])
        right = g[g["event_type"] == "click"].sort_values(["user_id", "ts", "event_id"])
        empty = pd.DataFrame(
            {
                "purchase_id": pd.Series([], dtype="int64"),
                "user_id": pd.Series([], dtype="int64"),
                "click_id": pd.Series([], dtype="int64"),
            }
        )
        if left.empty or right.empty:
            return empty
        gap_ns = int(gap.value)
        p_uid = left["user_id"].to_numpy()
        # normalize to ns regardless of the frame's datetime64 resolution
        # (pyarrow->pandas yields datetime64[us] under pandas 2.x)
        p_ts = left["ts"].astype("datetime64[ns]").astype("int64").to_numpy()
        p_id = left["event_id"].to_numpy()
        c_uid = right["user_id"].to_numpy()
        c_ts = right["ts"].astype("datetime64[ns]").astype("int64").to_numpy()
        c_id = right["event_id"].to_numpy()
        out_p, out_u, out_c = [], [], []
        # contiguous user segments on both sorted sides
        p_starts = np.concatenate(([0], np.flatnonzero(p_uid[1:] != p_uid[:-1]) + 1, [len(p_uid)]))
        c_seg_start = {int(u): s for s, u in zip(
            np.concatenate(([0], np.flatnonzero(c_uid[1:] != c_uid[:-1]) + 1)),
            c_uid[np.concatenate(([0], np.flatnonzero(c_uid[1:] != c_uid[:-1]) + 1))],
        )}
        c_seg_end = {}
        keys = sorted(c_seg_start)
        for i, u in enumerate(keys):
            c_seg_end[u] = c_seg_start[keys[i + 1]] if i + 1 < len(keys) else len(c_uid)
        for s, e in zip(p_starts[:-1], p_starts[1:]):
            u = int(p_uid[s])
            cs = c_seg_start.get(u)
            if cs is None:
                continue
            ce = c_seg_end[u]
            seg_ts = c_ts[cs:ce]
            lo = np.searchsorted(seg_ts, p_ts[s:e] - gap_ns, side="left")
            hi = np.searchsorted(seg_ts, p_ts[s:e], side="right")
            counts = hi - lo
            if not counts.any():
                continue
            out_p.append(np.repeat(p_id[s:e], counts))
            out_u.append(np.full(int(counts.sum()), u, dtype=np.int64))
            out_c.append(c_id[cs:ce][np.concatenate(
                [np.arange(l, h) for l, h in zip(lo, hi) if h > l]
            )])
        if not out_p:
            return empty
        return pd.DataFrame(
            {
                "purchase_id": np.concatenate(out_p).astype("int64"),
                "user_id": np.concatenate(out_u),
                "click_id": np.concatenate(out_c).astype("int64"),
            }
        )

    return map_partitions(
        with_parts(ds, ["user_id"]),
        "__part",
        per_partition,
        batch_format="pandas",
    )
