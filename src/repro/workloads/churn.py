"""Churn workloads: mutation scripts for the dynamic subsystem.

A **churn script** is the one exchange format every dynamic component
speaks: a base instance plus batches of plain-dict mutation ops, where
each batch applies as one delta generation
(:func:`repro.setsystem.deltas.apply_delta`) and, in lockstep, as one
round of :meth:`repro.dynamic.DynamicCover.apply` updates.

Op format (JSON-serializable, the ``repro shard apply-delta`` input)::

    {"op": "insert", "elements": [3, 17, 40]}   # appends the next stable id
    {"op": "delete", "id": 12}                  # tombstones a live stable id

Two generators cover the ROADMAP's churn regimes:

* :func:`rolling_blog_watch` — the steady-state catalog: each batch
  retires the oldest blogs and publishes fresh ones drawn from the same
  community model as :func:`~repro.workloads.coverage.blog_watch_instance`;
* :func:`delete_storm` — the adversarial regime: batches delete the
  *largest* live sets first (exactly the sets greedy covers with), the
  worst case for incremental maintenance.

Both guarantee **feasibility at every prefix**: a delete is only
emitted when every element of the victim stays covered by at least one
other live set, so maintainers never face an uncoverable universe and
parity referees can solve after every batch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.utils.rng import as_generator
from repro.workloads.coverage import blog_watch_instance

__all__ = ["ChurnScript", "delete_storm", "rolling_blog_watch"]

#: Schema tag of a serialized churn script.
CHURN_SCHEMA = "repro.churn/v1"


@dataclass(frozen=True)
class ChurnScript:
    """A base family plus batched mutation ops (one batch = one delta).

    ``base`` rows own stable ids ``0..len(base)-1``; each insert op, in
    batch order, takes the next id — the exact id assignment of
    :class:`~repro.setsystem.deltas.DeltaShardWriter`.
    """

    n: int
    base: "list[list[int]]"
    batches: "list[list[dict]]" = field(default_factory=list)

    @property
    def updates(self) -> int:
        """Total mutation ops across all batches."""
        return sum(len(batch) for batch in self.batches)

    def live_rows(self, upto: "int | None" = None) -> "list[list[int]]":
        """Reference merge of the first ``upto`` batches (all by default).

        Live rows in stable-id order — exactly the merged view's row
        order, so ``SetSystem(script.n, script.live_rows(k))`` is the
        from-scratch referee after ``k`` generations.
        """
        rows = {i: row for i, row in enumerate(self.base)}
        next_id = len(self.base)
        batches = self.batches if upto is None else self.batches[:upto]
        for batch in batches:
            for op in batch:
                if op["op"] == "insert":
                    rows[next_id] = list(op["elements"])
                    next_id += 1
                else:
                    del rows[op["id"]]
        return [rows[key] for key in sorted(rows)]

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": CHURN_SCHEMA,
                "n": self.n,
                "base": [sorted(row) for row in self.base],
                "batches": self.batches,
            },
            indent=2,
        ) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ChurnScript":
        return cls.from_payload(json.loads(text))

    @classmethod
    def from_payload(cls, payload: object) -> "ChurnScript":
        """Build a script from an already-parsed JSON value (schema-checked)."""
        if not isinstance(payload, dict) or payload.get("schema") != CHURN_SCHEMA:
            raise ValueError(
                f"not a churn script (expected schema {CHURN_SCHEMA!r})"
            )
        try:
            return cls(
                n=int(payload["n"]),
                base=[list(row) for row in payload["base"]],
                batches=[list(batch) for batch in payload["batches"]],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"not a churn script (malformed field: {exc!r})"
            ) from exc

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "ChurnScript":
        return cls.from_json(Path(path).read_text())


class _LiveTracker:
    """Feasibility bookkeeping shared by the generators."""

    def __init__(self, n: int, base: "list[list[int]]"):
        self.n = n
        self.rows: "dict[int, frozenset[int]]" = {
            i: frozenset(row) for i, row in enumerate(base)
        }
        self.next_id = len(base)
        self.freq = [0] * n
        for row in self.rows.values():
            for element in row:
                self.freq[element] += 1

    def deletable(self, set_id: int) -> bool:
        row = self.rows[set_id]
        return all(self.freq[element] >= 2 for element in row)

    def delete(self, set_id: int) -> dict:
        for element in self.rows.pop(set_id):
            self.freq[element] -= 1
        return {"op": "delete", "id": set_id}

    def insert(self, elements) -> dict:
        row = frozenset(elements)
        self.rows[self.next_id] = row
        self.next_id += 1
        for element in row:
            self.freq[element] += 1
        return {"op": "insert", "elements": sorted(row)}


def _fresh_blog(rng, n: int, communities: int, specialty_coverage: float,
                tail_interest: float) -> "list[int]":
    """One new specialist blog from the blog-watch community model."""
    community = int(rng.integers(communities))
    bounds = [round(c * n / communities) for c in range(communities + 1)]
    topics = range(bounds[community], bounds[community + 1])
    row = {t for t in topics if rng.random() < specialty_coverage}
    row.update(t for t in range(n) if rng.random() < tail_interest)
    if not row:
        row = {int(rng.integers(max(1, n)))}
    return sorted(row)


def rolling_blog_watch(
    topics: int = 60,
    blogs: int = 120,
    generations: int = 12,
    batch: int = 6,
    communities: int = 8,
    seed=None,
) -> ChurnScript:
    """Steady-state catalog churn over a blog-watch instance.

    Each generation retires the ``batch`` oldest retirable blogs (a
    delete is skipped when it would strand a topic) and publishes
    ``batch`` fresh specialists from the same community model, so the
    live family size stays roughly constant while its membership rolls
    over — the "millions of users mutating the catalog" steady state.
    """
    rng = as_generator(seed)
    system = blog_watch_instance(
        topics, blogs, communities=communities, seed=rng
    )
    base = [sorted(row) for row in system.sets]
    tracker = _LiveTracker(topics, base)
    batches: "list[list[dict]]" = []
    retire_cursor = 0
    for _ in range(generations):
        ops: "list[dict]" = []
        retired = 0
        while retired < batch and retire_cursor < tracker.next_id:
            set_id = retire_cursor
            retire_cursor += 1
            if set_id in tracker.rows and tracker.deletable(set_id):
                ops.append(tracker.delete(set_id))
                retired += 1
        for _ in range(batch):
            ops.append(
                tracker.insert(
                    _fresh_blog(rng, topics, communities, 0.7, 0.02)
                )
            )
        batches.append(ops)
    return ChurnScript(n=topics, base=base, batches=batches)


def delete_storm(
    topics: int = 60,
    blogs: int = 120,
    generations: int = 8,
    batch: int = 8,
    refill: int = 2,
    communities: int = 8,
    seed=None,
) -> ChurnScript:
    """Adversarial churn: tear out the largest live sets first.

    Greedy (and the density-level maintainer) covers with the biggest
    sets, so deleting by descending live size maximizes chosen-set
    deletions — every batch forces orphan repair.  ``refill`` small
    specialists per batch keep feasibility from collapsing to
    singletons; deletes that would strand a topic are skipped.
    """
    rng = as_generator(seed)
    system = blog_watch_instance(
        topics, blogs, communities=communities, seed=rng
    )
    base = [sorted(row) for row in system.sets]
    tracker = _LiveTracker(topics, base)
    batches: "list[list[dict]]" = []
    for _ in range(generations):
        ops: "list[dict]" = []
        by_size = sorted(
            tracker.rows, key=lambda sid: (-len(tracker.rows[sid]), sid)
        )
        stormed = 0
        for set_id in by_size:
            if stormed >= batch:
                break
            if tracker.deletable(set_id):
                ops.append(tracker.delete(set_id))
                stormed += 1
        for _ in range(refill):
            ops.append(
                tracker.insert(
                    _fresh_blog(rng, topics, communities, 0.5, 0.05)
                )
            )
        batches.append(ops)
    return ChurnScript(n=topics, base=base, batches=batches)
