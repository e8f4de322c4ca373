"""Tabular Q-learning agent: action space, per-state Q-table rows, update rule.

Actions pair an execution tier (vehicle-local, fog, cloud) with a resource
bundle size scaling the allocation. The Q-table stores one row of action
values per visited state; unwritten entries read as the 0.0 initialization,
and argmax ties resolve to the lowest action ordinal so greedy behavior is
deterministic. A checkpoint is one qtable_node{k}.tsv per fog node.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

from .errors import ValidationError
from .state_space import NUM_STATES


class Tier(IntEnum):
    LOCAL = 0
    FOG = 1
    CLOUD = 2


class Bundle(IntEnum):
    SMALL = 0
    MEDIUM = 1
    LARGE = 2


@dataclass(frozen=True, slots=True)
class Action:
    tier: Tier
    bundle: Bundle
    ordinal: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ordinal", int(self.tier) * 3 + int(self.bundle))


ACTIONS: tuple[Action, ...] = tuple(
    Action(tier, bundle) for tier in Tier for bundle in Bundle
)
NUM_ACTIONS = len(ACTIONS)


@dataclass
class HyperParams:
    """Learning-rate, discount and exploration schedule settings.

    Every update uses the fixed learning rate alpha; a caller that wants a
    decaying rate sets alpha before each update.
    """

    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_start: float = 0.1
    epsilon_end: float = 0.01
    episodes: int = 100

    def validate(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValidationError(f"alpha={self.alpha!r} outside (0, 1]")
        if not (0.0 <= self.gamma < 1.0):
            raise ValidationError(f"gamma={self.gamma!r} outside [0, 1)")
        for name, eps in (("epsilon_start", self.epsilon_start), ("epsilon_end", self.epsilon_end)):
            if not (0.0 <= eps <= 1.0):
                raise ValidationError(f"{name}={eps!r} outside [0, 1]")
        if self.epsilon_end > self.epsilon_start:
            raise ValidationError(
                f"epsilon_end={self.epsilon_end!r} exceeds epsilon_start={self.epsilon_start!r}"
            )
        if self.episodes < 1:
            raise ValidationError(f"episodes={self.episodes!r} must be >= 1")


class QTable:
    """Action-value table over (state ordinal, action ordinal).

    Each visited state owns one row of num_actions floats in `rows`; a
    state without a row reads as all zeros. `masks` holds one bitmask per
    row whose bit a is set once entry (state, a) has been written, so the
    table's length and its saved entries are the written ones only.
    """

    __slots__ = ("num_states", "num_actions", "rows", "masks")

    def __init__(self, num_states: int, num_actions: int):
        if num_states < 1 or num_actions < 1:
            raise ValidationError(
                f"table dimensions must be positive, got {num_states!r} x {num_actions!r}"
            )
        self.num_states = num_states
        self.num_actions = num_actions
        self.rows: dict[int, list[float]] = {}
        self.masks: dict[int, int] = {}

    def get(self, state: int, action: int) -> float:
        if not (0 <= action < self.num_actions):
            raise ValidationError(f"action ordinal {action!r} outside [0, {self.num_actions})")
        row = self.rows.get(state)
        return 0.0 if row is None else row[action]

    def set(self, state: int, action: int, value: float) -> None:
        if not (0 <= state < self.num_states):
            raise ValidationError(f"state ordinal {state!r} outside [0, {self.num_states})")
        if not (0 <= action < self.num_actions):
            raise ValidationError(f"action ordinal {action!r} outside [0, {self.num_actions})")
        if not math.isfinite(value):
            raise ValidationError(f"q value must be finite, got {value!r}")
        row = self.rows.get(state)
        if row is None:
            self.rows[state] = row = [0.0] * self.num_actions
            self.masks[state] = 1 << action
        else:
            self.masks[state] |= 1 << action
        row[action] = value

    def argmax_action(self, state: int) -> int:
        """Lowest-ordinal action attaining the row maximum: max() keeps
        the first of equal values, and a row holds no NaN."""
        row = self.rows.get(state)
        return 0 if row is None else row.index(max(row))

    def items(self) -> list[tuple[tuple[int, int], float]]:
        """Written entries as ((state, action), value), in ascending order."""
        out = []
        for s in sorted(self.rows):
            row = self.rows[s]
            mask = self.masks[s]
            for a in range(self.num_actions):
                if mask >> a & 1:
                    out.append(((s, a), row[a]))
        return out

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.masks.values())

    def save(self, path: str | Path) -> None:
        """Write entries as tab-separated (state, action, value) records."""
        path = Path(path)
        lines = [f"# vfcsim qtable v1 num_states={self.num_states} num_actions={self.num_actions}\n"]
        for (s, a), v in self.items():
            lines.append(f"{s}\t{a}\t{v!r}\n")
        path.write_text("".join(lines))

    @classmethod
    def load(cls, path: str | Path) -> "QTable":
        path = Path(path)
        lines = path.read_text().splitlines()
        table: QTable | None = None
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            if line[0] == "#":
                if table is not None:
                    raise ValidationError(f"{path}:{lineno}: repeated q-table header")
                if line.split()[:4] != ["#", "vfcsim", "qtable", "v1"]:
                    raise ValidationError(f"{path}:{lineno}: not a vfcsim qtable v1 header")
                parts = dict(
                    token.split("=", 1) for token in line.lstrip("# ").split() if "=" in token
                )
                try:
                    table = cls(int(parts["num_states"]), int(parts["num_actions"]))
                except (KeyError, ValueError) as exc:
                    raise ValidationError(f"{path}:{lineno}: bad q-table header") from exc
                continue
            if table is None:
                raise ValidationError(f"{path}:{lineno}: q-table data precedes header")
            try:
                s, a, v = line.split("\t")
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: expected 3 tab-separated fields") from None
            try:
                state, action = int(s), int(a)
            except ValueError:
                raise ValidationError(
                    f"{path}:{lineno}: ordinals must be integers, got {s!r}, {a!r}"
                ) from None
            try:
                value = float(v)
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: q value must be a number, got {v!r}") from None
            written = table.masks.get(state, 0)
            try:
                table.set(state, action, value)
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if written >> action & 1:
                # every earlier line parsed, so the first is found by its ordinals
                first = next(n for n, earlier in enumerate(lines, start=1)
                             if earlier.strip()[:1] not in ("", "#")
                             and [*map(int, earlier.strip().split("\t")[:2])] == [state, action])
                raise ValidationError(f"{path}:{lineno}: state {state}, action {action} "
                                      f"already written on line {first}")
        if table is None:
            raise ValidationError(f"{path}: missing q-table header")
        return table


def save_tables(tables: dict[int, QTable], directory: str | Path) -> None:
    """Write one qtable_node{k}.tsv per table and remove any other node's
    table, so the directory holds exactly this grid's checkpoint."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = set()
    for node_id, table in sorted(tables.items()):
        name = f"qtable_node{node_id}.tsv"
        table.save(directory / name)
        names.add(name)
    for path in directory.glob("qtable_node*.tsv"):
        if path.name not in names:
            path.unlink()


def _check_table_shape(table: QTable, owner: str) -> None:
    if (table.num_states, table.num_actions) != (NUM_STATES, NUM_ACTIONS):
        raise ValidationError(
            f"{owner}: q-table is {table.num_states} x {table.num_actions}, "
            f"expected num_states={NUM_STATES} num_actions={NUM_ACTIONS}"
        )


def check_tables(tables: dict[int, QTable], num_nodes: int) -> None:
    """Tables for exactly the fog nodes 0..num_nodes-1, each of the agent's shape."""
    for node_id in tables:
        if node_id not in range(num_nodes):
            raise ValidationError(f"node {node_id!r}: q-table given, but the grid has "
                                  f"fog nodes 0..{num_nodes - 1} only")
    for node_id in range(num_nodes):
        if node_id not in tables:
            raise ValidationError(f"node {node_id}: no q-table")
        _check_table_shape(tables[node_id], f"node {node_id}")


def load_tables(directory: str | Path, num_nodes: int) -> dict[int, QTable]:
    """The tables qtable_node0..num_nodes-1.tsv in `directory`; a directory
    that also holds a table of another node is not this grid's checkpoint."""
    directory = Path(directory)
    names = [f"qtable_node{node_id}.tsv" for node_id in range(num_nodes)]
    expected = set(names)
    for path in sorted(directory.glob("qtable_node*.tsv")):
        if path.name not in expected:
            raise ValidationError(
                f"{path}: not a table of this {num_nodes}-node grid, "
                f"whose tables are qtable_node0..{num_nodes - 1}.tsv"
            )
    tables: dict[int, QTable] = {}
    for node_id, name in enumerate(names):
        path = directory / name
        if not path.exists():
            raise ValidationError(f"checkpoint incomplete: missing {path}")
        table = QTable.load(path)
        _check_table_shape(table, str(path))
        tables[node_id] = table
    return tables


def select_action(q: QTable, state: int, epsilon: float, rng: random.Random) -> Action:
    """Epsilon-greedy action selection."""
    if not (0.0 <= epsilon <= 1.0):
        raise ValidationError(f"epsilon={epsilon!r} outside [0, 1]")
    if not (0 <= state < q.num_states):
        raise ValidationError(f"state ordinal {state!r} outside [0, {q.num_states})")
    if epsilon > 0.0 and rng.random() < epsilon:
        return ACTIONS[rng.randrange(q.num_actions)]
    return ACTIONS[q.argmax_action(state)]


def update_q_value(
    q: QTable,
    state: int,
    action: int,
    next_state: int,
    reward: float,
    params: HyperParams,
) -> float:
    """One Bellman backup; returns the updated entry.

    Q(s,a) += alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)), with alpha
    and gamma from params.
    """
    if not math.isfinite(reward):
        raise ValidationError(f"reward must be finite, got {reward!r}")
    if not (0 <= action < q.num_actions):
        raise ValidationError(f"action ordinal {action!r} outside [0, {q.num_actions})")
    rows = q.rows
    row = rows.get(state)
    old = 0.0 if row is None else row[action]
    next_row = rows.get(next_state)
    target = reward + params.gamma * (0.0 if next_row is None else max(next_row))
    new = old + params.alpha * (target - old)
    q.set(state, action, new)
    return new


def epsilon_at(episode: int, params: HyperParams) -> float:
    """Linear decay from epsilon_start (episode 0) to epsilon_end (last episode)."""
    if not (0 <= episode < params.episodes):
        raise ValidationError(f"episode {episode!r} outside [0, {params.episodes})")
    if params.episodes == 1:
        return params.epsilon_start
    frac = episode / (params.episodes - 1)
    return params.epsilon_start + (params.epsilon_end - params.epsilon_start) * frac
