"""Q-table, action selection, update rule, and schedule tests."""

import dataclasses
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import (
    DictQTable,
    ToyMdp,
    action_from_ordinal,
    greedy_policy,
    q_learning_on_mdp,
    qtable_max_value,
    qtable_row,
    value_iteration,
)
from vfcsim.agent import (
    NUM_ACTIONS,
    NUM_BUNDLES,
    HyperParams,
    QTable,
    Tier,
    epsilon_at,
    select_action,
    update_q_value,
)
from vfcsim.errors import ValidationError

PARAMS = HyperParams()


def test_action_grid():
    assert (NUM_BUNDLES, NUM_ACTIONS) == (3, 9)
    assert action_from_ordinal(0) == (Tier.LOCAL, 0)
    assert action_from_ordinal(5) == (Tier.FOG, 2)
    assert action_from_ordinal(8) == (Tier.CLOUD, 2)
    for a in range(NUM_ACTIONS):
        assert action_from_ordinal(a) == divmod(a, NUM_BUNDLES)
    with pytest.raises(ValidationError):
        action_from_ordinal(NUM_ACTIONS)


def test_fresh_table_reads_zero():
    q = QTable(100, 9)
    assert len(q) == 0
    assert q.get(42, 3) == 0.0
    assert qtable_max_value(q, 42) == 0.0
    q.set(42, 3, 1.5)
    q.set(42, 4, -0.5)
    assert len(q) == 2
    assert q.get(42, 3) == 1.5
    assert qtable_row(q, 42)[3] == 1.5
    assert qtable_row(q, 42)[0] == 0.0


def test_table_rejects_bad_coordinates():
    q = QTable(10, 9)
    with pytest.raises(ValidationError):
        q.set(10, 0, 1.0)
    with pytest.raises(ValidationError):
        q.set(0, 9, 1.0)
    with pytest.raises(ValidationError):
        q.set(0, 0, float("nan"))


def test_greedy_pick_is_argmax():
    q = QTable(10, 9)
    q.set(2, 7, 0.5)
    q.set(2, 3, 0.4)
    rng = random.Random(0)
    action = select_action(q, 2, 0.0, rng)
    assert type(action) is int and action == 7


def test_greedy_tie_breaks_to_lowest_ordinal():
    q = QTable(10, 9)
    q.set(1, 4, 0.5)
    q.set(1, 6, 0.5)
    assert q.argmax_action(1) == 4
    # an untouched row ties at zero everywhere
    assert select_action(q, 0, 0.0, random.Random(0)) == 0


def test_greedy_draws_nothing_from_rng():
    q = QTable(10, 9)

    class Boom(random.Random):
        def random(self):
            raise AssertionError("greedy selection must not consume randomness")

    assert select_action(q, 0, 0.0, Boom()) == 0
    assert select_action(q, 0, 0.0, None) == 0


def test_exploring_needs_a_generator():
    q = QTable(10, 9)
    with pytest.raises(ValidationError, match="random generator"):
        select_action(q, 0, 0.5, None)


def test_uniform_exploration_chi_square():
    q = QTable(4, 9)
    q.set(0, 2, 5.0)  # a dominant entry must not bias exploration
    rng = random.Random(2024)
    counts = [0] * 9
    n = 10_000
    for _ in range(n):
        counts[select_action(q, 0, 1.0, rng)] += 1
    expected = n / 9.0
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < stats.chi2.ppf(0.99, df=8)


def test_update_worked_example():
    # zero table: new value = alpha * reward
    q = QTable(5, 9)
    new = update_q_value(q, 0, 1, 2, 0.7, PARAMS)
    assert new == pytest.approx(0.07, abs=1e-12)
    assert q.get(0, 1) == new


def test_update_uses_next_state_max():
    q = QTable(5, 9)
    q.set(2, 8, 1.0)
    new = update_q_value(q, 0, 1, 2, 0.0, PARAMS)
    assert new == pytest.approx(0.1 * (0.9 * 1.0), abs=1e-12)


def test_update_alpha_zero_is_identity():
    q = QTable(5, 9)
    q.set(0, 1, 0.25)
    new = update_q_value(q, 0, 1, 2, 0.7, dataclasses.replace(PARAMS, alpha=0.0))
    assert new == 0.25
    assert q.get(0, 1) == 0.25


def test_update_fixed_point():
    # entries already satisfying the Bellman identity do not move
    q = QTable(5, 9)
    q.set(1, 0, 0.9)
    q.set(0, 3, 0.5 + 0.9 * 0.9)
    new = update_q_value(q, 0, 3, 1, 0.5, PARAMS)
    assert new == pytest.approx(0.5 + 0.9 * 0.9, abs=1e-12)


def test_update_rejects_nan_reward():
    q = QTable(5, 9)
    with pytest.raises(ValidationError):
        update_q_value(q, 0, 0, 1, float("nan"), PARAMS)


def test_q_values_bounded_by_reward_range():
    # with rewards in [-0.3, 0.7] every entry stays inside [r_min, r_max] / (1 - gamma)
    q = QTable(6, 9)
    rng = random.Random(5)
    lo = -0.3 / (1.0 - PARAMS.gamma)
    hi = 0.7 / (1.0 - PARAMS.gamma)
    for _ in range(20_000):
        s = rng.randrange(6)
        a = rng.randrange(9)
        nxt = rng.randrange(6)
        r = -0.3 + rng.random()
        v = update_q_value(q, s, a, nxt, r, PARAMS)
        assert lo - 1e-9 <= v <= hi + 1e-9


def test_epsilon_schedule_endpoints():
    assert epsilon_at(0, PARAMS) == PARAMS.epsilon_start == 0.1
    assert epsilon_at(99, PARAMS) == pytest.approx(0.01, abs=1e-12)


def test_epsilon_schedule_midpoint():
    params = HyperParams(episodes=3)
    assert epsilon_at(1, params) == pytest.approx(0.055, abs=1e-12)


def test_epsilon_single_episode():
    params = HyperParams(episodes=1)
    assert epsilon_at(0, params) == params.epsilon_start


def test_epsilon_monotone_nonincreasing():
    values = [epsilon_at(e, PARAMS) for e in range(PARAMS.episodes)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_epsilon_rejects_out_of_range_episode():
    with pytest.raises(ValidationError):
        epsilon_at(100, PARAMS)
    with pytest.raises(ValidationError):
        epsilon_at(-1, PARAMS)


def test_greedy_policy_matches_dense_argmax():
    rng = random.Random(31)
    q = QTable(100, 9)
    dense = np.zeros((100, 9))
    for _ in range(600):
        s = rng.randrange(100)
        a = rng.randrange(9)
        v = rng.uniform(-1.0, 1.0)
        q.set(s, a, v)
        dense[s, a] = v
    policy = greedy_policy(q)
    assert policy  # the fill above touches plenty of states
    for s, action in policy.items():
        # np.argmax returns the first maximum, the same tie-break rule
        assert action == int(np.argmax(dense[s]))


def test_argmax_invariant_under_row_shift():
    q = QTable(4, 9)
    shifted = QTable(4, 9)
    rng = random.Random(17)
    for a in range(9):
        v = rng.uniform(-1.0, 1.0)
        q.set(0, a, v)
        shifted.set(0, a, v + 5.0)
    assert q.argmax_action(0) == shifted.argmax_action(0)


def test_hyperparams_validation():
    with pytest.raises(ValidationError, match="alpha"):
        HyperParams(alpha=1.5).validate()
    with pytest.raises(ValidationError, match="gamma"):
        HyperParams(gamma=1.0).validate()
    with pytest.raises(ValidationError, match="epsilon_end"):
        HyperParams(epsilon_start=0.01, epsilon_end=0.1).validate()
    with pytest.raises(ValidationError, match="episodes"):
        HyperParams(episodes=0).validate()
    HyperParams().validate()


def test_save_load_round_trip(tmp_path):
    q = QTable(50, 9)
    rng = random.Random(3)
    for _ in range(40):
        q.set(rng.randrange(50), rng.randrange(9), rng.uniform(-1, 1))
    path = tmp_path / "table.tsv"
    q.save(path)
    back = QTable.load(path)
    assert back.num_states == 50
    assert back.num_actions == 9
    assert back.items() == q.items()


# values that make ties, signed zeros and all-negative rows likely
Q_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, -0.5, 2.5]),
    st.floats(-1e6, 1e6, allow_nan=False),
)
WRITES = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 8), Q_VALUES), max_size=60)


@settings(max_examples=300, deadline=None)
@example(writes=[
    (0, 3, 0.0), (0, 5, -0.0),                      # explicit zeros of both signs
    (1, 0, -0.0), (1, 4, 0.0),                      # -0.0 first, tying with 0.0
    (2, 2, 1.5), (2, 7, 1.5), (2, 2, 1.5),          # tie, one entry rewritten
    *[(3, a, -1.0 - (a % 3)) for a in range(9)],    # all-negative row, tie at -1.0
    (4, 8, -2.0),                                   # one negative write: argmax an unwritten 0.0
])                                                  # state 5 never written
@given(writes=WRITES)
def test_row_table_matches_dict_reference(tmp_path_factory, writes):
    q = QTable(6, 9)
    ref = DictQTable(6, 9)
    for s, a, v in writes:
        q.set(s, a, v)
        ref.set(s, a, v)
        assert len(q) == len(ref)
    for s in range(6):
        # repr tells -0.0 from 0.0, as the saved file does
        assert [repr(q.get(s, a)) for a in range(9)] == [repr(ref.get(s, a)) for a in range(9)]
        assert q.argmax_action(s) == ref.argmax_action(s)
        assert repr(qtable_max_value(q, s)) == repr(ref.max_value(s))
    assert q.items() == sorted(ref.values.items())
    directory = tmp_path_factory.mktemp("rows")
    q.save(directory / "row.tsv")
    ref.save(directory / "ref.tsv")
    saved = (directory / "row.tsv").read_bytes()
    assert saved == (directory / "ref.tsv").read_bytes()
    QTable.load(directory / "row.tsv").save(directory / "again.tsv")
    assert (directory / "again.tsv").read_bytes() == saved


def test_load_rejects_an_unreadable_path(tmp_path):
    # a directory where the table should be once escaped as IsADirectoryError
    with pytest.raises(ValidationError, match=f"^cannot read q-table {re.escape(str(tmp_path))}: "):
        QTable.load(tmp_path)


def test_load_rejects_data_before_header(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t0\t1.0\n")
    with pytest.raises(ValidationError, match="header"):
        QTable.load(path)


def test_load_rejects_repeated_header(tmp_path):
    path = tmp_path / "bad.tsv"
    header = "# vfcsim qtable v1 num_states=10 num_actions=9\n"
    path.write_text(f"{header}5\t1\t0.5\n{header}6\t2\t0.25\n")
    with pytest.raises(ValidationError, match="repeated q-table header") as info:
        QTable.load(path)
    assert str(info.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("repeat", ["5\t1\t0.25", "05\t1\t0.25"])
def test_load_rejects_a_repeated_entry_naming_both_lines(tmp_path, repeat):
    path = tmp_path / "bad.tsv"
    path.write_text("# vfcsim qtable v1 num_states=10 num_actions=9\n"
                    f"5\t1\t0.5\n\n6\t2\t0.1\n{repeat}\n")
    with pytest.raises(ValidationError) as info:
        QTable.load(path)
    assert str(info.value) == f"{path}:5: state 5, action 1 already written on line 2"


@pytest.mark.parametrize("header", [
    "# vfcsim qtable v7 num_states=10 num_actions=9",
    "# vfcsim qtable v10 num_states=10 num_actions=9",
    "# whatever num_states=10 num_actions=9",
])
def test_load_rejects_a_header_of_another_format(tmp_path, header):
    path = tmp_path / "bad.tsv"
    path.write_text(f"{header}\n5\t1\t0.5\n")
    with pytest.raises(ValidationError, match="not a vfcsim qtable v1 header") as info:
        QTable.load(path)
    assert str(info.value).startswith(f"{path}:1: ")


def test_load_rejects_malformed_row(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# vfcsim qtable v1 num_states=5 num_actions=9\n0\t0\n")
    with pytest.raises(ValidationError, match="3 tab-separated"):
        QTable.load(path)


@pytest.mark.parametrize("line, message", [
    ("0\t1\t0.5\t2", "expected 3 tab-separated fields"),
    ("0\t1\tabc", "q value must be a number"),
    ("0\t1\t1.0.0", "q value must be a number"),
    ("x\t1\t0.5", "ordinals must be integers"),
    ("0\t1.5\t0.5", "ordinals must be integers"),
    ("0\t9\t0.5", "action ordinal 9 outside"),
    ("0\t-1\t0.5", "action ordinal -1 outside"),
    ("5\t0\t0.5", "state ordinal 5 outside"),
    ("0\t0\tnan", "must be finite"),
    ("0\t0\t-inf", "must be finite"),
])
def test_load_names_file_and_line_of_bad_field(tmp_path, line, message):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# vfcsim qtable v1 num_states=5 num_actions=9\n0\t0\t1.0\n{line}\n")
    with pytest.raises(ValidationError, match=message) as info:
        QTable.load(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_deterministic_training_runs_identically():
    results = []
    for _ in range(2):
        mdp = ToyMdp()
        q = q_learning_on_mdp(mdp, episodes=60)
        results.append(q.items())
    assert results[0] == results[1]


def test_toy_mdp_convergence_to_value_iteration():
    mdp = ToyMdp()
    qstar = value_iteration(mdp)
    q = q_learning_on_mdp(mdp)
    err = max(abs(q.get(s, a) - qstar[s][a]) for s in range(mdp.n) for a in range(2))
    assert err < 1e-6
