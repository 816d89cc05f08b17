import contextlib
import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexkit.dynamics import (
    Branch,
    DivergenceError,
    IterativeMap,
    divergence_rate,
    divergence_rate_two_trajectory,
    identity_map,
    iterate,
    logistic_map,
)

from oracles import materialised_divergence_rate


def brute_force_logistic_lambda(r, x0, n, burn_in):
    # independent oracle: average ln|r(1-2x)| over a hand-rolled orbit
    x = x0
    for _ in range(burn_in):
        x = r * x * (1 - x)
    total = 0.0
    for _ in range(n):
        total += math.log(abs(r * (1 - 2 * x)) or 1e-300)
        x = r * x * (1 - x)
    return total / n


def test_logistic_r4_from_half():
    traj = iterate(logistic_map(4.0), 0.5, 3)
    assert traj.states == (0.5, 1.0, 0.0, 0.0)


def test_logistic_fixed_point():
    traj = iterate(logistic_map(2.5), 0.6, 10)
    assert all(abs(x - 0.6) < 1e-12 for x in traj.states)


def test_iterate_zero_steps():
    traj = iterate(identity_map(), 0.3, 0)
    assert traj.states == (0.3,)
    assert traj.branch_log == ()


def test_iterate_rejects_nonfinite_start():
    with pytest.raises(ValueError):
        iterate(identity_map(), float("nan"), 5)


def test_divergence_error_reports_step():
    blowup = IterativeMap((Branch(lambda x: x * 1e200, lambda x: 1e200),))
    with pytest.raises(DivergenceError) as exc:
        iterate(blowup, 1.0, 10)
    assert exc.value.step == 2


def test_single_branch_equals_deterministic():
    f = lambda x: 3.7 * x * (1 - x)
    det = IterativeMap((Branch(f, lambda x: 3.7 * (1 - 2 * x)),))
    a = iterate(det, 0.2, 200)
    b = iterate(det, 0.2, 200, rng=random.Random(0))
    assert a.states == b.states


def test_identical_branches_match_deterministic_path():
    f = lambda x: 3.7 * x * (1 - x)
    df = lambda x: 3.7 * (1 - 2 * x)
    stochastic = IterativeMap((Branch(f, df, 0.5), Branch(f, df, 0.5)))
    det = IterativeMap((Branch(f, df),))
    a = iterate(stochastic, 0.2, 300, rng=random.Random(4))
    b = iterate(det, 0.2, 300)
    assert a.states == b.states


def test_branch_probabilities_validated():
    f = lambda x: x
    df = lambda x: 1.0
    with pytest.raises(ValueError):
        IterativeMap((Branch(f, df, 0.5), Branch(f, df, 0.6)))
    with pytest.raises(ValueError):
        IterativeMap(())


def test_stochastic_map_records_branch_log():
    up = Branch(lambda x: x + 1, lambda x: 1.0, 0.5)
    down = Branch(lambda x: x - 1, lambda x: 1.0, 0.5)
    traj = iterate(IterativeMap((up, down)), 0.0, 100, rng=random.Random(8))
    assert len(traj.branch_log) == 100
    assert set(traj.branch_log) == {0, 1}
    # trajectory is consistent with the logged branches
    x = 0.0
    for i, b in enumerate(traj.branch_log):
        x = x + 1 if b == 0 else x - 1
        assert traj.states[i + 1] == x


def test_identity_lambda_is_exactly_zero():
    assert divergence_rate(identity_map(), 0.7, 1000, burn_in=0) == 0.0


def test_logistic_r4_lambda_near_ln2():
    lam = divergence_rate(logistic_map(4.0), 0.3, 100_000, burn_in=1000)
    assert abs(lam - math.log(2)) < 0.05
    oracle = brute_force_logistic_lambda(4.0, 0.3, 100_000, 1000)
    assert abs(lam - oracle) < 1e-9


def test_logistic_r25_lambda_at_fixed_point():
    lam = divergence_rate(logistic_map(2.5), 0.3, 20_000, burn_in=1000)
    assert abs(lam - math.log(0.5)) < 0.05


def test_zero_derivative_floored_not_fatal():
    # x0 = 0.5 hits derivative 0 immediately with burn_in=0
    lam = divergence_rate(logistic_map(4.0), 0.5, 3, burn_in=0)
    assert math.isfinite(lam)
    assert lam < -100  # dominated by the ln(1e-300) floor


def test_zero_derivative_floors_log_one_warning_with_their_count(caplog):
    # r = 2 from x0 = 0.5 stays on the fixed point 0.5, where f' = 0.
    lam = divergence_rate(logistic_map(2.0), 0.5, 5000, burn_in=0, rng=random.Random(1))
    expected = 0.0
    for _ in range(5000):
        expected += math.log(1e-300)
    assert lam == expected / 5000
    assert [r.getMessage() for r in caplog.records] == [
        "zero derivative at 5000 of 5000 steps; floored at 1e-300"
    ]


def test_two_trajectory_cross_check():
    rng = random.Random(55)
    for _ in range(10):
        x0 = rng.uniform(0.05, 0.95)
        a = divergence_rate(logistic_map(4.0), x0, 20_000, burn_in=1000)
        b = divergence_rate_two_trajectory(logistic_map(4.0), x0, 20_000, burn_in=1000)
        assert abs(a - b) < 0.1


def test_two_trajectory_contracting_case():
    lam = divergence_rate_two_trajectory(logistic_map(2.5), 0.3, 5_000, burn_in=1000)
    assert abs(lam - math.log(0.5)) < 0.05


def test_two_trajectory_rejects_negative_burn_in():
    with pytest.raises(ValueError, match="burn-in must be >= 0, got -5"):
        divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 1000, burn_in=-5)


def test_two_trajectory_rejects_nonfinite_start():
    with pytest.raises(ValueError, match="x0 must be finite, got nan"):
        divergence_rate_two_trajectory(logistic_map(4.0), float("nan"), 1000)


def test_two_trajectory_floors_a_zero_separation():
    # A constant map merges the two trajectories at every step.
    constant = IterativeMap((Branch(lambda x: 0.5, lambda x: 0.0),))
    lam = divergence_rate_two_trajectory(constant, 0.3, 5, burn_in=0)
    assert lam == math.log(1e-300) == pytest.approx(-690.78, abs=0.01)


def test_two_trajectory_reports_the_step_that_diverges():
    blowup = IterativeMap((Branch(lambda x: x * 1e200, lambda x: 1e200),))
    with pytest.raises(DivergenceError) as exc:
        divergence_rate_two_trajectory(blowup, 1.0, 10, burn_in=0)
    assert exc.value.step == 2


def _branch(kind: str, a: float, p: float) -> Branch:
    if kind == "logistic":
        return Branch(lambda x: a * x * (1.0 - x), lambda x: a * (1.0 - 2.0 * x), p)
    if kind == "constant":  # derivative zero everywhere: every step floors
        return Branch(lambda x: a, lambda x: 0.0, p)
    if kind == "cliff":  # climbs by 1 until x reaches a, then leaves the reals
        return Branch(lambda x: x + 1.0 if x < a else math.inf, lambda x: 1.0, p)
    return Branch(lambda x: a * x, lambda x: a, p)  # "scale"; overflows for large a


BRANCH_PARAMETERS = {
    "logistic": st.floats(0.0, 4.0),
    "constant": st.floats(-1.0, 1.0),
    "cliff": st.integers(0, 150).map(float),
    "scale": st.sampled_from([0.5, -2.0, 1e10, 1e100]),
}


@st.composite
def maps(draw) -> IterativeMap:
    kinds = draw(st.lists(st.sampled_from(sorted(BRANCH_PARAMETERS)), min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(kinds), max_size=len(kinds)))
    if sum(weights) == 0:
        weights[0] = 1
    return IterativeMap(tuple(
        _branch(kind, draw(BRANCH_PARAMETERS[kind]), w / sum(weights))
        for kind, w in zip(kinds, weights)
    ))


@contextlib.contextmanager
def logged(name: str):
    """Collect the messages logged to ``name`` inside the block."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)


def outcome(estimate, logger: str, m, x0, n, burn_in, seed):
    """The estimate's value (as hex, so equal means bit-identical) or its
    error, the warnings it logged, and the rng state it left."""
    rng = random.Random(seed) if seed is not None else None
    with logged(logger) as messages:
        try:
            result = ("value", estimate(m, x0, n, burn_in, rng).hex())
        except DivergenceError as exc:
            result = ("diverged", exc.step)
        except ValueError as exc:
            result = ("ValueError", str(exc))
    return result, messages, rng.getstate() if rng is not None else None


def assert_matches_oracle(m, x0, n, burn_in, seed):
    streamed = outcome(divergence_rate, "complexkit.dynamics", m, x0, n, burn_in, seed)
    oracle = outcome(materialised_divergence_rate, "oracles.dynamics", m, x0, n, burn_in, seed)
    assert streamed == oracle
    return streamed


@settings(max_examples=400, deadline=None)
@given(
    maps(),
    st.one_of(st.floats(-1.5, 1.5), st.sampled_from([0.0, 0.5, math.nan, math.inf])),
    st.integers(0, 120),
    st.integers(-1, 120),
    st.one_of(st.none(), st.integers(0, 2**32)),
)
def test_streamed_divergence_rate_matches_the_materialised_oracle(m, x0, n, burn_in, seed):
    assert_matches_oracle(m, x0, n, burn_in, seed)


@pytest.mark.parametrize("branches", [1, 3])
@pytest.mark.parametrize("cliff, step", [(4.0, 5), (14.0, 15), (19.0, 20)],
                         ids=["burn-in", "mid-run", "last-step"])
def test_blow_up_step_matches_the_oracle(branches, cliff, step):
    # From 0 the cliff branch blows up at step cliff + 1; burn_in + n = 20.
    m = IterativeMap(tuple(_branch("cliff", cliff, 1 / branches) for _ in range(branches)))
    assert assert_matches_oracle(m, 0.0, 10, 10, 7)[0] == ("diverged", step)


def test_floor_warning_matches_the_oracle():
    # The constant branch floors every step it is drawn on.
    m = IterativeMap((_branch("constant", 0.5, 0.5), _branch("logistic", 4.0, 0.5)))
    _, messages, _ = assert_matches_oracle(m, 0.3, 200, 5, 3)
    assert len(messages) == 1 and messages[0].startswith("zero derivative at ")
