import contextlib
import logging
import math
import random
from unittest import mock

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


@pytest.mark.parametrize("probabilities, message", [
    ((math.nan, 1.0), "branch probability must be a finite number, got nan"),
    ((math.nan,), "branch probability must be a finite number, got nan"),
    ((-0.5, 1.5), "branch probability must be >= 0, got -0.5"),
    (("1",), "branch probability must be a real number, got '1'"),
], ids=["nan-and-one", "nan-alone", "negative", "string"])
def test_a_probability_that_is_not_a_number_at_least_zero_is_refused(probabilities, message):
    # NaN fails every comparison, so neither a "< 0" test nor the sum test refuses it.
    branches = tuple(Branch(lambda x: x, lambda x: 1.0, p) for p in probabilities)
    with pytest.raises(ValueError) as exc:
        IterativeMap(branches)
    assert str(exc.value) == message


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


def test_a_stochastic_branch_log_is_pinned():
    # Recorded before weighted_index dropped its enumerate scan; the
    # zero-probability branch 1 is never drawn.
    branches = [Branch(lambda x, k=k: x + k, lambda x: 1.0, p)
                for k, p in ((1, 0.2), (10, 0.0), (100, 0.5), (1000, 0.3))]
    traj = iterate(IterativeMap(branches), 0.0, 40, rng=random.Random(2024))
    assert "".join(map(str, traj.branch_log)) == "2323232232233232332323302202203322222232"
    assert traj.states[-1] == 17203.0


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
    with pytest.raises(ValueError, match="x0 must be a finite number, got nan"):
        divergence_rate_two_trajectory(logistic_map(4.0), float("nan"), 1000)


@pytest.mark.parametrize("delta0, message", [
    (0.0, "delta0 must be a finite number > 0, got 0.0"),
    (-1e-9, "delta0 must be a finite number > 0, got -1e-09"),
    (math.nan, "delta0 must be a finite number, got nan"),
    (math.inf, "delta0 must be a finite number, got inf"),
    ("1e-9", "delta0 must be a real number, got '1e-9'"),
], ids=["0.0", "-1e-09", "nan", "inf", "1e-9"])
def test_two_trajectory_refuses_a_delta0_that_is_not_a_finite_number_above_zero(delta0, message):
    with pytest.raises(ValueError) as exc:
        divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 100, burn_in=10, delta0=delta0)
    assert str(exc.value) == message


@pytest.mark.parametrize("delta0, state, step", [
    (1e-20, 0.043421853445318986, 10),
    (1e-17, 0.1661455843547689, 11),
])
def test_two_trajectory_refuses_a_delta0_below_the_resolution_of_the_state(delta0, state, step):
    # x + delta0 == x there, so every separation would be floored at 0.
    with pytest.raises(ValueError) as exc:
        divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 100, burn_in=10, delta0=delta0)
    assert str(exc.value) == (
        f"delta0 {delta0!r} is below the resolution of the state {state!r} at step {step}")


@pytest.mark.parametrize("call, message", [
    (lambda: divergence_rate(logistic_map(4.0), 0.3, 10.5, 0), "step count must be an integer, got 10.5"),
    (lambda: divergence_rate(logistic_map(4.0), 0.3, 10, 1.5), "burn-in must be an integer, got 1.5"),
    (lambda: divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 10.5, 0),
     "step count must be an integer, got 10.5"),
    (lambda: divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 10, 1.5),
     "burn-in must be an integer, got 1.5"),
    (lambda: iterate(logistic_map(4.0), 0.3, 2.5), "step count must be an integer, got 2.5"),
    (lambda: iterate(logistic_map(4.0), 0.3, "3"), "step count must be an integer, got '3'"),
    (lambda: divergence_rate(logistic_map(4.0), 0.3, 0, 0), "step count must be >= 1, got 0"),
    (lambda: divergence_rate(logistic_map(4.0), 0.3, 10, -1), "burn-in must be >= 0, got -1"),
    (lambda: divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 0, 0),
     "step count must be >= 1, got 0"),
    (lambda: divergence_rate_two_trajectory(logistic_map(4.0), 0.3, 10, -1),
     "burn-in must be >= 0, got -1"),
    (lambda: iterate(logistic_map(4.0), 0.3, -1), "step count must be >= 0, got -1"),
], ids=["rate-n", "rate-burn-in", "two-trajectory-n", "two-trajectory-burn-in", "iterate",
        "iterate-string", "rate-n-below", "rate-burn-in-below", "two-trajectory-n-below",
        "two-trajectory-burn-in-below", "iterate-below"])
def test_a_step_count_that_is_not_an_integer_is_refused(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


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


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.floats(-5.0, 5.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-8, 8),
        st.sampled_from([0.0, -0.0, 4.0, 3.9999999999999996, 1e200, -1e200, math.inf, math.nan]),
    ),
    st.one_of(
        st.floats(-1.5, 1.5),
        st.sampled_from([0.0, 0.5, 1.0, 1e300, -1e300, math.nan, math.inf, -math.inf]),
    ),
    st.integers(0, 120),
    st.integers(-1, 120),
    st.one_of(st.none(), st.integers(0, 2**32)),
)
def test_inline_logistic_divergence_rate_matches_the_materialised_oracle(r, x0, n, burn_in, seed):
    # divergence_rate steps logistic_map(r) with its expressions written
    # inline, checking finiteness at the end of each phase; the oracle
    # calls the map's branch functions and checks every step. A
    # non-finite r is refused when the map is built.
    if not math.isfinite(r):
        with pytest.raises(ValueError, match=f"^r must be a finite number, got {r!r}$"):
            logistic_map(r)
        return
    assert_matches_oracle(logistic_map(r), x0, n, burn_in, seed)


@pytest.mark.parametrize("r, x0, burn_in, step", [
    (4.0, 1e300, 0, 1), (4.5, 0.3, 0, 19), (4.5, 0.3, 10, 19), (4.5, 0.3, 100, 19),
    (4.0000009, 0.3, 0, 4499), (4.0000009, 0.3, 5000, 4499), (4.0000014, 0.3, 1000, 8447)],
    ids=["first-step", "main-loop", "main-loop-after-burn-in", "burn-in",
         "second-block", "second-block-of-burn-in", "third-block"])
def test_inline_logistic_reports_the_step_that_diverges(r, x0, burn_in, step):
    outcome = assert_matches_oracle(logistic_map(r), x0, 10_000, burn_in, 1)
    assert outcome[0] == ("diverged", step)


@pytest.mark.parametrize("burn_in, n", [(19, 5), (18, 5), (10, 9)],
                         ids=["last-burn-in-step", "first-measured-step", "last-step"])
def test_inline_logistic_divergence_on_a_phase_boundary_matches_the_oracle(burn_in, n):
    # From 0.3, logistic_map(4.5) leaves the finite reals at step 19.
    outcome = assert_matches_oracle(logistic_map(4.5), 0.3, n, burn_in, 1)
    assert outcome[0] == ("diverged", 19)


def test_inline_logistic_divergence_in_burn_in_takes_no_measured_step():
    # Only a measured step calls math.log: the replay that finds the step
    # raises in its burn-in, before any derivative is taken.
    with mock.patch("math.log", side_effect=AssertionError("a measured step ran")):
        with pytest.raises(DivergenceError) as exc:
            divergence_rate(logistic_map(4.5), 0.3, 10, burn_in=100)
    assert exc.value.step == 19


def test_inline_logistic_floor_warning_matches_the_oracle():
    # r = 2 from 0.5 stays on the superstable fixed point: every step floors.
    value, messages, _ = assert_matches_oracle(logistic_map(2.0), 0.5, 50, 3, None)
    assert float.fromhex(value[1]) == pytest.approx(math.log(1e-300))
    assert messages == ["zero derivative at 50 of 50 steps; floored at 1e-300"]
