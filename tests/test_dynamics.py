import math
import random

import pytest

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
