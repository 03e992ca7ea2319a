"""Acceptance suite: one test per criterion, at the stated tolerances.

Statistical criteria use 3-standard-error comparisons on fixed seeds;
every tolerance is pinned here, nothing is deferred to calibration.
Prints one pass line per criterion (visible with -s / -rA; the per-test
PASSED/FAILED line of ``pytest -v`` carries the same information).
"""

import filecmp
import math

import numpy as np
import pytest
from scipy import stats

from shadowbench.core import (
    DensityMatrix,
    born_probabilities,
    project_physical,
)
from shadowbench.ensembles import (
    GlobalHaar,
    haar_from_normals,
    sample_sphere_vector,
)
from shadowbench.estimators import CS, LS, RLS, FramePrefix, estimate, shadow_map
from shadowbench.experiments import (
    AGGREGATE_TRIAL,
    Scenario,
    canonical_state_and_observables,
    emit_csv,
    run_scenario,
)
from shadowbench.measurement import (
    MeasurementPlan,
    adjoint_map,
    run_plan,
)
from shadowbench.theory import empirical_mse, mse_theorem1

from oracles import (
    canonical_vectors,
    closest_physical_state_bloch,
    dense_ls_estimate,
    expand_to_single_shot,
    haar_unitaries,
    random_density_matrix,
    random_hermitian,
    random_observable_cdf,
    stream,
)


def report(number, name):
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


@pytest.fixture(scope="module")
def double_descent_runs():
    """Shared runs for criteria 5 and 6: LS on the descent grid and
    RLS at the interpolation point, same seed hence same records."""
    seed = 424242
    ls_rows = run_scenario(
        Scenario(kind="double-descent", qubits=4, trials=50, m_grid=(4, 16, 64), seed=seed),
        workers=4,
    )
    rls_rows = run_scenario(
        Scenario(kind="rls-vs-cs", qubits=4, trials=50, m_grid=(16,), seed=seed),
        workers=4,
    )
    return ls_rows, rls_rows


def median_frobenius(rows, method, settings):
    values = [
        row.value
        for row in rows
        if row.method == method
        and row.metric == "frobenius-error"
        and row.settings == settings
        and row.trial >= 0
    ]
    assert len(values) == 50
    return float(np.median(values))


def test_criterion_01_channel_identity():
    # Monte Carlo mean of sum_k <u_k, rho u_k> u_k u_k† over 1e5 Haar
    # unitaries at D=4 vs (rho + tr(rho) I) / (D+1), entrywise 3 SE.
    dim, total, chunk = 4, 100_000, 20_000
    generator = np.random.default_rng(90125)
    rho = random_density_matrix(dim, generator)
    target = (rho + rho.trace() * np.eye(dim)) / (dim + 1)

    generator = stream(888)
    mean = np.zeros((dim, dim), dtype=complex)
    square_re = np.zeros((dim, dim))
    square_im = np.zeros((dim, dim))
    done = 0
    while done < total:
        size = min(chunk, total - done)
        unitaries = haar_from_normals(generator.standard_normal((2, size, dim, dim)))
        p = np.einsum("bki,ij,bkj->bk", unitaries, rho, unitaries.conj()).real
        samples = np.einsum("bk,bki,bkj->bij", p, unitaries.conj(), unitaries)
        mean += samples.sum(axis=0)
        square_re += (samples.real**2).sum(axis=0)
        square_im += (samples.imag**2).sum(axis=0)
        done += size
    mean /= total
    se_re = np.sqrt(np.maximum(square_re / total - mean.real**2, 0.0) / total)
    se_im = np.sqrt(np.maximum(square_im / total - mean.imag**2, 0.0) / total)

    assert np.all(np.abs(mean.real - target.real) <= 3 * se_re + 1e-12)
    assert np.all(np.abs(mean.imag - target.imag) <= 3 * se_im + 1e-12)
    report(1, "channel-identity")


def test_criterion_02_cs_shadow_structure():
    # 1e3 single-shot records at D=32: trace 1 within 1e-10 and
    # spectrum {32, -1 x 31} within 1e-9.
    dim = 32
    state, _ = canonical_state_and_observables(5)
    records = run_plan(state, MeasurementPlan(1000, 1, GlobalHaar(dim)), 5150, 0)
    for unitary, frequencies in zip(records.unitaries, records.frequencies):
        shadow = shadow_map(CS(), adjoint_map(unitary, frequencies))
        assert abs(shadow.trace().real - 1.0) <= 1e-10
        eigenvalues = np.linalg.eigvalsh(shadow)
        assert abs(eigenvalues[-1] - dim) <= 1e-9
        assert np.abs(eigenvalues[:-1] + 1.0).max() <= 1e-9
    report(2, "cs-shadow-structure")


def test_criterion_03_cs_unbiasedness():
    # D=4, T=1e4 single-shot trials with M=8: mean estimate of each
    # canonical observable within 3 SE of (1, 1/2, 0).
    dim, trials, settings = 4, 10_000, 8
    state, observables = canonical_state_and_observables(2)
    truths = (1.0, 0.5, 0.0)
    vectors = canonical_vectors(dim)

    estimates = np.empty((trials, 3))
    stacks = run_plan(state, MeasurementPlan(settings, 1, GlobalHaar(dim)), 1984, range(trials))
    for trial, records in enumerate(stacks):
        average = estimate(records, CS()).mean(axis=0)
        estimates[trial] = np.einsum("aj,ab,bj->j", vectors.conj(), average, vectors).real

    for i in range(3):
        margin = 3 * estimates[:, i].std(ddof=1) / np.sqrt(trials)
        assert abs(estimates[:, i].mean() - truths[i]) <= margin
    report(3, "cs-unbiasedness")


def test_criterion_04_lemma1_hermitian_trace_one():
    # 100 LS runs with M*K <= D^2 and generic Haar settings: Hermitian
    # within 1e-10, trace 1 within 1e-8.
    run = 0
    for dim in (4, 8):
        state = DensityMatrix.maximally_mixed(dim)
        for repeat in range(50):
            settings = 1 + repeat % dim
            records = run_plan(
                state, MeasurementPlan(settings, 1, GlobalHaar(dim)), 1066, run
            )
            average = estimate(records, LS()).mean(axis=0)
            defect = np.abs(average - average.conj().T).max()
            assert defect <= 1e-10
            assert abs(average.trace().real - 1.0) <= 1e-8
            run += 1
    assert run == 100
    report(4, "lemma1-hermitian-trace")


def test_criterion_05_double_descent_peak(double_descent_runs):
    # n=4, T=50, M in {4, 16, 64}: trial-median LS Frobenius error
    # peaks at M = D = 16.
    ls_rows, _ = double_descent_runs
    medians = {m: median_frobenius(ls_rows, "LS", m) for m in (4, 16, 64)}
    assert medians[16] > medians[4]
    assert medians[16] > medians[64]
    report(5, "double-descent-peak")


def test_criterion_06_rls_stabilizes_interpolation(double_descent_runs):
    # Same setup, mu = 0.1: median RLS error at M = D is under half
    # the LS value there.
    ls_rows, rls_rows = double_descent_runs
    ls_median = median_frobenius(ls_rows, "LS", 16)
    rls_median = median_frobenius(rls_rows, "RLS", 16)
    assert rls_median < 0.5 * ls_median
    report(6, "rls-stabilization")


def test_criterion_07_theorem1_cross_check():
    # D=4, M=16, L in {1,4,16}: empirical MSE over 1e4 trials within
    # 3 combined SE of the formula evaluated over 1e4 ensemble samples.
    scenario = Scenario(
        kind="theorem1",
        qubits=2,
        trials=10_000,
        m_grid=(16,),
        l_grid=(1, 4, 16),
        ensemble_samples=10_000,
        seed=314,
    )
    rows = run_scenario(scenario, workers=4)
    aggregate = {
        (row.shots, row.metric): row.value for row in rows if row.trial == AGGREGATE_TRIAL
    }
    for shots in (1, 4, 16):
        empirical = aggregate[(shots, "mse")]
        predicted = aggregate[(shots, "mse-theory")]
        combined = math.hypot(aggregate[(shots, "mse-se")], aggregate[(shots, "mse-theory-se")])
        assert abs(empirical - predicted) <= 3 * combined
    report(7, "theorem1-cross-check")


def test_criterion_08_multishot_degradation_and_scaling():
    # Fixed ML = 4096 at D=8: CS MSE at L=64 exceeds L=1 by > 3
    # combined SE; log-log slope of CS MSE vs ML at L=1 over
    # ML in {2^6..2^12} is -1 +- 0.25.
    scenario = Scenario(
        kind="multishot",
        qubits=3,
        trials=200,
        m_grid=(64, 128, 256, 512, 1024, 2048, 4096),
        l_grid=(1, 64),
        seed=777,
    )
    rows = run_scenario(scenario, workers=4)
    aggregate = {
        (row.method, row.shots, row.settings, row.metric): row.value
        for row in rows
        if row.trial == AGGREGATE_TRIAL
    }

    single = aggregate[("CS", 1, 4096, "mse-0")]
    single_se = aggregate[("CS", 1, 4096, "mse-0-se")]
    multi = aggregate[("CS", 64, 64, "mse-0")]
    multi_se = aggregate[("CS", 64, 64, "mse-0-se")]
    assert multi - single > 3 * math.hypot(single_se, multi_se)

    budgets = np.array([64, 128, 256, 512, 1024, 2048, 4096])
    mses = np.array([aggregate[("CS", 1, budget, "mse-0")] for budget in budgets])
    slope = np.polyfit(np.log(budgets), np.log(mses), 1)[0]
    assert abs(slope - (-1.0)) <= 0.25
    report(8, "multishot-degradation-and-scaling")


def test_criterion_09_distribution_mismatch():
    # D=8, M=128, T=200: CS MSE degrades from eta=0 to eta=0.5 by
    # > 3 combined SE while RLS stays within 3 combined SE.
    scenario = Scenario(
        kind="mismatch",
        qubits=3,
        trials=200,
        m_grid=(128,),
        eta_grid=(0.0, 0.5),
        seed=2024,
    )
    rows = run_scenario(scenario, workers=4)
    aggregate = {
        (row.method, row.eta, row.metric): row.value
        for row in rows
        if row.trial == AGGREGATE_TRIAL
    }

    cs_gap = aggregate[("CS", 0.5, "mse-0")] - aggregate[("CS", 0.0, "mse-0")]
    cs_combined = math.hypot(
        aggregate[("CS", 0.5, "mse-0-se")], aggregate[("CS", 0.0, "mse-0-se")]
    )
    assert cs_gap > 3 * cs_combined

    rls_gap = abs(aggregate[("RLS", 0.5, "mse-0")] - aggregate[("RLS", 0.0, "mse-0")])
    rls_combined = math.hypot(
        aggregate[("RLS", 0.5, "mse-0-se")], aggregate[("RLS", 0.0, "mse-0-se")]
    )
    assert rls_gap <= 3 * rls_combined
    report(9, "distribution-mismatch")


def test_criterion_10_random_observable_density():
    # 1e5 overlaps |phi† e0|^2 at D=32: KS test against
    # (D-1)(1-x)^(D-2) passes at p > 0.01; mean within 3 SE of 1/32.
    dim, count = 32, 100_000
    generator = stream(1899)
    overlaps = np.empty(count)
    for i in range(count):
        overlaps[i] = abs(sample_sphere_vector(dim, generator)[0]) ** 2

    result = stats.kstest(overlaps, lambda x: random_observable_cdf(x, dim))
    assert result.pvalue > 0.01
    margin = 3 * overlaps.std(ddof=1) / np.sqrt(count)
    assert abs(overlaps.mean() - 1.0 / dim) <= margin
    report(10, "random-observable-density")


def test_criterion_11_oracle_equivalences():
    # (a) LS from exact probabilities with an informationally complete
    # fixed set of settings recovers a known D=2 mixed state within 1e-8
    # of the dense-solve oracle.
    dim = 2
    state = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
    unitaries = [haar_unitaries(dim, 1, stream(1453, (0, m)))[0] for m in range(4)]
    probabilities = [born_probabilities(unitary, state) for unitary in unitaries]
    prefix = FramePrefix(dim)
    prefix.extend(unitaries)
    frame = prefix.frame()
    average = np.mean(
        [
            shadow_map(LS(), adjoint_map(unitary, p), frame)
            for unitary, p in zip(unitaries, probabilities)
        ],
        axis=0,
    )
    oracle = dense_ls_estimate(unitaries, probabilities)
    assert np.abs(average - oracle).max() <= 1e-8
    assert np.abs(average - state.matrix).max() <= 1e-8

    # (b) Physical projection within 1e-6 of the Bloch-ball optimizer
    # oracle on 1000 random 2x2 Hermitian inputs.
    generator = np.random.default_rng(1777)
    for _ in range(1000):
        matrix = random_hermitian(2, generator, scale=0.8)
        matrix += (1.0 + 0.3 * generator.uniform(-1, 1) - matrix.trace().real) * np.eye(2) / 2
        projected = project_physical(matrix)
        reference = closest_physical_state_bloch(matrix)
        assert np.abs(projected.matrix - reference).max() <= 1e-6

    # (c) Multishot records equal their expanded one-hot form within
    # 1e-10 for all three methods.
    records = run_plan(
        DensityMatrix.maximally_mixed(4),
        MeasurementPlan(6, 16, GlobalHaar(4)),
        1918, 0,
    )
    expanded = expand_to_single_shot(records)
    for method in (LS(), RLS(0.1), CS()):
        multi = estimate(records, method).mean(axis=0)
        single = estimate(expanded, method).mean(axis=0)
        assert np.abs(multi - single).max() <= 1e-10
    report(11, "oracle-equivalences")


def test_criterion_12_deterministic_csv_across_workers(tmp_path):
    # Identical scenario and seed: byte-identical CSV under 1, 2, and
    # 8 workers.
    scenario = Scenario(
        kind="rls-vs-cs", qubits=2, trials=8, m_grid=(2, 4, 8), seed=1234
    )
    paths = []
    for workers in (1, 2, 8):
        path = tmp_path / f"workers{workers}.csv"
        emit_csv(run_scenario(scenario, workers=workers), path)
        paths.append(path)
    assert filecmp.cmp(paths[0], paths[1], shallow=False)
    assert filecmp.cmp(paths[0], paths[2], shallow=False)
    report(12, "deterministic-csv")
