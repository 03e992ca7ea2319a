"""The benchmark's pinned scenario workloads and the CSV rows each must emit.

Every field the output depends on is spelled out here, so a change to a
library default cannot silently change what a workload measures.
"""

from __future__ import annotations

from dataclasses import dataclass

MULTISHOT_BUDGETS = (64, 128, 256, 512, 1024, 2048, 4096)
PAPER_M_GRID = (4, 8, 16, 32, 64, 128, 256, 512)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # shadowbench.Scenario fields, without the seed
    reference_seed: int  # default --seed; its CSV is kept under reference/
    workers: int


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "multishot-d8",
            dict(kind="multishot", qubits=3, trials=2, m_grid=MULTISHOT_BUDGETS,
                 l_grid=(1, 64), mu_grid=(0.1,), observables=(0, 1, 2),
                 random_observables=50),
            reference_seed=777,
            workers=1,
        ),
        Workload(
            "rls-vs-cs-d32",
            dict(kind="rls-vs-cs", qubits=5, trials=1, m_grid=PAPER_M_GRID,
                 mu_grid=(0.1,), observables=(0, 1, 2)),
            reference_seed=1,
            workers=1,
        ),
        Workload(
            "theorem1-d4",
            dict(kind="theorem1", qubits=2, trials=100, m_grid=(16,), l_grid=(1, 4, 16),
                 ensemble_samples=10000, observables=(0, 1, 2)),
            reference_seed=314,
            workers=2,
        ),
        Workload(
            "mismatch-d8",
            dict(kind="mismatch", qubits=3, trials=4, m_grid=(128,),
                 eta_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5), mu_grid=(0.1,),
                 observables=(0, 1, 2)),
            reference_seed=2024,
            workers=1,
        ),
    )
}


def expected_keys(config: dict) -> set[tuple]:
    """Row keys (scenario, trial, M, L, mu, eta, method, metric) that the
    CSV of a scenario with this config must hold, derived from the
    documented output format rather than from the library."""
    kind = config["kind"]
    trials = config["trials"]
    lambdas = (0,) if kind == "theorem1" else tuple(config["observables"])
    if kind == "theorem1":
        methods = (("CS", 0.0),)
    else:
        methods = (("RLS", config["mu_grid"][0]), ("CS", 0.0))

    if kind == "multishot":
        points = [
            (budget // shots, shots)
            for shots in config["l_grid"]
            for budget in config["m_grid"]
            if budget % shots == 0 and budget >= shots
        ]
    elif kind == "theorem1":
        points = [(config["m_grid"][0], shots) for shots in config["l_grid"]]
    else:
        points = [(settings, 1) for settings in config["m_grid"]]
    etas = config["eta_grid"] if kind == "mismatch" else (0.0,)

    per_trial = [f"lambda-hat-{i}" for i in lambdas]
    if kind == "rls-vs-cs":
        per_trial += ["frobenius-error", "eig-pos", "eig-neg", "trace", "loglik"]
    if kind == "multishot":
        per_trial.append("mse-rand")

    aggregate = []
    if trials >= 2:
        for i in lambdas:
            label = "mse" if kind == "theorem1" else f"mse-{i}"
            aggregate += [label, f"{label}-se"]
    if kind == "multishot":
        aggregate += ["mse-rand", "mse-rand-se"]

    keys = set()
    for settings, shots in points:
        for eta in etas:
            for method, method_mu in methods:
                for trial in range(trials):
                    keys.update(
                        (kind, trial, settings, shots, method_mu, eta, method, metric)
                        for metric in per_trial
                    )
                keys.update(
                    (kind, -1, settings, shots, method_mu, eta, method, metric)
                    for metric in aggregate
                )
    if kind == "theorem1":
        for settings, shots in points:
            keys.update(
                (kind, -1, settings, shots, 0.0, 0.0, "CS", metric)
                for metric in ("mse-theory", "mse-theory-se")
            )
    return keys
