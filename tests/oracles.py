"""Independent oracles for cross-checking the library's numerics.

Everything here is deliberately written along a different mathematical
route than the code under test: Bloch-vector optimization instead of
eigenvalue truncation, SVD-based least squares instead of the frame
pseudoinverse, naive loop constructions instead of vectorized
einsum kernels, and one setting at a time with ``np.kron`` instead of
the batched ensemble sampler.
"""

import numpy as np
from scipy.optimize import minimize

from shadowbench.ensembles import GlobalHaar, as_generator

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def bloch_state(r: np.ndarray) -> np.ndarray:
    """The qubit state (I + r . sigma) / 2 for a Bloch vector in the ball."""
    rho = np.eye(2, dtype=complex)
    for component, pauli in zip(r, PAULIS):
        rho = rho + component * pauli
    return rho / 2.0


def closest_physical_state_bloch(matrix: np.ndarray) -> np.ndarray:
    """Closest PSD trace-1 matrix to the trace-renormalized 2x2 input,
    found by numerically optimizing over Bloch vectors in the unit ball."""
    target = np.asarray(matrix, dtype=complex)
    target = target / target.trace().real

    def objective(r):
        difference = bloch_state(r) - target
        return float(np.sum(np.abs(difference) ** 2))

    start = np.array([np.trace(target @ pauli).real for pauli in PAULIS])
    norm = np.linalg.norm(start)
    starts = [start if norm <= 1.0 else start / norm, np.zeros(3)]
    constraint = {"type": "ineq", "fun": lambda r: 1.0 - r @ r}
    best = None
    for initial in starts:
        result = minimize(
            objective, initial, method="SLSQP", constraints=[constraint], tol=1e-14,
            options={"maxiter": 500},
        )
        if best is None or result.fun < best.fun:
            best = result
    return bloch_state(best.x)


def dense_ls_estimate(unitaries, probability_vectors) -> np.ndarray:
    """Minimum-norm least squares state via SVD on the stacked design
    matrix (rows vec(A_mk)†, A_mk = u_k u_k† for the rows u_k† of the
    m-th unitary), independent of the frame-operator path."""
    rows = []
    targets = []
    for u, probabilities in zip(unitaries, probability_vectors):
        for k in range(len(u)):
            rows.append(np.outer(u[k].conj(), u[k]).reshape(-1, order="F").conj())
            targets.append(probabilities[k])
    design = np.array(rows)
    solution = np.linalg.lstsq(design, np.array(targets), rcond=None)[0]
    dim = len(unitaries[0])
    return solution.reshape(dim, dim, order="F")


def hermitian_basis(dim: int) -> list:
    """Orthonormal Hermitian basis, element i*D + j: E_ii on the diagonal,
    (E_ij + E_ji)/sqrt(2) for i < j and i (E_ij - E_ji)/sqrt(2) for i > j."""
    basis = []
    for i in range(dim):
        for j in range(dim):
            element = np.zeros((dim, dim), dtype=complex)
            if i == j:
                element[i, i] = 1.0
            elif i < j:
                element[i, j] = element[j, i] = 1.0 / np.sqrt(2.0)
            else:
                element[i, j] = 1j / np.sqrt(2.0)
                element[j, i] = -1j / np.sqrt(2.0)
            basis.append(element)
    return basis


def naive_frame_matrix(unitaries) -> np.ndarray:
    """F[a, b] = (1/M) sum_mk tr(B_a A_mk) tr(A_mk B_b) over the basis
    B of :func:`hermitian_basis`, assembled entry by entry."""
    basis = hermitian_basis(len(unitaries[0]))
    elements = [np.outer(u[k].conj(), u[k]) for u in unitaries for k in range(len(u))]
    traces = np.array(
        [[np.trace(member @ element).real for element in elements] for member in basis]
    )
    frame = np.zeros((len(basis), len(basis)))
    for a in range(len(basis)):
        for b in range(len(basis)):
            frame[a, b] = traces[a] @ traces[b]
    return frame / len(unitaries)


def dense_ridge_solve(unitaries, mu: float, partial: np.ndarray) -> np.ndarray:
    """Direct dense solve of ((1/M)(A†A + mu I)) X = partial in the basis
    of :func:`hermitian_basis`."""
    basis = hermitian_basis(len(unitaries[0]))
    settings = len(unitaries)
    operator = naive_frame_matrix(unitaries) + (mu / settings) * np.eye(len(basis))
    solution = np.linalg.solve(operator, [np.trace(member @ partial).real for member in basis])
    return sum(x * member for x, member in zip(solution, basis))


def haar_entry_second_moment_qubit() -> float:
    """E|U_00|^2 for Haar U(2) by direct integration over the standard
    parameterization U_00 = cos(theta), theta-density sin(2 theta)."""
    from scipy.integrate import quad

    value, _ = quad(lambda theta: np.cos(theta) ** 2 * np.sin(2 * theta), 0.0, np.pi / 2)
    return value


def random_density_matrix(dim: int, generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a normalized Wishart matrix."""
    rank = dim if rank is None else rank
    ginibre = generator.standard_normal((dim, rank)) + 1j * generator.standard_normal((dim, rank))
    rho = ginibre @ ginibre.conj().T
    return rho / rho.trace().real


def random_hermitian(dim: int, generator, scale: float = 1.0) -> np.ndarray:
    raw = generator.standard_normal((dim, dim)) + 1j * generator.standard_normal((dim, dim))
    return scale * (raw + raw.conj().T) / 2.0


def haar_unitaries(dim: int, count: int, rng) -> np.ndarray:
    """``count`` Haar unitaries from one (2, count, D, D) normal draw of a
    stream or generator, real parts before imaginary parts: the QR factor
    of each Ginibre matrix, times the phases of R's diagonal."""
    normals = as_generator(rng).standard_normal((2, count, dim, dim))
    q, r = np.linalg.qr((normals[0] + 1j * normals[1]) / np.sqrt(2.0))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def reference_unitary(ensemble, stream) -> np.ndarray:
    """One setting's unitary, drawn the per-setting way: a mixture's coin
    first (only for 0 < eta < 1), then a global Haar unitary, or one
    2x2 Haar unitary per qubit joined by ``np.kron``."""
    generator = as_generator(stream)
    eta = 0.0 if isinstance(ensemble, GlobalHaar) else ensemble.eta
    local = eta >= 1.0 or (eta > 0.0 and generator.random() < eta)
    if not local:
        return haar_unitaries(ensemble.dim, 1, generator)[0]
    unitary = haar_unitaries(2, 1, generator)[0]
    for _ in range(ensemble.qubits - 1):
        unitary = np.kron(unitary, haar_unitaries(2, 1, generator)[0])
    return unitary
