"""Independent oracles for cross-checking the library's numerics.

Everything here is deliberately written along a different mathematical
route than the code under test: Bloch-vector optimization instead of
eigenvalue truncation, SVD-based least squares instead of the frame
pseudoinverse, naive loop constructions instead of vectorized
einsum kernels, and one setting at a time with ``np.kron`` instead of
the batched ensemble sampler. The closed-form multinomial moments, Haar
overlap density, theorem-1 MSE (exact at rho = Lambda = |0><0|) and
single-shot CS MSE of a rank-one probe are what sampled counts, overlaps,
the theorem-1 Monte Carlo and the families' CS rows are tested against.
"""

from fractions import Fraction
from math import factorial

import numpy as np
from scipy.optimize import minimize

from shadowbench.ensembles import GlobalHaar, stream_generators
from shadowbench.estimators import FramePrefix, gram_ridge_solve, shadow_map, solve_route
from shadowbench.measurement import RecordStack, adjoint_map

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


def stream(seed: int, key: tuple[int, int] = (0, 0)) -> np.random.Generator:
    """The generator of the stream (seed, key)."""
    (generator,) = stream_generators(seed, [key[0]], [key[1]])
    return generator


def haar_unitaries(dim: int, count: int, generator) -> np.ndarray:
    """``count`` Haar unitaries from one (2, count, D, D) normal draw of a
    generator, real parts before imaginary parts: the QR factor of each
    Ginibre matrix, times the phases of R's diagonal."""
    normals = generator.standard_normal((2, count, dim, dim))
    q, r = np.linalg.qr((normals[0] + 1j * normals[1]) / np.sqrt(2.0))
    diagonal = np.diagonal(r, axis1=1, axis2=2)
    return q * (diagonal / np.abs(diagonal))[:, None, :]


def reference_unitary(ensemble, generator) -> np.ndarray:
    """One setting's unitary, drawn the per-setting way: a mixture's coin
    first (only for 0 < eta < 1), then a global Haar unitary, or one
    2x2 Haar unitary per qubit joined by ``np.kron``."""
    eta = 0.0 if isinstance(ensemble, GlobalHaar) else ensemble.eta
    local = eta >= 1.0 or (eta > 0.0 and generator.random() < eta)
    if not local:
        return haar_unitaries(ensemble.dim, 1, generator)[0]
    unitary = haar_unitaries(2, 1, generator)[0]
    for _ in range(ensemble.qubits - 1):
        unitary = np.kron(unitary, haar_unitaries(2, 1, generator)[0])
    return unitary


def canonical_vectors(dim: int) -> np.ndarray:
    """(D, 3) columns: the vectors of the three canonical probe
    observables, |0>, |0>/sqrt(2) plus the uniform superposition of the
    other basis states at weight 1/sqrt(2), and |1>."""
    vectors = np.zeros((dim, 3), dtype=complex)
    vectors[0, 0] = 1.0
    vectors[1:, 1] = 1.0 / np.sqrt(2.0 * (dim - 1))
    vectors[0, 1] = 1.0 / np.sqrt(2.0)
    vectors[1, 2] = 1.0
    return vectors


def multinomial_moments(
    probabilities: np.ndarray, shots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact second moments of multinomial frequencies p̂ = f / L.

    Returns the vector E[p̂_k^2] = (p_k + (L-1) p_k^2) / L and the matrix
    E[p̂_k p̂_k'] = (1 - 1/L) p_k p_k' for k != k'; the matrix diagonal is
    filled with the second moments so the matrix is E[p̂ p̂ᵀ] in full.
    """
    p = np.asarray(probabilities, dtype=float)
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    second = (p + (shots - 1) * p * p) / shots
    cross = (1.0 - 1.0 / shots) * np.outer(p, p)
    np.fill_diagonal(cross, second)
    return second, cross


def theorem1_mse_exact(dim: int, settings: int, shots: int) -> Fraction:
    """Theorem 1's MSE of the CS estimate of tr(Lambda rho) for
    rho = Lambda = |0><0|, exactly, with no Haar average sampled.

    The Born probabilities x_k = |U_k0|^2 of a Haar setting are uniform on
    the simplex, Dirichlet(1, ..., 1), with E[x_1^a x_2^b] =
    (D-1)! a! b! / (D-1+a+b)!, and t_k = (D+1) x_k - 1. By symmetry over k,

        MSE = (D/(ML)) E[(x_1 + (L-1) x_1^2) t_1^2]
              + (1 - 1/L) (D(D-1)/M) E[x_1 t_1 x_2 t_2] - 1/M.
    """

    def moment(a: int, b: int = 0) -> Fraction:
        return Fraction(factorial(dim - 1) * factorial(a) * factorial(b),
                        factorial(dim - 1 + a + b))

    c = dim + 1
    # x^j t^2 = c^2 x^(j+2) - 2c x^(j+1) + x^j, and x t = c x^2 - x.
    x_t2 = c * c * moment(3) - 2 * c * moment(2) + moment(1)
    x2_t2 = c * c * moment(4) - 2 * c * moment(3) + moment(2)
    xt_xt = c * c * moment(2, 2) - 2 * c * moment(2, 1) + moment(1, 1)
    single = Fraction(dim, settings * shots) * (x_t2 + (shots - 1) * x2_t2)
    pairs = (1 - Fraction(1, shots)) * Fraction(dim * (dim - 1), settings) * xt_xt
    return single + pairs - Fraction(1, settings)


def cs_mse_exact(dim: int, settings: int, overlap) -> Fraction:
    """The MSE of the single-shot CS estimate of tr(Lambda rho) for M
    global-Haar settings, rho = |psi><psi| and Lambda = |phi><phi| with
    c = |<psi|phi>|^2 = ``overlap``, exactly.

    A setting's estimate at outcome k is (D+1) q_k - 1, drawn with
    probability p_k, where p_k = |<k|U|psi>|^2 and q_k = |<k|U|phi>|^2,
    so its second moment is D E[x ((D+1) q - 1)^2] for one Haar vector.
    E[(u u^dagger)^(x3)] = sum_pi P_pi / (D(D+1)(D+2)) over the six
    permutations pi, which give 2 + 4c against psi (x) phi (x) phi, so

        M MSE = (D+1)(2+4c)/(D+2) - 1 - 2c - c^2.
    """
    c = Fraction(overlap)
    return ((dim + 1) * (2 + 4 * c) / (dim + 2) - 1 - 2 * c - c * c) / settings


def random_observable_pdf(lam, dim: int):
    """Density (D-1)(1-lam)^(D-2) of tr(Lambda rho) for a Haar-random
    rank-1 observable against a fixed pure state."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    values = np.asarray(lam, dtype=float)
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("overlap values must lie in [0, 1]")
    density = (dim - 1) * (1.0 - values) ** (dim - 2)
    return float(density) if np.isscalar(lam) else density


def random_observable_cdf(lam, dim: int):
    """CDF 1 - (1-lam)^(D-1) matching :func:`random_observable_pdf`."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    values = np.asarray(lam, dtype=float)
    cdf = 1.0 - (1.0 - values) ** (dim - 1)
    return float(cdf) if np.isscalar(lam) else cdf


def expand_to_single_shot(records: RecordStack) -> RecordStack:
    """Rewrite M L-shot settings as M*L one-hot single-shot settings with
    the same unitaries: setting by setting, then outcome by outcome."""
    outcomes = records.counts.shape[1]
    flat = np.repeat(np.arange(records.counts.size), records.counts.ravel())
    settings, hits = np.divmod(flat, outcomes)
    return RecordStack(records.unitaries[settings], np.eye(outcomes, dtype=np.int64)[hits], 1)


def average_estimate(method, records: RecordStack, frames: FramePrefix | None = None):
    """The estimate of ``method`` from a whole record stack, as the
    scenario kernel makes it from a stream: the mean of the adjoints,
    summed one setting at a time from zero, mapped by the shadow map, or
    at or below M = D the Gram solve. The frame route takes the frame of
    ``frames`` at the records' shot count, which must have been fed
    exactly the records' settings (a caller that asks it for frames at
    the kernel's frame-route points gets the kernel's syrk blocks), or
    else of the records fed at once."""
    total = np.zeros((records.dim, records.dim), dtype=complex)
    for adjoint in adjoint_map(records.unitaries, records.frequencies):
        total = total + adjoint
    mean = total / len(records)
    route = solve_route(method, len(records), records.dim)
    if route == "gram":
        return gram_ridge_solve(records.unitaries, records.frequencies,
                                getattr(method, "mu", 0.0), records.shots)
    if route == "frame" and frames is None:
        frames = FramePrefix(records.dim)
        frames.extend(records.unitaries)
    return shadow_map(method, mean, frames.frame(records.shots) if route == "frame" else None)
