"""Independent reference computations for the test suite.

These deliberately avoid the package's combinatorial kernels: the splitter
unitary is built here from ladder-operator matrices and an eigendecomposition
exponential, distributions from exact dyadic binomials, Poisson tails
from compensated summation, spectrum fits from a grid search and from
the damped least-squares loop as it stood before the bound step, started
from the fit's guess as numpy calls compute it, and the fit's damped step
by projecting S0's Jacobian row out of the others.
"""

import math

import numpy as np


def exact_binomial_distribution(n: int) -> dict[int, float]:
    """Distribution of n_c - n_d for |n, 0> through a balanced splitter.

    Probabilities C(n, k) / 2^n are dyadic rationals, exact in float64, so
    the returned values carry no rounding error for n <= 50.
    """
    scale = 0.5**n
    dist = {}
    for k in range(n + 1):
        dist[2 * k - n] = math.comb(n, k) * scale
    return dist


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator on a (dim)-dimensional truncated Fock space."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def splitter_unitary_expm(dim: int, theta: float, convention: str) -> np.ndarray:
    """Two-mode splitter unitary via Hermitian eigendecomposition.

    Independent of the package's sector-by-sector construction. Matches the
    creation-operator maps
      symmetric_i: a+ -> cos t c+ + i sin t d+, b+ -> i sin t c+ + cos t d+,
      rotation:    a+ -> cos t c+ - sin t d+,   b+ -> sin t c+ + cos t d+.
    """
    a = np.kron(ladder(dim), np.eye(dim))
    b = np.kron(np.eye(dim), ladder(dim))
    if convention == "symmetric_i":
        # U = exp(i theta (a+ b + a b+))
        h = a.conj().T @ b + a @ b.conj().T
        phase = 1j * theta
    elif convention == "rotation":
        # U = exp(theta (a+ b - a b+)) = exp(i theta * i(a b+ - a+ b))
        h = 1j * (a @ b.conj().T - a.conj().T @ b)
        phase = 1j * theta
    else:
        raise ValueError(convention)
    eigvals, eigvecs = np.linalg.eigh(h)
    return (eigvecs * np.exp(phase * eigvals)) @ eigvecs.conj().T


def _check_expm_convention(dim: int = 4) -> None:
    """Sanity anchor: the expm unitary must realize the stated mode maps."""
    theta = 0.37
    for convention, coeff in (
        ("symmetric_i", (math.cos(theta), 1j * math.sin(theta))),
        ("rotation", (math.cos(theta), -math.sin(theta))),
    ):
        u = splitter_unitary_expm(dim, theta, convention)
        a_dag = np.kron(ladder(dim).conj().T, np.eye(dim))
        b_dag = np.kron(np.eye(dim), ladder(dim).conj().T)
        vac = np.zeros(dim * dim)
        vac[0] = 1.0
        got = u @ (a_dag @ vac)
        want = coeff[0] * (a_dag @ vac) + coeff[1] * (b_dag @ vac)
        assert np.allclose(got, want, atol=1e-12), convention


_check_expm_convention()


def splitter_sector_binomial(mode_map, n: int) -> np.ndarray:
    """Sector n of the two-mode optic a+ -> m00 c+ + m01 d+, b+ -> m10 c+ + m11 d+.

    Entry (j, k) is <j, n-j| U |k, n-k>, read off the binomial expansion of
    (m00 c+ + m01 d+)^k (m10 c+ + m11 d+)^(n-k) |0, 0> / sqrt(k! (n-k)!):
    the term c+^p d+^(k-p) c+^q d+^(n-k-q) lands on |p+q, n-p-q> with weight
    sqrt((p+q)! (n-p-q)!). Plain Python complex arithmetic, exact enough for
    n <= 8.
    """
    (m00, m01), (m10, m11) = (tuple(complex(x) for x in row) for row in mode_map)
    block = np.zeros((n + 1, n + 1), dtype=complex)
    for k in range(n + 1):
        for p in range(k + 1):
            for q in range(n - k + 1):
                j = p + q
                coeff = (math.comb(k, p) * math.comb(n - k, q)
                         * m00**p * m01 ** (k - p) * m10**q * m11 ** (n - k - q))
                block[j, k] += coeff * math.sqrt(
                    math.factorial(j) * math.factorial(n - j)
                    / (math.factorial(k) * math.factorial(n - k))
                )
    return block


def number_difference_variance(probabilities: np.ndarray, dim: int) -> float:
    """Var(n_1 - n_2) from a flat two-mode probability vector."""
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    diff = (n1 - n2).astype(float)
    mean = float(probabilities @ diff)
    return float(probabilities @ diff**2) - mean**2


def twin_fock_output_variance(n: int, convention: str = "symmetric_i") -> float:
    """Brute-force Var(n_c - n_d) for |n, n> through a balanced splitter."""
    dim = 2 * n + 1
    u = splitter_unitary_expm(dim, math.pi / 4, convention)
    state = np.zeros(dim * dim, dtype=complex)
    state[n * dim + n] = 1.0
    out = u @ state
    return number_difference_variance(np.abs(out) ** 2, dim)


def contract_pair_all_sectors(tensor, ax1, ax2, phase_in, blocks, phase_out):
    """The two-mode optic ``fock.pair_unitary`` returns, applied to axes
    ax1, ax2 of a (K, dim, ..., dim) tensor with every one of the dim real
    sector blocks multiplied, occupied or not, as one stacked product.

    The gather, the products and the sums are the same floating-point
    operations in the same order as a rotation restricted to the occupied
    sectors, so the two must agree bit for bit (an empty sector may hold
    -0.0 here).
    """
    dim = tensor.shape[ax1]
    moved = np.moveaxis(tensor, (ax1, ax2), (0, 1))
    rest = moved.shape[2:]
    # sector n holds |k, n-k> in row k, its amplitude times p^(n-k)
    stack = np.zeros((dim, dim) + rest, dtype=complex)
    for n in range(dim):
        k = np.arange(n + 1)
        stack[n, k] = moved[k, n - k] * phase_in[n - k].reshape((-1,) + (1,) * len(rest))
    columns = stack.reshape(dim, dim, -1)
    rotated = (blocks @ columns.view(np.float64)).view(complex).reshape(stack.shape)
    spread = (1,) * len(rest)
    out = np.multiply(moved, phase_in.reshape(dim, *spread), order="C")
    for n in range(dim):
        k = np.arange(n + 1)
        out[k, n - k] = rotated[n, k]
    out *= phase_out.reshape(dim, dim, *spread)
    return np.moveaxis(out, (0, 1), (ax1, ax2))


def pair_overflow_weights(probabilities, dim: int, n_modes: int, pairs) -> list[float]:
    """For each mode pair (i, j) of ``pairs``, the probability on occupations
    whose total in modes i and j exceeds dim - 1, by a walk over the
    occupation basis in C order and an exactly rounded sum."""
    terms = [[] for _ in pairs]
    for flat, occupation in enumerate(np.ndindex(*(dim,) * n_modes)):
        for (i, j), kept in zip(pairs, terms):
            if occupation[i] + occupation[j] >= dim:
                kept.append(probabilities[flat])
    return [math.fsum(kept) for kept in terms]


def port_joint_by_occupation(probabilities, dim: int, ports, port_c, port_d) -> np.ndarray:
    """P[n_c, n_d] by a walk over the occupation basis in C order, adding
    each probability to the cell of its photon numbers summed per port.
    ``ports`` gives the port of each mode; modes on other ports count for
    neither. The additions run in basis order, as a bincount's do."""
    size_c = (dim - 1) * sum(p == port_c for p in ports) + 1
    size_d = (dim - 1) * sum(p == port_d for p in ports) + 1
    joint = np.zeros((size_c, size_d))
    for flat, occupation in enumerate(np.ndindex(*(dim,) * len(ports))):
        n_c = sum(n for n, p in zip(occupation, ports) if p == port_c)
        n_d = sum(n for n, p in zip(occupation, ports) if p == port_d)
        joint[n_c, n_d] += probabilities[flat]
    return joint


def _random_unitary_2x2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _symplectic_from_unitary(u: np.ndarray) -> np.ndarray:
    e, f = u.real, u.imag
    block = np.block([[e, -f], [f, e]])  # ordering (X_a, X_b, P_a, P_b)
    perm = np.array([0, 2, 1, 3])
    return block[np.ix_(perm, perm)]


def _random_symplectic(rng: np.random.Generator, squeeze_max: float = 1.5) -> np.ndarray:
    r = rng.uniform(-squeeze_max, squeeze_max, size=2)
    squeezer = np.diag([np.exp(-r[0]), np.exp(r[0]), np.exp(-r[1]), np.exp(r[1])])
    left = _symplectic_from_unitary(_random_unitary_2x2(rng))
    right = _symplectic_from_unitary(_random_unitary_2x2(rng))
    return left @ squeezer @ right


def random_valid_covariance(
    rng: np.random.Generator, squeeze_max: float = 1.5, noise_scale: float = 0.0
) -> np.ndarray:
    """Random bona fide quantum covariance of (X_a, P_a, X_b, P_b): a
    symplectic image of vacuum, optionally with added classical noise, so
    valid by construction."""
    s = _random_symplectic(rng, squeeze_max)
    cov = 0.5 * s @ s.T
    if noise_scale > 0.0:
        g = rng.normal(scale=noise_scale, size=(4, 4))
        cov = cov + g @ g.T  # classical noise keeps validity
    return cov


def displaced_tmsv(alpha_a: complex, alpha_b: complex, r: float,
                   cutoff: int) -> tuple[np.ndarray, float]:
    """D_a(alpha_a) D_b(alpha_b) exp(r (a+ b+ - a b)) |0, 0> on two modes of
    ``cutoff``: the flat amplitudes, renormalized, and the weight dropped.

    Each factor is ``scipy.linalg.expm`` of its generator on 30 more levels
    per mode than kept: the squeezer on the |n, n> ladder, which it never
    leaves, a displacement per mode. Mean fields (alpha_a, alpha_b),
    covariance :func:`tmsv_covariance`.
    """
    from scipy.linalg import expm

    big = cutoff + 31
    n = np.arange(1, big)
    # (a+ b+ - a b) |n, n> = (n + 1) |n + 1, n + 1> - n |n - 1, n - 1>
    twin = np.diag(expm(r * (np.diag(n, -1) - np.diag(n, 1)))[:, 0])
    a = ladder(big)
    d_a, d_b = (expm(alpha * a.conj().T - np.conj(alpha) * a) for alpha in (alpha_a, alpha_b))
    kept = (d_a @ twin @ d_b.T)[: cutoff + 1, : cutoff + 1]
    weight = float(np.sum(np.abs(kept) ** 2))
    return kept.ravel() / math.sqrt(weight), 1.0 - weight


def tmsv_covariance(r: float) -> np.ndarray:
    """Covariance of (X_a, P_a, X_b, P_b) of exp(r (a+ b+ - a b)) |0, 0>,
    vacuum 1/2: a -> a cosh r + b+ sinh r correlates X_a with X_b and
    anticorrelates P_a with P_b."""
    ch, sh = math.cosh(2.0 * r) / 2.0, math.sinh(2.0 * r) / 2.0
    cov = np.diag([ch, ch, ch, ch])
    cov[0, 2] = cov[2, 0] = sh
    cov[1, 3] = cov[3, 1] = -sh
    return cov


def tmsv_fourth_moment(r: float, mixing_angle: float) -> float:
    """Var(n_c - n_d) of a Gaussian state beyond its linearized part,
    (1/2) Tr(HVHV) + (1/8) Tr(H Omega H Omega) with H the quadratic form of
    n_c - n_d: for the covariance of :func:`tmsv_covariance` through a
    splitter at ``mixing_angle`` t, either convention, sin^2(2t) sinh^2(2r)
    (Isserlis' theorem on the Wigner function plus the ordering term)."""
    return math.sin(2.0 * mixing_angle) ** 2 * math.sinh(2.0 * r) ** 2


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(N > cutoff) for Poisson(mean), by compensated summation."""
    terms = []
    log_term = -mean
    for n in range(cutoff + 1):
        if n > 0:
            log_term += math.log(mean) - math.log(n)
        terms.append(math.exp(log_term))
    return max(0.0, 1.0 - math.fsum(terms))


def csv_table_per_row(columns: dict, comments=(), trailer=()) -> str:
    """The toolkit's CSV table as one ``str.format`` call per row: the first
    column in ``.10g``, the others in ``.12g``, a str column on every row."""
    cells, lists = [], []
    for i, values in enumerate(columns.values()):
        if isinstance(values, str):
            cells.append(values.replace("{", "{{").replace("}", "}}"))
        else:
            cells.append("{:.12g}" if i else "{:.10g}")
            lists.append(np.asarray(values).tolist())
    row = ",".join(cells) + "\n"
    head = "".join(f"# {line}\n" for line in comments) + ",".join(columns) + "\n"
    tail = "".join(f"# {line}\n" for line in trailer)
    return head + "".join(map(row.format, *lists)) + tail


def intensity_db(nu, s0, xi, delta):
    """The intensity-difference model in dBm, in its textbook form."""
    return s0 + 10.0 * np.log10(1.0 - xi / (1.0 + (nu / delta) ** 2))


def bounded_grid_sse(nu, y_db, xi_lo, n_xi, deltas_hz):
    """Smallest dB-space SSE over a grid of xi in [xi_lo, 1] (n_xi points,
    both ends included) and the given deltas, with S0 at its closed-form
    optimum for each (xi, delta): the mean of y_db minus the shape.

    Returns (sse, (s0, xi, delta)) at the best grid point.
    """
    nu = np.asarray(nu, dtype=float)
    y_db = np.asarray(y_db, dtype=float)
    deltas = np.asarray(deltas_hz, dtype=float)
    best = (math.inf, None)
    for xi in np.linspace(xi_lo, 1.0, n_xi):
        shape = intensity_db(nu[None, :], 0.0, xi, deltas[:, None])
        offset = y_db - shape
        s0 = offset.mean(axis=1)
        sse = ((offset - s0[:, None]) ** 2).sum(axis=1)
        i = int(np.argmin(sse))
        if sse[i] < best[0]:
            best = (float(sse[i]), (float(s0[i]), float(xi), float(deltas[i])))
    return best


def initial_guess(nu, y_db):
    """Starting (S0, xi, delta) of the fit, in numpy calls: S0 the median of
    the top quarter, xi from the mean of the first three points clipped to
    [0.05, 0.995], delta where the trace climbs half way back to S0."""
    top = max(1, nu.size // 4)
    s0 = float(np.median(y_db[-top:]))
    depth = 1.0 - 10.0 ** ((float(np.mean(y_db[: min(3, nu.size)])) - s0) / 10.0)
    rel = 10.0 ** ((y_db - s0) / 10.0)
    half_level = 1.0 - depth / 2.0
    above = np.nonzero(rel >= half_level)[0]
    if above.size and above[0] > 0:
        i = above[0]
        frac = (half_level - rel[i - 1]) / max(rel[i] - rel[i - 1], 1e-30)
        delta = float(nu[i - 1] + frac * (nu[i] - nu[i - 1]))
    else:
        delta = float(nu[0] + (nu[-1] - nu[0]) / 3.0)
    return s0, float(np.clip(depth, 0.05, 0.995)), max(delta, 1e-6 * nu[-1])


def residual_and_jacobian_at(nu, y_db, params, weight_space="db"):
    """Residual y - f and the (n, 3) Jacobian df/d(S0, xi, delta) of the
    textbook model at ``params``, in dB or in linear power."""
    log10_scale = 10.0 / math.log(10.0)
    s0, xi, delta = params
    r2 = (nu / delta) ** 2
    g = 1.0 - xi / (1.0 + r2)
    f_db = s0 + 10.0 * np.log10(g)
    jac = np.empty((nu.size, 3))
    jac[:, 0] = 1.0
    jac[:, 1] = -log10_scale / (g * (1.0 + r2))
    jac[:, 2] = -log10_scale * 2.0 * xi * r2 / (g * delta * (1.0 + r2) ** 2)
    if weight_space == "db":
        return y_db - f_db, jac
    f_lin = 10.0 ** (f_db / 10.0)
    return 10.0 ** (y_db / 10.0) - f_lin, jac * (f_lin / log10_scale)[:, None]


def projected_damped_step(jac, res, free, lam):
    """The damped (xi, delta) step with S0 at its closed form, by numpy
    calls: the xi and delta columns of the (n, 3) Jacobian with the S0
    column projected out, damped by lam times their diagonal and solved by
    ``np.linalg.solve`` for the ``free`` columns (1, 2 or both; a held one
    steps 0).

    Returns ((dxi, ddelta), ||r||^2 - ||r - J_p x||^2), the SSE reduction
    that the linearised model predicts.
    """
    s0_col = jac[:, :1]
    projected = jac[:, 1:] - s0_col @ np.linalg.lstsq(s0_col, jac[:, 1:], rcond=None)[0]
    cols = [p - 1 for p in free]
    sub = projected[:, cols]
    normal = sub.T @ sub
    damped = normal + lam * np.diag(np.diagonal(normal))
    step = np.zeros(2)
    step[cols] = np.linalg.solve(damped, sub.T @ res)
    after = res - projected @ step
    return step, float(res @ res - after @ after)


def fit_reference_lm(nu, y_db, weight_space="db", max_iterations=200, tol=1e-12):
    """The damped least-squares loop as it stood before the bounded step:
    a full Jacobian for every candidate, every parameter free on every step
    and xi clamped to [1e-9, 1] afterwards. ``nu`` must increase.

    Returns (params, sse in the weight space, iterations); raises
    RuntimeError when max_iterations run out.
    """
    nu = np.asarray(nu, dtype=float)
    y_db = np.asarray(y_db, dtype=float)
    delta_floor = 1e-9 * float(nu[-1])

    def clamp(params):
        s0, xi, delta = params
        return np.array([s0, min(max(xi, 1e-9), 1.0), max(abs(delta), delta_floor)])

    params = clamp(initial_guess(nu, y_db))

    res, jac = residual_and_jacobian_at(nu, y_db, params, weight_space)
    sse = float(res @ res)
    lam = 1e-3
    for iterations in range(1, max_iterations + 1):
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + lam * np.diag(np.diagonal(jtj)), jac.T @ res)
        candidate = clamp(params + step)
        cand_res, cand_jac = residual_and_jacobian_at(nu, y_db, candidate, weight_space)
        cand_sse = float(cand_res @ cand_res)
        if cand_sse <= sse:
            improvement = sse - cand_sse
            params, res, jac, sse = candidate, cand_res, cand_jac, cand_sse
            lam = max(lam / 10.0, 1e-15)
            if improvement <= tol * max(sse, 1e-30) or sse < 1e-28:
                return params, sse, iterations
        else:
            lam *= 10.0
            if lam > 1e15:
                return params, sse, iterations
    raise RuntimeError(f"no convergence after {max_iterations} iterations")
