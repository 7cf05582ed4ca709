"""Independent reference computations for the test suite.

These deliberately avoid the package's combinatorial kernels: the splitter
unitary is built here from ladder-operator matrices and an eigendecomposition
exponential, distributions from exact dyadic binomials, and Poisson tails
from compensated summation.
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
