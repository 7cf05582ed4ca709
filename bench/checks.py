"""Independent reference computations and output checks.

Nothing here imports twinbeam. Model curves come from their closed forms,
fits are redone with a bounded ``scipy.optimize.least_squares``, and Fock
statistics come from binomials or from a splitter unitary built out of
ladder operators and a Hermitian eigendecomposition. Every check raises
:class:`CheckFailed` on a wrong answer, so a check that cannot fail is
caught by ``test_checks.py``.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass

import numpy as np

#: Default fit window and spur exclusion of the CLI (README "Physical defaults").
FIT_WINDOW_HZ = (2.0e6, np.inf)
EXCLUSIONS_HZ = ((3.8e6, 4.0e6),)

#: Values printed by the CLI with 12 significant digits round at ~5e-13
#: relative; dBm levels near -80 are then good to ~1e-10 absolute.
PRINTED_DBM_TOL = 1e-9
PRINTED_REL_TOL = 1e-11

#: Fock checks: norm and Var(n_c - n_d) against closed forms, and bins.
FOCK_TOL = 1e-11
BIN_TOL = 1e-12

_LOG10_SCALE = 10.0 / math.log(10.0)


class CheckFailed(Exception):
    """An operation's output disagrees with the independent computation."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def require_close(name: str, got, want, atol: float, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    require(got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}")
    err = np.abs(got - want)
    bound = atol + rtol * np.abs(want)
    if not np.all(err <= bound):
        worst = int(np.argmax(err - bound))
        raise CheckFailed(
            f"{name}: |{got.flat[worst]!r} - {want.flat[worst]!r}| = {err.flat[worst]:.3g} "
            f"> {bound.flat[worst]:.3g}"
        )


# ---------------------------------------------------------------------------
# Spectra in closed form (cancellation-free intensity form)
# ---------------------------------------------------------------------------


def intensity_rel(u, xi):
    u2 = np.asarray(u, dtype=float) ** 2
    return ((1.0 - xi) + u2) / (1.0 + u2)


def phase_rel(u, xi):
    return 1.0 + xi / np.asarray(u, dtype=float) ** 2


def intensity_dbm(nu, s0, xi, delta):
    return s0 + 10.0 * np.log10(intensity_rel(np.asarray(nu) / delta, xi))


def phase_dbm(nu, s0, xi, delta):
    return s0 + 10.0 * np.log10(phase_rel(np.asarray(nu) / delta, xi))


def dbm_to_mw(p_dbm):
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0)


def read_csv_table(text: str, header: str) -> np.ndarray:
    """Numeric rows of a CSV text after '#' lines and the expected header."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    require(lines and lines[0].strip() == header, f"header {lines[:1]!r} != {header!r}")
    return np.loadtxt(io.StringIO("\n".join(lines[1:])), delimiter=",", ndmin=2)


def check_model_csv(text: str, nu, s0, xi, delta) -> None:
    """`synth` output without noise: the intensity model on the grid."""
    rows = read_csv_table(text, "frequency_hz,power_dbm")
    require(rows.shape == (len(nu), 2), f"rows {rows.shape} != ({len(nu)}, 2)")
    require_close("frequency_hz", rows[:, 0], nu, atol=0.0, rtol=PRINTED_REL_TOL)
    require_close("power_dbm", rows[:, 1], intensity_dbm(nu, s0, xi, delta), atol=PRINTED_DBM_TOL)


def check_noisy_model_csv(text: str, nu, s0, xi, delta, noise_db: float) -> None:
    """`synth --noise-db`: residuals against the model have zero mean and the
    requested spread. Bounds sit at about nine standard errors."""
    rows = read_csv_table(text, "frequency_hz,power_dbm")
    require(rows.shape == (len(nu), 2), f"rows {rows.shape} != ({len(nu)}, 2)")
    require_close("frequency_hz", rows[:, 0], nu, atol=0.0, rtol=PRINTED_REL_TOL)
    resid = rows[:, 1] - intensity_dbm(nu, s0, xi, delta)
    n = resid.size
    require(abs(resid.mean()) <= 9.0 * noise_db / math.sqrt(n),
            f"residual mean {resid.mean():.3g} dB off zero")
    require(abs(resid.std() / noise_db - 1.0) <= 9.0 / math.sqrt(2.0 * n),
            f"residual spread {resid.std():.4g} dB != {noise_db} dB")


def check_spectra_csv(text: str, nu, s0, xi, delta) -> None:
    """`spectra --which both`: intensity, phase and shot-noise columns."""
    rows = read_csv_table(text, "frequency_hz,intensity_dbm,phase_dbm,shot_noise_dbm")
    require(rows.shape == (len(nu), 4), f"rows {rows.shape} != ({len(nu)}, 4)")
    require_close("frequency_hz", rows[:, 0], nu, atol=0.0, rtol=PRINTED_REL_TOL)
    require_close("intensity_dbm", rows[:, 1], intensity_dbm(nu, s0, xi, delta), PRINTED_DBM_TOL)
    require_close("phase_dbm", rows[:, 2], phase_dbm(nu, s0, xi, delta), PRINTED_DBM_TOL)
    require_close("shot_noise_dbm", rows[:, 3], np.full(len(nu), s0), PRINTED_DBM_TOL)


def check_uncertainty_csv(text: str, u, xi) -> None:
    """The product of the two spectra is >= 1 and equals 1 + excess, with
    excess = xi (1 - xi) / (u^2 (1 + u^2))."""
    rows = read_csv_table(text, "u,s_intensity,s_phase,product,excess_over_1")
    require(rows.shape == (len(u), 5), f"rows {rows.shape} != ({len(u)}, 5)")
    u = np.asarray(u, dtype=float)
    excess = xi * (1.0 - xi) / (u**2 * (1.0 + u**2))
    require_close("excess_over_1", rows[:, 4], excess, atol=0.0, rtol=PRINTED_REL_TOL)
    require_close("product", rows[:, 3], 1.0 + excess, atol=0.0, rtol=PRINTED_REL_TOL)
    require(np.all(rows[:, 3] >= 1.0 - PRINTED_REL_TOL), f"product below 1: {rows[:, 3].min()!r}")


def check_limits_csv(text: str, n_max: int) -> None:
    rows = read_csv_table(text, "n,dn_minus_single,dn_minus_twin,sqrt_n_reference,n_reference")
    n = np.arange(n_max + 1, dtype=float)
    require(rows.shape == (n_max + 1, 5), f"rows {rows.shape} != ({n_max + 1}, 5)")
    require_close("n", rows[:, 0], n, atol=0.0)
    require_close("dn_minus_single", rows[:, 1], np.sqrt(n), PRINTED_REL_TOL, PRINTED_REL_TOL)
    require_close("dn_minus_twin", rows[:, 2], np.sqrt(2.0 * n * (n + 1.0)),
                  PRINTED_REL_TOL, PRINTED_REL_TOL)


def check_hom_json(text: str, distinguishable: bool) -> None:
    """|1,1>: coincidence 0 and dN 2 when indistinguishable, 1/2 and sqrt(2)
    when the beams carry different frequency tags."""
    report = json.loads(text)
    want_c, want_dn = (0.5, math.sqrt(2.0)) if distinguishable else (0.0, 2.0)
    require_close("coincidence_probability", report["coincidence_probability"], want_c, 1e-12)
    require_close("dn_minus", report["dn_minus"], want_dn, 1e-12)
    want = convolve(binomial_difference(1), binomial_difference(1)) if distinguishable \
        else {-2: 0.5, 2: 0.5}
    check_distribution({int(k): v for k, v in report["distribution"].items()}, want, 1e-12)


# ---------------------------------------------------------------------------
# Fits: bounded least squares on the same windowed points
# ---------------------------------------------------------------------------


def window_mask(nu) -> np.ndarray:
    nu = np.asarray(nu)
    mask = (nu >= FIT_WINDOW_HZ[0]) & (nu <= FIT_WINDOW_HZ[1])
    for lo, hi in EXCLUSIONS_HZ:
        mask &= ~((nu >= lo) & (nu <= hi))
    return mask


def subtract_floor(nu, y_db, floor_nu, floor_db):
    """Linear-power floor subtraction; points at or under the floor go."""
    corrected = dbm_to_mw(y_db) - np.interp(nu, floor_nu, dbm_to_mw(floor_db))
    keep = corrected > 0.0
    return np.asarray(nu)[keep], 10.0 * np.log10(corrected[keep])


def _residuals(params, nu, y_db, weight_space, scale_mw):
    s0, xi, delta = params
    f_db = intensity_dbm(nu, s0, xi, delta)
    if weight_space == "db":
        return y_db - f_db
    return (dbm_to_mw(y_db) - dbm_to_mw(f_db)) / scale_mw


def _jacobian(params, nu, y_db, weight_space, scale_mw):
    s0, xi, delta = params
    r2 = (nu / delta) ** 2
    g = intensity_rel(nu / delta, xi)
    jac = np.empty((nu.size, 3))
    jac[:, 0] = 1.0
    jac[:, 1] = -_LOG10_SCALE / (g * (1.0 + r2))
    jac[:, 2] = -_LOG10_SCALE * 2.0 * xi * r2 / (g * delta * (1.0 + r2) ** 2)
    if weight_space == "linear":
        jac *= (dbm_to_mw(intensity_dbm(nu, s0, xi, delta)) / (_LOG10_SCALE * scale_mw))[:, None]
    return -jac


@dataclass(frozen=True)
class FitReference:
    """A fit problem (windowed points, residual space) and its scipy optimum.

    Linear-space residuals are divided by the mean power, which leaves the
    optimum where it is but keeps scipy's absolute tolerances meaningful
    for powers of order 1e-9 mW.
    """

    nu: np.ndarray
    y_db: np.ndarray
    weight_space: str
    scale_mw: float
    params: tuple
    truth: tuple | None = None  # set for noise-free traces

    def sse_at(self, params) -> float:
        r = _residuals(params, self.nu, self.y_db, self.weight_space, self.scale_mw)
        return float(r @ r)

    @property
    def sse(self) -> float:
        return self.sse_at(self.params)


def reference_fit(nu, y_db, weight_space, start, floor=None, noise_free=False) -> FitReference:
    """Bounded least squares from the true parameters on the points the
    program fits: floor-subtracted, then windowed with the CLI defaults."""
    from scipy.optimize import least_squares

    nu, y_db = np.asarray(nu, dtype=float), np.asarray(y_db, dtype=float)
    if floor is not None:
        nu, y_db = subtract_floor(nu, y_db, *floor)
    mask = window_mask(nu)
    nu, y_db = nu[mask], y_db[mask]
    scale_mw = float(np.mean(dbm_to_mw(y_db)))
    sol = least_squares(
        _residuals, np.asarray(start, dtype=float), jac=_jacobian,
        bounds=([-np.inf, 1e-9, 1e-9 * nu[-1]], [np.inf, 1.0, np.inf]),
        x_scale="jac", xtol=1e-15, ftol=1e-15, gtol=1e-15, max_nfev=2000,
        args=(nu, y_db, weight_space, scale_mw),
    )
    truth = tuple(float(v) for v in start) if noise_free else None
    return FitReference(nu, y_db, weight_space, scale_mw, tuple(float(v) for v in sol.x), truth)


def check_fit(params, ref: FitReference) -> None:
    """The program's SSE is no larger than scipy's (to rounding), and a
    noise-free trace gives back the true (S0, xi, delta) to 1e-6."""
    sse = ref.sse_at(params)
    slack = 1e-9 * ref.sse + 1e-16 * ref.nu.size
    require(sse <= ref.sse + slack,
            f"fit SSE {sse:.10g} above the bounded least-squares SSE {ref.sse:.10g}")
    if ref.truth is not None:
        s0, xi, delta = params
        t_s0, t_xi, t_delta = ref.truth
        require(abs(s0 - t_s0) <= 1e-6 and abs(xi - t_xi) <= 1e-6
                and abs(delta / t_delta - 1.0) <= 1e-6,
                f"noise-free fit {params} misses the truth {ref.truth}")


def check_phase_curve(nu_got, values_dbm, nu_want, params) -> None:
    s0, xi, delta = params
    require_close("phase frequencies", nu_got, nu_want, atol=0.0, rtol=PRINTED_REL_TOL)
    require_close("phase_dbm", values_dbm, phase_dbm(nu_want, s0, xi, delta), PRINTED_DBM_TOL)


def check_phase_csv(path, nu_trace, params) -> None:
    """The phase prediction re-read with numpy.loadtxt: one row per f > 0
    trace point, values s0 + 10 log10(1 + xi/u^2) from the fitted numbers."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
    nu_pos = np.asarray(nu_trace)[np.asarray(nu_trace) > 0.0]
    require(rows.shape[0] == nu_pos.size, f"{rows.shape[0]} phase rows, want {nu_pos.size}")
    check_phase_curve(rows[:, 0], rows[:, 1], nu_pos, params)


def check_squeezing(raw_db, corrected_db, bandwidth_hz, params, floor_mean_mw=None) -> None:
    """Squeezing extrapolated to dc: 10 log10(1 - xi); the corrected level
    takes the mean floor power over the trace span off in linear power."""
    s0, xi, delta = params
    require(xi < 1.0, "complete correlation is not expected for these traces")
    require_close("squeezing_raw_db", raw_db, 10.0 * math.log10(1.0 - xi), 1e-12, 1e-12)
    require_close("squeezing_bandwidth_hz", bandwidth_hz, delta, 0.0, 1e-15)
    if floor_mean_mw is None:
        require(corrected_db is None, f"corrected squeezing {corrected_db} without a floor")
        return
    net = (1.0 - xi) - floor_mean_mw / 10.0 ** (s0 / 10.0)
    require(net > 0.0 and corrected_db is not None, "floor at the squeezed level")
    require_close("squeezing_corrected_db", corrected_db, 10.0 * math.log10(net), 1e-9)


# ---------------------------------------------------------------------------
# Fock statistics: binomials and a ladder-operator splitter
# ---------------------------------------------------------------------------


def binomial_difference(n: int) -> dict[int, float]:
    """n_c - n_d for |n, 0> through a balanced splitter: C(n, k) / 2^n,
    dyadic rationals exact in float64."""
    return {2 * k - n: math.comb(n, k) * 0.5**n for k in range(n + 1)}


def convolve(d1: dict, d2: dict) -> dict:
    out: dict = {}
    for a, pa in d1.items():
        for b, pb in d2.items():
            out[a + b] = out.get(a + b, 0.0) + pa * pb
    return out


def check_distribution(got: dict, want: dict, atol: float = BIN_TOL) -> None:
    """Bins agree to atol; a bin on either side only must be below atol."""
    for key in set(got) | set(want):
        g, w = got.get(key, 0.0), want.get(key, 0.0)
        require(abs(g - w) <= atol, f"bin {key}: {g!r} != {w!r}")


def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1).astype(complex)


def splitter_unitary(dim: int, theta: float, convention: str) -> np.ndarray:
    """exp(i theta (a+b + ab+)) for symmetric_i, exp(theta (a+b - ab+)) for
    rotation, on the dim x dim two-mode space, via eigh."""
    a = np.kron(_ladder(dim), np.eye(dim))
    b = np.kron(np.eye(dim), _ladder(dim))
    ad_b = a.conj().T @ b
    if convention == "symmetric_i":
        h = ad_b + ad_b.conj().T
    elif convention == "rotation":
        h = 1j * (ad_b.conj().T - ad_b)
    else:
        raise ValueError(convention)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * theta * w)) @ v.conj().T


def pair_joint(n_a: int, n_b: int, convention: str) -> dict[tuple[int, int], float]:
    """Joint (n_c, n_d) law of |n_a, n_b> through a balanced splitter."""
    dim = n_a + n_b + 1
    state = np.zeros(dim * dim, dtype=complex)
    state[n_a * dim + n_b] = 1.0
    probs = np.abs(splitter_unitary(dim, math.pi / 4, convention) @ state) ** 2
    out: dict = {}
    for flat, p in enumerate(probs):
        if n_a + n_b == sum(divmod(flat, dim)):
            out[divmod(flat, dim)] = float(p)
    return out


def distinguishable_joint(n_a: int, n_b: int) -> dict[tuple[int, int], float]:
    """Each beam splits against its own vacuum partner: product of binomials."""
    out: dict = {}
    for ka in range(n_a + 1):
        for kb in range(n_b + 1):
            key = (ka + kb, n_a + n_b - ka - kb)
            p = math.comb(n_a, ka) * math.comb(n_b, kb) * 0.5 ** (n_a + n_b)
            out[key] = out.get(key, 0.0) + p
    return out


def difference_law(joint: dict) -> dict[int, float]:
    out: dict = {}
    for (nc, nd), p in joint.items():
        out[nc - nd] = out.get(nc - nd, 0.0) + p
    return out


def coincidence_of(joint: dict) -> float:
    return math.fsum(p for (nc, nd), p in joint.items() if nc >= 1 and nd >= 1)


def moments(dist: dict) -> tuple[float, float]:
    mean = math.fsum(k * p for k, p in dist.items())
    return mean, math.fsum(k * k * p for k, p in dist.items()) - mean**2


def check_state_norm(amplitudes) -> None:
    a = np.asarray(amplitudes)
    norm = float(np.real(np.trace(a))) if a.ndim == 2 else float(np.vdot(a, a).real)
    require(abs(norm - 1.0) <= FOCK_TOL, f"output norm off by {abs(norm - 1.0):.3g}")


def check_twin_fock(n: int, distribution: dict, variance: float, coincidence: float) -> None:
    """|N,N> through a balanced splitter: only even n_c, Var = 2N(N+1), and
    P(all 2N photons in one port) = C(2N, N) / 4^N."""
    odd = math.fsum(p for d, p in distribution.items() if d % 2 or (d // 2 + n) % 2)
    require(odd <= FOCK_TOL, f"odd n_c carries probability {odd:.3g}")
    want_var = 2.0 * n * (n + 1)
    require(abs(variance - want_var) <= FOCK_TOL * want_var,
            f"Var {variance!r} != 2N(N+1) = {want_var} (rel {abs(variance / want_var - 1):.3g})")
    want_c = 1.0 - 2.0 * math.comb(2 * n, n) / 4.0**n
    require_close("twin coincidence", coincidence, want_c, FOCK_TOL)


def check_single_port_fock(n: int, distribution: dict, variance: float, coincidence: float) -> None:
    """|N,0>: the dyadic binomial law, Var = N, coincidence 1 - 2^(1-N)."""
    check_distribution(distribution, binomial_difference(n))
    require_close("Var", variance, float(n), FOCK_TOL * n)
    require_close("coincidence", coincidence, 1.0 - 2.0 ** (1 - n), FOCK_TOL)


def check_coherent_cross_check(alpha, exact, linearized, leakage, cutoff) -> None:
    """A coherent pair stays coherent through any plate: Var(n_c - n_d) =
    2|alpha|^2 exactly, up to the truncation the state reports. The
    renormalised truncated Poisson moves the variance by at most about
    cutoff^2 times the leakage."""
    want = 2.0 * abs(alpha) ** 2
    tol = 1e-12 + 4.0 * (cutoff + 1) ** 2 * leakage
    require(leakage <= 1e-8, f"truncation leakage {leakage:.3g} too large")
    for std in exact:
        require(abs(std**2 - want) <= tol * want, f"exact Var {std**2!r} != 2|alpha|^2 = {want!r}")
    require_close("linearized std", linearized, np.full(len(linearized), math.sqrt(want)),
                  0.0, 1e-12)


def check_twin_mixture(weights, variance: float, mean: float, coincidence: float) -> None:
    """sum_n w_n |n,n><n,n| through the splitter: Var = sum w_n 2n(n+1) and
    coincidence sum w_n (1 - 2 C(2n, n)/4^n) for n >= 1."""
    n = np.arange(len(weights))
    want_var = float(np.dot(weights, 2.0 * n * (n + 1)))
    require_close("mixture Var", variance, want_var, FOCK_TOL * max(want_var, 1.0))
    require_close("mixture mean", mean, 0.0, FOCK_TOL)
    want_c = math.fsum(w * (1.0 - 2.0 * math.comb(2 * k, k) / 4.0**k)
                       for k, w in enumerate(weights) if k >= 1)
    require_close("mixture coincidence", coincidence, want_c, FOCK_TOL)


def poisson_tail(mean: float, cutoff: int) -> float:
    """P(N > cutoff) for N ~ Poisson(mean): for a coherent pair, the weight
    of the pair total that a splitter truncated at the cutoff cannot scatter."""
    return max(0.0, 1.0 - math.fsum(math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
                                    for n in range(cutoff + 1)))
