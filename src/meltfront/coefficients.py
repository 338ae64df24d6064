"""Dimensional thermal coefficients and their dimensionless reduction.

The solver consumes three functions of the scaled temperature f in [0, 1]:
the conductivity ratio L*(f), the volumetric heat-capacity ratio N*(f) and
the convection amplitude mu*(f), together with the parameter set matching
the boundary condition in play (Ste, or q* and M, or Bi, or Bi and r).
This module builds those from dimensional material data: two built-in
coefficient families (constant and linear-in-temperature), or tabulated
coefficients read from CSV and interpolated piecewise-linearly.

Scaled temperature map (:func:`temperature_of_f`, shared with the
reconstruction of physical fields):

* Dirichlet / Robin / radiative:  T(f) = (T_m - T_star) * f + T_star
* Neumann:                        T(f) = T_m * (1 + f)

so f = 0 at the fixed face and f = 1 at the melt front for the first group,
while the Neumann profile is anchored by f = 0 at the front.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "BCKind",
    "CoefficientBounds",
    "ThermalModel",
    "Dirichlet",
    "Neumann",
    "Robin",
    "Radiative",
    "BoundaryCondition",
    "DimensionlessProblem",
    "temperature_of_f",
    "constant_model",
    "linear_model",
    "table_model",
    "load_coefficient_table",
    "estimate_bounds",
    "build_dimensionless",
    "constant_problem",
    "linear_problem",
]


class BCKind(str, Enum):
    """Boundary-condition families at the fixed face."""

    DIRICHLET = "dirichlet"
    NEUMANN = "neumann"
    ROBIN = "robin"
    RADIATIVE = "radiative"


def eval_coefficient(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient callable on an array, tolerating scalar-only callables."""
    x = np.asarray(x, dtype=float)
    try:
        y = np.asarray(fn(x), dtype=float)
        if y.shape == x.shape:
            return y
    except (TypeError, ValueError):
        pass
    return np.fromiter((float(fn(v)) for v in x.ravel()), dtype=float, count=x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# dimensional data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientBounds:
    """Bounds and Lipschitz constants of k, rho*c and mu over the working temperature range.

    ``certified`` is True for bounds that hold analytically for the family;
    sampled estimates (see :func:`estimate_bounds`) set it to False, which
    downgrades any existence certificate built on top of them.
    """

    k_m: float
    k_M: float
    k_tilde: float
    gamma_m: float
    gamma_M: float
    gamma_tilde: float
    nu_m: float
    nu_M: float
    nu_tilde: float
    certified: bool = True

    def __post_init__(self):
        if not (0.0 < self.k_m <= self.k_M):
            raise ConfigError(f"conductivity bounds must satisfy 0 < k_m <= k_M, got [{self.k_m}, {self.k_M}]")
        if not (0.0 < self.gamma_m <= self.gamma_M):
            raise ConfigError(
                f"heat-capacity bounds must satisfy 0 < gamma_m <= gamma_M, got [{self.gamma_m}, {self.gamma_M}]"
            )
        if not (0.0 <= self.nu_m <= self.nu_M):
            raise ConfigError(f"convection bounds must satisfy 0 <= nu_m <= nu_M, got [{self.nu_m}, {self.nu_M}]")
        for name in ("k_tilde", "gamma_tilde", "nu_tilde"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ThermalModel:
    """Dimensional material description.

    Attributes
    ----------
    k, rho_c, mu : callables of temperature
        Thermal conductivity, volumetric heat capacity rho(T)*c(T), and the
        convection amplitude mu(T) (the material moves with speed
        v(T) = mu(T)/sqrt(t)).
    k0, rho0, c0 : floats
        Reference conductivity, density and specific heat; alpha0 = k0/(rho0*c0).
    ell : float
        Latent heat per unit mass.
    bounds : CoefficientBounds, optional
        Bounds over the working temperature range.  When absent they are
        estimated by sampling at build time.
    """

    k: Callable
    rho_c: Callable
    mu: Callable
    k0: float
    rho0: float
    c0: float
    ell: float
    bounds: CoefficientBounds | None = None

    def __post_init__(self):
        _check_reference(self.k0, self.rho0, self.c0, self.ell)

    @property
    def alpha0(self) -> float:
        return self.k0 / (self.rho0 * self.c0)


def _check_reference(k0: float, rho0: float, c0: float, ell: float) -> None:
    for name, v in (("k0", k0), ("rho0", rho0), ("c0", c0), ("ell", ell)):
        if not (np.isfinite(v) and v > 0.0):
            raise ConfigError(f"reference constant {name} must be a positive finite real, got {v!r}")


def constant_model(k0: float, rho0: float, c0: float, ell: float, Pe: float = 0.0) -> ThermalModel:
    """Constant-coefficient material: k = k0, rho*c = rho0*c0, mu = rho0*c0*sqrt(alpha0)*Pe."""
    _check_reference(k0, rho0, c0, ell)
    if Pe < 0.0:
        raise ConfigError(f"Pe must be non-negative, got {Pe}")
    alpha0 = k0 / (rho0 * c0)
    nu = rho0 * c0 * math.sqrt(alpha0) * Pe
    gamma0 = rho0 * c0

    def _const(value):
        return lambda T: np.full_like(np.asarray(T, dtype=float), value)

    bounds = CoefficientBounds(k0, k0, 0.0, gamma0, gamma0, 0.0, nu, nu, 0.0)
    return ThermalModel(_const(k0), _const(gamma0), _const(nu), k0, rho0, c0, ell, bounds)


def linear_model(
    k0: float,
    rho0: float,
    c0: float,
    ell: float,
    alpha: float,
    beta: float,
    Pe: float,
    T_star: float,
    T_m: float,
) -> ThermalModel:
    """Linear-in-temperature family.

    k(T) = k0 * (1 + beta * (T - T_star)/(T_m - T_star)),
    c(T) = c0 * (1 + alpha * (T - T_star)/(T_m - T_star)),  rho = rho0,
    mu(T) = rho0 * c(T) * sqrt(alpha0) * Pe.

    With the Dirichlet-type scaled temperature this composes to
    L*(f) = 1 + beta f, N*(f) = 1 + alpha f, mu*(f) = Pe (1 + alpha f),
    and the bounds below are exact on f in [0, 1].
    """
    if alpha < 0.0 or beta < 0.0 or Pe < 0.0:
        raise ConfigError("alpha, beta and Pe must be non-negative")
    _check_reference(k0, rho0, c0, ell)
    if not T_star > T_m:
        raise ConfigError(f"linear family requires T_star > T_m, got T_star={T_star}, T_m={T_m}")
    alpha0 = k0 / (rho0 * c0)
    gamma0 = rho0 * c0
    span = T_star - T_m
    nu_scale = gamma0 * math.sqrt(alpha0) * Pe

    def theta(T):
        return (np.asarray(T, dtype=float) - T_star) / (T_m - T_star)

    k = lambda T: k0 * (1.0 + beta * theta(T))
    rho_c = lambda T: gamma0 * (1.0 + alpha * theta(T))
    mu = lambda T: nu_scale * (1.0 + alpha * theta(T))

    bounds = CoefficientBounds(
        k_m=k0,
        k_M=k0 * (1.0 + beta),
        k_tilde=k0 * beta / span,
        gamma_m=gamma0,
        gamma_M=gamma0 * (1.0 + alpha),
        gamma_tilde=gamma0 * alpha / span,
        nu_m=nu_scale,
        nu_M=nu_scale * (1.0 + alpha),
        nu_tilde=nu_scale * alpha / span,
    )
    return ThermalModel(k, rho_c, mu, k0, rho0, c0, ell, bounds)


def load_coefficient_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a coefficient table CSV with header ``T,k,rho_c,mu`` and strictly increasing T."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"coefficient table {path} does not exist or is not a file")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"coefficient table {path} is empty") from None
        if [h.strip() for h in header] != ["T", "k", "rho_c", "mu"]:
            raise ConfigError(f"coefficient table {path} must have header 'T,k,rho_c,mu', got {header!r}")
        rows = []
        for row in reader:
            if not row:
                continue
            where = f"coefficient table {path} line {reader.line_num}"
            if len(row) != 4:
                raise ConfigError(f"{where}: expected 4 cells, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise ConfigError(f"{where}: non-numeric cell in {row!r}") from None
    if len(rows) < 2:
        raise ConfigError(f"coefficient table {path} needs at least two rows")
    data = np.asarray(rows, dtype=float)
    T = data[:, 0]
    if np.any(np.diff(T) <= 0.0):
        raise ConfigError(f"coefficient table {path} must have a strictly increasing T column")
    return {"T": T, "k": data[:, 1], "rho_c": data[:, 2], "mu": data[:, 3]}


def table_model(
    T: np.ndarray,
    k: np.ndarray,
    rho_c: np.ndarray,
    mu: np.ndarray,
    k0: float,
    rho0: float,
    c0: float,
    ell: float,
) -> ThermalModel:
    """Material from tabulated coefficients, interpolated piecewise-linearly.

    np.interp clamps outside the table range, so evaluations beyond the last
    node stay bounded.  Bounds are left unset; they are estimated by sampling
    when the dimensionless problem is built, which marks any certificate as
    heuristic.
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 1 or T.size < 2 or np.any(np.diff(T) <= 0.0):
        raise ConfigError("table T column must be 1-d, length >= 2 and strictly increasing")
    cols = {}
    for name, col in (("k", k), ("rho_c", rho_c), ("mu", mu)):
        col = np.asarray(col, dtype=float)
        if col.shape != T.shape:
            raise ConfigError(f"table column {name} must match T in length")
        if not np.all(np.isfinite(col)):
            raise ConfigError(f"table column {name} contains non-finite values")
        if name != "mu" and np.any(col <= 0.0):
            raise ConfigError(f"table column {name} must be strictly positive")
        if name == "mu" and np.any(col < 0.0):
            raise ConfigError("table column mu must be non-negative")
        cols[name] = col

    def interp(col):
        return lambda x: np.interp(np.asarray(x, dtype=float), T, col)

    return ThermalModel(interp(cols["k"]), interp(cols["rho_c"]), interp(cols["mu"]), k0, rho0, c0, ell)


def table_model_from_csv(path: str | Path, k0: float, rho0: float, c0: float, ell: float) -> ThermalModel:
    t = load_coefficient_table(path)
    return table_model(t["T"], t["k"], t["rho_c"], t["mu"], k0, rho0, c0, ell)


def estimate_bounds(model: ThermalModel, T_range: tuple[float, float], samples: int = 257) -> CoefficientBounds:
    """Sampled bounds: min/max over a uniform sample set plus a max-slope Lipschitz estimate.

    The result is flagged as sampled (``certified=False``), not analytically
    certified.
    """
    lo, hi = float(T_range[0]), float(T_range[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ConfigError(f"temperature range must be a non-degenerate interval, got ({lo}, {hi})")
    if samples < 2:
        raise ConfigError("need at least 2 samples to estimate bounds")
    Ts = np.linspace(lo, hi, samples)
    dT = Ts[1] - Ts[0]

    def scan(fn, name, allow_zero):
        vals = eval_coefficient(fn, Ts)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"coefficient {name} returned a non-finite value on [{lo}, {hi}]")
        if allow_zero:
            if np.any(vals < 0.0):
                raise ConfigError(f"coefficient {name} returned a negative value on [{lo}, {hi}]")
        elif np.any(vals <= 0.0):
            raise ConfigError(f"coefficient {name} returned a non-positive value on [{lo}, {hi}]")
        slope = float(np.max(np.abs(np.diff(vals)))) / dT
        return float(np.min(vals)), float(np.max(vals)), slope

    k_m, k_M, k_t = scan(model.k, "k", allow_zero=False)
    g_m, g_M, g_t = scan(model.rho_c, "rho_c", allow_zero=False)
    n_m, n_M, n_t = scan(model.mu, "mu", allow_zero=True)
    return CoefficientBounds(k_m, k_M, k_t, g_m, g_M, g_t, n_m, n_M, n_t, certified=False)


# ---------------------------------------------------------------------------
# boundary conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dirichlet:
    """Imposed temperature T_star > T_m at the fixed face."""

    T_star: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.DIRICHLET

    def __post_init__(self):
        if not self.T_star > self.T_m:
            raise ConfigError(f"Dirichlet requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")


@dataclass(frozen=True)
class Neumann:
    """Prescribed inward flux q/sqrt(t) > 0 at the fixed face."""

    q: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.NEUMANN

    def __post_init__(self):
        if not self.q > 0.0:
            raise ConfigError(f"Neumann requires q > 0, got {self.q}")


@dataclass(frozen=True)
class Robin:
    """Convective heat transfer h/sqrt(t) toward bulk temperature T_star > T_m."""

    h: float
    T_star: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.ROBIN

    def __post_init__(self):
        if self.h < 0.0:
            raise ConfigError(f"Robin requires h >= 0, got {self.h}")
        if not self.T_star > self.T_m:
            raise ConfigError(f"Robin requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")


@dataclass(frozen=True)
class Radiative:
    """Convective plus fourth-power radiative exchange with the bulk at T_star.

    epsilon = 0 is allowed: the radiative route then degenerates exactly to
    the Robin condition, which is a useful consistency check.
    """

    h: float
    sigma: float
    epsilon: float
    T_star: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.RADIATIVE

    def __post_init__(self):
        if self.h < 0.0:
            raise ConfigError(f"Radiative requires h >= 0, got {self.h}")
        if not self.sigma > 0.0:
            raise ConfigError(f"Radiative requires sigma > 0, got {self.sigma}")
        if self.epsilon < 0.0:
            raise ConfigError(f"Radiative requires epsilon >= 0, got {self.epsilon}")
        if not self.T_star > self.T_m:
            raise ConfigError(f"Radiative requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")


BoundaryCondition = Union[Dirichlet, Neumann, Robin, Radiative]


def temperature_of_f(bc: BoundaryCondition, f):
    """Temperature at scaled temperature f (scalar or array) under ``bc``'s map."""
    f = np.asarray(f, dtype=float)
    if bc.kind is BCKind.NEUMANN:
        return bc.T_m * (1.0 + f)
    return (bc.T_m - bc.T_star) * f + bc.T_star


# ---------------------------------------------------------------------------
# dimensionless problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionlessProblem:
    """Everything the similarity solver needs for one boundary-condition kind.

    The functions take the scaled temperature f (scalar or array) and return
    positive values.  The nine constants bound them on f in [0, 1]:
    L_m <= L*(f) <= L_M with Lipschitz constant L_tilde, and likewise for
    N* and mu*.  Parameters not used by ``bc_kind`` are None.  The bounds
    and the parameters in use must be finite.  A radiative problem needs
    ``T_star`` and ``T_m`` for the fourth-power term: T_star^4 and D5 must
    be finite.
    """

    L_star: Callable
    N_star: Callable
    mu_star: Callable
    L_m: float
    L_M: float
    L_tilde: float
    N_m: float
    N_M: float
    N_tilde: float
    mu_m: float
    mu_M: float
    mu_tilde: float
    bc_kind: BCKind
    Ste: float | None = None
    q_star: float | None = None
    M: float | None = None
    Bi: float | None = None
    r: float | None = None
    T_star: float | None = None
    T_m: float | None = None
    bounds_certified: bool = True

    def __post_init__(self):
        kind = self.bc_kind
        if kind is BCKind.RADIATIVE:
            if self.T_star is None or self.T_m is None:
                raise ConfigError("radiative problems need T_star and T_m")
            try:
                finite = math.isfinite(self.T_star**4) and math.isfinite(self.D5)
            except OverflowError:
                finite = False
            if not finite:
                raise ConfigError(
                    f"radiative problems need finite T_star^4 and D5, got T_star={self.T_star!r}, T_m={self.T_m!r}"
                )
            if self.r is None or not 0.0 <= self.r < math.inf:
                raise ConfigError(f"radiative problems need finite r >= 0, got {self.r!r}")
        # every comparison below also rejects NaN and infinite constants
        if not (0.0 < self.L_m <= self.L_M < math.inf and 0.0 < self.N_m <= self.N_M < math.inf):
            raise ConfigError("need 0 < L_m <= L_M < inf and 0 < N_m <= N_M < inf")
        if not (0.0 <= self.mu_m <= self.mu_M < math.inf):
            raise ConfigError("need 0 <= mu_m <= mu_M < inf")
        if not all(0.0 <= c < math.inf for c in (self.L_tilde, self.N_tilde, self.mu_tilde)):
            raise ConfigError("Lipschitz constants must be non-negative and finite")
        if kind in (BCKind.DIRICHLET, BCKind.ROBIN, BCKind.RADIATIVE):
            if self.Ste is None or not 0.0 < self.Ste < math.inf:
                raise ConfigError(f"{kind.value} problems need finite Ste > 0, got {self.Ste!r}")
        if kind is BCKind.NEUMANN:
            if self.q_star is None or not 0.0 < self.q_star < math.inf:
                raise ConfigError(f"Neumann problems need finite q_star > 0, got {self.q_star!r}")
            if self.M is None or not 0.0 < self.M < math.inf:
                raise ConfigError(f"Neumann problems need finite M > 0, got {self.M!r}")
        if kind in (BCKind.ROBIN, BCKind.RADIATIVE):
            if self.Bi is None or not 0.0 <= self.Bi < math.inf:
                raise ConfigError(f"{kind.value} problems need finite Bi >= 0, got {self.Bi!r}")

    @property
    def D5(self) -> float | None:
        """Lipschitz constant 4 (T_star - T_m) |T_star|^3 of the fourth-power term (radiative only)."""
        if self.bc_kind is not BCKind.RADIATIVE:
            return None
        return 4.0 * (self.T_star - self.T_m) * abs(self.T_star) ** 3


def build_dimensionless(
    model: ThermalModel,
    bc: BoundaryCondition,
    *,
    estimate_range: tuple[float, float] | None = None,
    samples: int = 257,
    allow_estimation: bool = True,
) -> DimensionlessProblem:
    """Reduce a dimensional model plus boundary condition to a DimensionlessProblem.

    The coefficient functions are composed through the kind-appropriate
    temperature map, the bounds are rescaled by the reference constants, and
    the Lipschitz constants absorb the temperature-scale factor
    (T_star - T_m for Dirichlet/Robin/radiative, |T_m| for Neumann).

    When the model carries no bounds they are estimated by sampling over
    ``estimate_range`` (defaults to the kind-appropriate span), which marks
    the result as not analytically certified.
    """
    kind = bc.kind
    if kind is BCKind.NEUMANN and not bc.T_m > 0.0:
        raise ConfigError(f"Neumann reduction needs T_m > 0 (q* and M are undefined otherwise), got T_m={bc.T_m}")

    bounds = model.bounds
    if bounds is None:
        if not allow_estimation:
            raise ConfigError("model has no coefficient bounds and estimation is disabled")
        # Neumann profiles have no a-priori range: sample one melting-temperature span above T_m > 0
        default_range = (bc.T_m, 2.0 * bc.T_m) if kind is BCKind.NEUMANN else (bc.T_m, bc.T_star)
        bounds = estimate_bounds(model, estimate_range or default_range, samples)

    k0, gamma0 = model.k0, model.rho0 * model.c0
    mu0 = math.sqrt(gamma0 * k0)
    alpha0 = model.alpha0
    scale = abs(bc.T_m) if kind is BCKind.NEUMANN else bc.T_star - bc.T_m

    # callers evaluate these through eval_coefficient, which also covers
    # scalar-only model callables
    k_fn, g_fn, m_fn = model.k, model.rho_c, model.mu
    L_star = lambda f: k_fn(temperature_of_f(bc, f)) / k0
    N_star = lambda f: g_fn(temperature_of_f(bc, f)) / gamma0
    mu_star = lambda f: m_fn(temperature_of_f(bc, f)) / mu0

    params: dict[str, float | None] = dict(Ste=None, q_star=None, M=None, Bi=None, r=None, T_star=None, T_m=None)
    if kind in (BCKind.DIRICHLET, BCKind.ROBIN, BCKind.RADIATIVE):
        params["Ste"] = (bc.T_star - bc.T_m) * model.c0 / model.ell
        params["T_star"] = bc.T_star
        params["T_m"] = bc.T_m
    if kind is BCKind.NEUMANN:
        params["q_star"] = 2.0 * bc.q * math.sqrt(alpha0) / (k0 * bc.T_m)
        k_at_melt = float(eval_coefficient(model.k, np.asarray([bc.T_m]))[0])
        if not k_at_melt > 0.0:
            raise ConfigError(f"k(T_m) must be positive, got {k_at_melt}")
        params["M"] = 2.0 * model.ell * k0 / (bc.T_m * model.c0 * k_at_melt)
        params["T_m"] = bc.T_m
    if kind in (BCKind.ROBIN, BCKind.RADIATIVE):
        params["Bi"] = bc.h * math.sqrt(alpha0) / k0
    if kind is BCKind.RADIATIVE:
        params["r"] = 2.0 * bc.sigma * bc.epsilon * math.sqrt(alpha0) / (k0 * (bc.T_star - bc.T_m))

    return DimensionlessProblem(
        L_star=L_star,
        N_star=N_star,
        mu_star=mu_star,
        L_m=bounds.k_m / k0,
        L_M=bounds.k_M / k0,
        L_tilde=bounds.k_tilde * scale / k0,
        N_m=bounds.gamma_m / gamma0,
        N_M=bounds.gamma_M / gamma0,
        N_tilde=bounds.gamma_tilde * scale / gamma0,
        mu_m=bounds.nu_m / mu0,
        mu_M=bounds.nu_M / mu0,
        mu_tilde=bounds.nu_tilde * scale / mu0,
        bc_kind=kind,
        bounds_certified=bounds.certified,
        **params,
    )


# ---------------------------------------------------------------------------
# direct dimensionless constructors (handy for studies and tests)
# ---------------------------------------------------------------------------


def constant_problem(bc_kind: BCKind, Pe: float = 0.0, **params: float | None) -> DimensionlessProblem:
    """Constant-coefficient problem L* = N* = 1, mu* = Pe: the linear family at alpha = beta = 0.

    ``params`` are the keyword-only boundary-condition parameters of :func:`linear_problem`.
    """
    return linear_problem(bc_kind, 0.0, 0.0, Pe, **params)


def linear_problem(
    bc_kind: BCKind,
    alpha: float,
    beta: float,
    Pe: float,
    *,
    Ste: float | None = None,
    q_star: float | None = None,
    M: float | None = None,
    Bi: float | None = None,
    r: float | None = None,
    T_star: float | None = None,
    T_m: float | None = None,
) -> DimensionlessProblem:
    """Linear family in dimensionless form: L* = 1 + beta f, N* = 1 + alpha f, mu* = Pe (1 + alpha f).

    The stated bounds are exact on f in [0, 1]; profiles leaving that range
    (possible under a Neumann condition) evaluate the same formulas but are
    outside the certified region.
    """
    if alpha < 0.0 or beta < 0.0 or Pe < 0.0:
        raise ConfigError("alpha, beta and Pe must be non-negative")
    a, b = float(alpha), float(beta)
    L_star = lambda f: 1.0 + b * np.asarray(f, dtype=float)
    N_star = lambda f: 1.0 + a * np.asarray(f, dtype=float)
    mu_star = lambda f: Pe * (1.0 + a * np.asarray(f, dtype=float))
    return DimensionlessProblem(
        L_star=L_star,
        N_star=N_star,
        mu_star=mu_star,
        L_m=1.0,
        L_M=1.0 + b,
        L_tilde=b,
        N_m=1.0,
        N_M=1.0 + a,
        N_tilde=a,
        mu_m=Pe,
        mu_M=Pe * (1.0 + a),
        mu_tilde=Pe * a,
        bc_kind=bc_kind,
        Ste=Ste,
        q_star=q_star,
        M=M,
        Bi=Bi,
        r=r if bc_kind is BCKind.RADIATIVE else None,
        T_star=T_star,
        T_m=T_m,
    )
