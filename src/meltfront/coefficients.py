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
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, ClassVar, Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "BCKind",
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
    "table_model_from_csv",
    "load_coefficient_table",
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


# uniform samples of f in [0, 1] behind the bounds of a model without a family
_BOUND_SAMPLES = 257


def eval_coefficient(fn: Callable, x: np.ndarray) -> np.ndarray:
    """Evaluate a coefficient callable on a scalar or an array, tolerating scalar-only callables."""
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
    family : tuple or None
        Not a constructor argument: the ``(alpha, beta, Pe, T_star, T_m)``
        that :func:`linear_model` built the model from.  Every other model,
        including a ``dataclasses.replace`` copy, has None and gets bounds
        sampled on f in [0, 1] (T in [T_m, 2 T_m] under a Neumann condition).
    """

    k: Callable
    rho_c: Callable
    mu: Callable
    k0: float
    rho0: float
    c0: float
    ell: float
    family: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # (theta, L, N, rho0*c0, mu scale) of a linear_model: its k, rho_c and mu are built from them
    _affine: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_reference(self.k0, self.rho0, self.c0, self.ell)

    @property
    def alpha0(self) -> float:
        return self.k0 / (self.rho0 * self.c0)

    def coefficients_into(self, T: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write k, rho*c and mu at the temperatures T into out[0], out[1] and out[2]; return out.

        A :func:`linear_model` computes theta(T) and N(theta) once and scales
        them, with the arithmetic of its own k, rho_c and mu, so every value
        is theirs to the bit.  Any other model (a ``dataclasses.replace``
        copy of one included) calls k, rho_c and mu through
        :func:`eval_coefficient`.
        """
        if self._affine is None:
            for row, fn in zip(out, (self.k, self.rho_c, self.mu)):
                row[...] = eval_coefficient(fn, T)
            return out
        theta, L, N, gamma0, nu0 = self._affine
        k, gam, mu = out
        theta(T, out=k)
        N(k, out=gam)
        L(k, out=k)
        np.multiply(self.k0, k, out=k)
        np.multiply(nu0, gam, out=mu)
        np.multiply(gamma0, gam, out=gam)
        return out


def _check_positive(name: str, v: float) -> None:
    if not (np.isfinite(v) and v > 0.0):
        raise ConfigError(f"{name} must be a positive finite real, got {v!r}")


def _check_reference(k0: float, rho0: float, c0: float, ell: float) -> None:
    """Reject reference constants, or products of them the reduction divides by, that are not positive and finite.

    Each product is checked before the next one divides by it.
    """
    for name, v in (("k0", k0), ("rho0", rho0), ("c0", c0), ("ell", ell)):
        _check_positive(f"reference constant {name}", v)
    _check_positive("reference product rho0*c0", rho0 * c0)
    _check_positive("reference diffusivity k0/(rho0*c0)", k0 / (rho0 * c0))
    _check_positive("reference product rho0*c0*k0", rho0 * c0 * k0)


def _linear_family(alpha: float, beta: float, Pe: float, theta0: float = 0.0, theta1: float = 1.0):
    """The linear family at theta = theta0 + theta1 u: L = 1 + beta theta, N = 1 + alpha theta, mu = Pe N.

    Returns one ``(function, (min, max, Lipschitz))`` pair for each of L, N
    and mu.  Each function is evaluated as c0 + c1 u, whose rounded values on
    u in [0, 1] lie between those at the ends, so the triples (the two end
    values and |c1|) are exact on [0, 1].  The defaults give theta = u.  L
    and N take an optional ``out`` array for their result, which may be u.
    """
    if alpha < 0.0 or beta < 0.0 or Pe < 0.0:
        raise ConfigError("alpha, beta and Pe must be non-negative")

    def affine(slope: float):
        c0, c1 = 1.0 + slope * theta0, slope * theta1
        fn = lambda u, out=None: np.add(c0, np.multiply(c1, np.asarray(u, dtype=float), out=out), out=out)
        return fn, (min(c0, c0 + c1), max(c0, c0 + c1), abs(c1))

    N, N_bounds = affine(float(alpha))
    mu = lambda u: Pe * N(u)
    return affine(float(beta)), (N, N_bounds), (mu, tuple(Pe * b for b in N_bounds))


def constant_model(k0: float, rho0: float, c0: float, ell: float, Pe: float = 0.0) -> ThermalModel:
    """Constant-coefficient material k = k0, rho*c = rho0*c0, mu = rho0*c0*sqrt(alpha0)*Pe.

    The linear family at alpha = beta = 0, where any anchors T_star > T_m give the same model.
    """
    return linear_model(k0, rho0, c0, ell, 0.0, 0.0, Pe, T_star=1.0, T_m=0.0)


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
    """Linear-in-temperature family: :func:`linear_problem`'s L and N at theta = (T - T_star)/(T_m - T_star).

    k(T) = k0 L(theta) = k0 * (1 + beta * theta),
    rho*c(T) = rho0*c0 N(theta), i.e. rho = rho0 and c(T) = c0 * (1 + alpha * theta),
    mu(T) = rho0*c0*sqrt(alpha0)*Pe N(theta).

    The model carries no bounds; it records ``(alpha, beta, Pe, T_star, T_m)``
    as its ``family``, from which :func:`build_dimensionless` reduces it.
    """
    (L, _), (N, _), _ = _linear_family(alpha, beta, Pe)
    _check_reference(k0, rho0, c0, ell)
    if not T_star > T_m:
        raise ConfigError(f"linear family requires T_star > T_m, got T_star={T_star}, T_m={T_m}")
    gamma0 = rho0 * c0
    nu0 = gamma0 * math.sqrt(k0 / gamma0) * Pe

    def theta(T, out=None):
        return np.divide(np.subtract(np.asarray(T, dtype=float), T_star, out=out), T_m - T_star, out=out)

    model = ThermalModel(
        lambda T: k0 * L(theta(T)), lambda T: gamma0 * N(theta(T)), lambda T: nu0 * N(theta(T)), k0, rho0, c0, ell
    )
    object.__setattr__(model, "family", (alpha, beta, Pe, T_star, T_m))
    object.__setattr__(model, "_affine", (theta, L, N, gamma0, nu0))
    return model


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
    node stay bounded.  :func:`build_dimensionless` samples its bounds on f
    in [0, 1] (T in [T_m, 2 T_m] under a Neumann condition), which marks any
    certificate as heuristic.
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

    The functions take the scaled temperature f (scalar or array): L* and N*
    are positive, mu* is non-negative.  The nine constants bound them on f in [0, 1]:
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


def _sampled_family(bc: BoundaryCondition, L_star: Callable, N_star: Callable, mu_star: Callable):
    """One ``(function, (min, max, Lipschitz))`` pair for each of L*, N* and mu*, sampled on f in [0, 1].

    The min and max are taken over _BOUND_SAMPLES uniform values of f, and
    the Lipschitz constant is the steepest slope between neighbouring
    samples.  L* and N* must be positive and mu* non-negative at every
    sample; an error names the dimensional coefficient and the temperatures
    T(0) and T(1) the samples span.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        T0, T1 = (float(T) for T in temperature_of_f(bc, (0.0, 1.0)))
    if not (math.isfinite(T0) and math.isfinite(T1) and T0 != T1):
        raise ConfigError(f"temperature range must be a non-degenerate interval, got ({T0}, {T1})")
    lo, hi = sorted((T0, T1))
    f = np.linspace(0.0, 1.0, _BOUND_SAMPLES)
    pairs = []
    for name, fn in (("k", L_star), ("rho_c", N_star), ("mu", mu_star)):
        vals = eval_coefficient(fn, f)
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"coefficient {name} returned a non-finite value on [{lo}, {hi}]")
        if name == "mu":
            if np.any(vals < 0.0):
                raise ConfigError(f"coefficient mu returned a negative value on [{lo}, {hi}]")
        elif np.any(vals <= 0.0):
            raise ConfigError(f"coefficient {name} returned a non-positive value on [{lo}, {hi}]")
        pairs.append((fn, (float(np.min(vals)), float(np.max(vals)), float(np.max(np.abs(np.diff(vals)))) / f[1])))
    return pairs


def build_dimensionless(model: ThermalModel, bc: BoundaryCondition) -> DimensionlessProblem:
    """Reduce a dimensional model plus boundary condition to a DimensionlessProblem.

    A model from :func:`linear_model` or :func:`constant_model` is affine in
    its theta, and every temperature map is affine in f, so theta(T(f)) =
    theta0 + theta1 f exactly: theta0 is theta at f = 0 and theta1 is
    dT/df over the model's T_m - T_star.  Such a model reduces to
    :func:`_linear_family` at (theta0, theta1), with that family's exact
    bounds on f in [0, 1], and its k, rho_c and mu are never called.

    Any other model is composed through :func:`temperature_of_f` and
    divided by the reference constants.  Its bounds are sampled from the
    composed L*, N* and mu* on f in [0, 1], which is T in [T_m, T_star], or
    [T_m, 2 T_m] under a Neumann condition, whose profiles have no a-priori
    range; the result is marked as not analytically certified.
    """
    kind = bc.kind
    if kind is BCKind.NEUMANN and not bc.T_m > 0.0:
        raise ConfigError(f"Neumann reduction needs T_m > 0 (q* and M are undefined otherwise), got T_m={bc.T_m}")

    k0, gamma0 = model.k0, model.rho0 * model.c0
    mu0 = math.sqrt(gamma0 * k0)
    alpha0 = model.alpha0

    if model.family:
        alpha, beta, Pe, T_star, T_m = model.family
        # T(0) and dT/df of temperature_of_f
        T0, dT = (bc.T_m, bc.T_m) if kind is BCKind.NEUMANN else (bc.T_star, bc.T_m - bc.T_star)
        coefs = _linear_family(alpha, beta, Pe, (T0 - T_star) / (T_m - T_star), dT / (T_m - T_star))
    else:
        # callers evaluate these through eval_coefficient, which also covers
        # scalar-only model callables
        k_fn, g_fn, m_fn = model.k, model.rho_c, model.mu
        coefs = _sampled_family(
            bc,
            lambda f: k_fn(temperature_of_f(bc, f)) / k0,
            lambda f: g_fn(temperature_of_f(bc, f)) / gamma0,
            lambda f: m_fn(temperature_of_f(bc, f)) / mu0,
        )
    (L_star, L_bounds), (N_star, N_bounds), (mu_star, mu_bounds) = coefs

    params: dict[str, float | None] = dict(Ste=None, q_star=None, M=None, Bi=None, r=None, T_star=None, T_m=None)
    if kind in (BCKind.DIRICHLET, BCKind.ROBIN, BCKind.RADIATIVE):
        params["Ste"] = (bc.T_star - bc.T_m) * model.c0 / model.ell
        params["T_star"] = bc.T_star
        params["T_m"] = bc.T_m
    if kind is BCKind.NEUMANN:
        _check_positive("the q* divisor k0*T_m", k0 * bc.T_m)
        params["q_star"] = 2.0 * bc.q * math.sqrt(alpha0) / (k0 * bc.T_m)
        # the Neumann map puts T_m at f = 0
        k_at_melt = k0 * float(eval_coefficient(L_star, 0.0))
        _check_positive("the M divisor T_m*c0*k(T_m)", bc.T_m * model.c0 * k_at_melt)
        params["M"] = 2.0 * model.ell * k0 / (bc.T_m * model.c0 * k_at_melt)
        params["T_m"] = bc.T_m
    if kind in (BCKind.ROBIN, BCKind.RADIATIVE):
        params["Bi"] = bc.h * math.sqrt(alpha0) / k0
    if kind is BCKind.RADIATIVE:
        # an infinite divisor (T_star = inf) is left to the T_star^4 check
        if not k0 * (bc.T_star - bc.T_m) > 0.0:
            raise ConfigError(f"the r divisor k0*(T_star-T_m) underflows to 0 at k0={k0!r}, T_star={bc.T_star!r}")
        params["r"] = 2.0 * bc.sigma * bc.epsilon * math.sqrt(alpha0) / (k0 * (bc.T_star - bc.T_m))

    return DimensionlessProblem(
        L_star,
        N_star,
        mu_star,
        *L_bounds,
        *N_bounds,
        *mu_bounds,
        bc_kind=kind,
        bounds_certified=model.family is not None,
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
    (L, L_bounds), (N, N_bounds), (mu, mu_bounds) = _linear_family(alpha, beta, Pe)
    return DimensionlessProblem(
        L, N, mu, *L_bounds, *N_bounds, *mu_bounds,
        bc_kind=bc_kind,
        Ste=Ste,
        q_star=q_star,
        M=M,
        Bi=Bi,
        r=r if bc_kind is BCKind.RADIATIVE else None,
        T_star=T_star,
        T_m=T_m,
    )
