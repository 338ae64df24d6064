"""Dimensional thermal coefficients and their dimensionless reduction.

The solver consumes three functions of the scaled temperature f in [0, 1]:
the conductivity ratio L*(f), the volumetric heat-capacity ratio N*(f) and
the convection amplitude mu*(f), together with the parameter set matching
the boundary condition in play (Ste, or q* and M, or Bi, or Bi and r).
This module builds those from dimensional material data: two built-in
coefficient families (constant and linear-in-temperature), or tabulated
coefficients read from CSV and interpolated piecewise-linearly.

Each boundary condition is one class here (Dirichlet, Neumann, Robin,
Radiative) holding all of its formulas: the scaled temperature map of
:func:`temperature_of_f` (shared with the reconstruction of physical
fields), the reduction to dimensionless parameters, the PDE face value,
and the dimensionless operator image, front value, sandwich curves,
contraction bound and hypotheses that the solver reads through
``DimensionlessProblem.condition``.  Under a Dirichlet, Robin or
radiative condition T(f) = (T_m - T_star) f + T_star, so f = 0 at the
fixed face and f = 1 at the melt front; the Neumann map T(f) = T_m (1 + f)
anchors the profile by f = 0 at the front.
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


def _erf(x):
    """erf by ``math.erf``: a float for a float or 0-d input, an array of the input's shape otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return math.erf(x)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


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
    and mu, and the ``(L, N, Pe, L at a float, N at a float)`` that
    :meth:`DimensionlessProblem.coefficients_into` reads.  Each function is
    evaluated as c0 + c1 u, whose rounding is monotone in u, so its values
    on any set of u lie between those at the set's least and greatest u, and
    the triples (the two end values and |c1|) are exact on [0, 1].  The
    float forms do the same two operations on one Python float.  The
    defaults give theta = u.  L and N take an optional ``out`` array for
    their result, which may be u.
    """
    if alpha < 0.0 or beta < 0.0 or Pe < 0.0:
        raise ConfigError("alpha, beta and Pe must be non-negative")

    def affine(slope: float):
        c0, c1 = 1.0 + slope * theta0, slope * theta1
        fn = lambda u, out=None: np.add(c0, np.multiply(c1, np.asarray(u, dtype=float), out=out), out=out)
        return fn, lambda u: c0 + c1 * u, (min(c0, c0 + c1), max(c0, c0 + c1), abs(c1))

    (L, L_at, L_bounds), (N, N_at, N_bounds) = affine(float(beta)), affine(float(alpha))
    mu = lambda u: Pe * N(u)
    return (L, L_bounds), (N, N_bounds), (mu, tuple(Pe * b for b in N_bounds)), (L, N, Pe, L_at, N_at)


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
    (L, _), (N, _), _, _ = _linear_family(alpha, beta, Pe)
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


class _Condition:
    """The formulas of a fixed-face condition, each written once.

    Each condition class holds its own: on the instance the dimensional
    ones (temperature map, parameter reduction, PDE face value), as static
    methods the dimensionless ones, which a problem reaches as
    ``DimensionlessProblem.condition``.  A formula two or more conditions
    share is written here and overridden where one differs; the defaults
    are those of the conditions anchored at T_star.  A new per-condition
    formula belongs in these classes, not in a chain over ``BCKind``.
    """

    # admissible profiles lie in [0, f_max]
    f_max: ClassVar[float] = 1.0
    # whether H maps admissible profiles into [0, f_max] with no hypothesis of
    # its own; where it need not, the Picard iteration watches its iterates
    self_map: ClassVar[bool] = True
    # the DimensionlessProblem parameters the condition reads
    problem_params: ClassVar[tuple[str, ...]] = ("Ste",)
    # how an error message names the condition's problems (default: kind.value)
    _noun: ClassVar[str | None] = None

    def span(self) -> tuple[float, float]:
        """T(0) and dT/df of the temperature map T(f) = (T_m - T_star) f + T_star."""
        return self.T_star, self.T_m - self.T_star

    def temperature(self, f: np.ndarray):
        T0, dT = self.span()
        return dT * f + T0

    def reduce(self, model: ThermalModel, L_star: Callable) -> dict[str, float]:
        """The problem parameters the condition reads, and T_star and T_m."""
        return dict(Ste=(self.T_star - self.T_m) * model.c0 / model.ell, T_star=self.T_star, T_m=self.T_m)

    def _biot(self, model: ThermalModel) -> float:
        return self.h * math.sqrt(model.alpha0) / model.k0

    def face_temperature(self, model: ThermalModel, T1, T2, T0_prev, dy, s, t):
        """PDE face value from the flux condition, one-sided second-order in y, by up to 8 ``_face_step`` sweeps."""
        T0 = T0_prev
        for _ in range(8):
            k0 = float(eval_coefficient(model.k, T0))
            c = 2.0 * dy * s / (k0 * math.sqrt(t))
            new = self._face_step(T0, T1, T2, c)
            if abs(new - T0) <= 1e-12 * max(1.0, abs(new)):
                T0 = new
                break
            T0 = new
        return T0

    @classmethod
    def _check(cls, prob: "DimensionlessProblem", names: tuple[str, ...]) -> None:
        """Reject a parameter that is None, not finite, or not above 0 (Bi and r: not at or above 0)."""
        noun = cls._noun or cls.kind.value
        for name in names:
            value, zero_ok = getattr(prob, name), name in ("Bi", "r")
            if value is None or not (0.0 <= value if zero_ok else 0.0 < value) or not value < math.inf:
                sign = ">=" if zero_ok else ">"
                raise ConfigError(f"{noun} problems need finite {name} {sign} 0, got {value!r}")

    @staticmethod
    def _check_face(prob: "DimensionlessProblem") -> None:
        """Checks of the face data that come before those of the coefficient bounds."""

    @staticmethod
    def D5(prob: "DimensionlessProblem") -> float | None:
        return None

    @staticmethod
    def start(grid, lam: float, n: int):
        """The default first iterate on n intervals over [0, lam], built by ``grid`` (ProfileGrid): the ramp."""
        return grid.linear(lam, n)

    @staticmethod
    def v1(prob: "DimensionlessProblem", lam: float) -> float:
        return 0.0

    @staticmethod
    def v2(prob: "DimensionlessProblem", lam: np.ndarray, E_upper: np.ndarray) -> np.ndarray:
        """V2 from E's upper envelope and the erf-based lower envelope of Phi."""
        scale = prob.Ste / math.sqrt(math.pi) * math.sqrt(prob.N_M / prob.L_m) * prob.L_M
        denom = _erf(math.sqrt(prob.N_M / prob.L_m) * lam)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(denom == 0.0, math.inf, scale * E_upper / denom)

    @staticmethod
    def contraction_bound(prob: "DimensionlessProblem", z: float, D4: float) -> float:
        return 2.0 * D4 * prob.L_M * math.exp(prob.N_M / prob.L_m * z**2)

    @staticmethod
    def threshold_note(prob: "DimensionlessProblem", e0: float) -> str | None:
        """Why the bound, e0 at z = 0, never reaches 1, where its formula tells without a search."""
        # a multiple of D4, which vanishes with the three Lipschitz constants
        if e0 < 1.0 and prob.L_tilde == prob.N_tilde == prob.mu_tilde == 0.0:
            return "unconditional contraction (bound never reaches 1)"
        return None

    @staticmethod
    def hypotheses(prob: "DimensionlessProblem", e0: float) -> dict[str, bool]:
        """The condition's own existence hypotheses by flag name, given the contraction bound e0 at z = 0."""
        return {"extra_contraction": e0 < 1.0}

    @staticmethod
    def flux_residual(prob: "DimensionlessProblem", lam: float, fp: float, f_end: float) -> float:
        """Relative defect of the front flux condition L*(f(lam)) f'(lam) = 2 lam / Ste."""
        L_end = float(eval_coefficient(prob.L_star, f_end))
        target = 2.0 * lam / prob.Ste
        return abs(L_end * fp - target) / abs(target)


@dataclass(frozen=True)
class Dirichlet(_Condition):
    """Imposed temperature T_star > T_m at the fixed face."""

    T_star: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.DIRICHLET

    def __post_init__(self):
        if not self.T_star > self.T_m:
            raise ConfigError(f"Dirichlet requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")

    def face_temperature(self, model, T1, T2, T0_prev, dy, s, t):
        return self.T_star

    @staticmethod
    def image(prob, Phi, phi_lam, f):
        """H(f) = Phi(f)(xi) / Phi(f)(lambda)."""
        return np.divide(Phi, phi_lam)

    @staticmethod
    def front_value(prob, E_lam, phi_lam, f):
        """V = Ste/2 * E(f)(lambda) / Phi(f)(lambda)."""
        return 0.5 * prob.Ste * E_lam / phi_lam

    @staticmethod
    def v1(prob, lam):
        return prob.Ste * prob.mu_M * math.exp(-2.0 * lam * prob.mu_M / prob.L_m - 2.0 * lam**2 * prob.N_M / prob.L_m)


@dataclass(frozen=True)
class Neumann(_Condition):
    """Prescribed inward flux q/sqrt(t) > 0 at the fixed face; profiles need only be non-negative."""

    q: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.NEUMANN
    f_max = math.inf
    problem_params = ("q_star", "M")
    _noun = "Neumann"

    def __post_init__(self):
        if not self.q > 0.0:
            raise ConfigError(f"Neumann requires q > 0, got {self.q}")

    def span(self):
        """T(0) and dT/df of T(f) = T_m (1 + f), which puts f = 0 at the melt front."""
        if not self.T_m > 0.0:
            raise ConfigError(f"Neumann reduction needs T_m > 0 (q* and M are undefined otherwise), got T_m={self.T_m}")
        return self.T_m, self.T_m

    def temperature(self, f):
        return self.T_m * (1.0 + f)

    def reduce(self, model, L_star):
        k0 = model.k0
        _check_positive("the q* divisor k0*T_m", k0 * self.T_m)
        q_star = 2.0 * self.q * math.sqrt(model.alpha0) / (k0 * self.T_m)
        # the Neumann map puts T_m at f = 0
        k_at_melt = k0 * float(eval_coefficient(L_star, 0.0))
        _check_positive("the M divisor T_m*c0*k(T_m)", self.T_m * model.c0 * k_at_melt)
        return dict(q_star=q_star, M=2.0 * model.ell * k0 / (self.T_m * model.c0 * k_at_melt), T_m=self.T_m)

    def _face_step(self, T0, T1, T2, c):
        return (4.0 * T1 - T2 + c * self.q) / 3.0

    @staticmethod
    def start(grid, lam, n):
        return grid.constant(lam, 0.0, n)

    @staticmethod
    def image(prob, Phi, phi_lam, f):
        """H(f) = q* (Phi(f)(lambda) - Phi(f)(xi))."""
        g = np.subtract(phi_lam, Phi)
        g *= prob.q_star
        return g

    @staticmethod
    def front_value(prob, E_lam, phi_lam, f):
        """V = q* / (M L*(f(lambda))) * E(f)(lambda)."""
        return prob.q_star / (prob.M * float(eval_coefficient(prob.L_star, f[-1]))) * E_lam

    @staticmethod
    def v1(prob, lam):
        # E's lower envelope without its convection factor exp(2 lam mu_m / L_M) >= 1
        return prob.q_star / (prob.M * prob.L_M) * math.exp(-(lam**2) * prob.N_M / prob.L_m)

    @staticmethod
    def v2(prob, lam, E_upper):
        return prob.q_star / (prob.M * prob.L_m) * E_upper

    @staticmethod
    def contraction_bound(prob, z, D4):
        return 2.0 * prob.q_star * z * D4

    @staticmethod
    def hypotheses(prob, e0):
        return {}

    @staticmethod
    def flux_residual(prob, lam, fp, f_end):
        """Relative defect of f'(lam) = -M lam."""
        target = -prob.M * lam
        return abs(fp - target) / abs(target)


@dataclass(frozen=True)
class Robin(_Condition):
    """Convective heat transfer h/sqrt(t) toward bulk temperature T_star > T_m."""

    h: float
    T_star: float
    T_m: float
    kind: ClassVar[BCKind] = BCKind.ROBIN
    problem_params = ("Ste", "Bi")

    def __post_init__(self):
        if self.h < 0.0:
            raise ConfigError(f"Robin requires h >= 0, got {self.h}")
        if not self.T_star > self.T_m:
            raise ConfigError(f"Robin requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")

    def reduce(self, model, L_star):
        return dict(super().reduce(model, L_star), Bi=self._biot(model))

    def _face_step(self, T0, T1, T2, c):
        return (4.0 * T1 - T2 + c * self.h * self.T_star) / (3.0 + c * self.h)

    @staticmethod
    def image(prob, Phi, phi_lam, f):
        """H(f) = (1 + 2 Bi Phi(f)(xi)) / (1 + 2 Bi Phi(f)(lambda))."""
        g = np.multiply(2.0 * prob.Bi, Phi)
        g += 1.0
        g /= 1.0 + 2.0 * prob.Bi * phi_lam
        return g

    @staticmethod
    def front_value(prob, E_lam, phi_lam, f):
        """V = Ste Bi E(f)(lambda) / (1 + 2 Bi Phi(f)(lambda))."""
        return prob.Ste * prob.Bi * E_lam / (1.0 + 2.0 * prob.Bi * phi_lam)


@dataclass(frozen=True)
class Radiative(_Condition):
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
    self_map = False
    problem_params = ("Ste", "Bi", "r")

    def __post_init__(self):
        if self.h < 0.0:
            raise ConfigError(f"Radiative requires h >= 0, got {self.h}")
        if not self.sigma > 0.0:
            raise ConfigError(f"Radiative requires sigma > 0, got {self.sigma}")
        if self.epsilon < 0.0:
            raise ConfigError(f"Radiative requires epsilon >= 0, got {self.epsilon}")
        if not self.T_star > self.T_m:
            raise ConfigError(f"Radiative requires T_star > T_m, got T_star={self.T_star}, T_m={self.T_m}")

    def reduce(self, model, L_star):
        k0 = model.k0
        # an infinite divisor (T_star = inf) is left to the T_star^4 check
        if not k0 * (self.T_star - self.T_m) > 0.0:
            raise ConfigError(f"the r divisor k0*(T_star-T_m) underflows to 0 at k0={k0!r}, T_star={self.T_star!r}")
        r = 2.0 * self.sigma * self.epsilon * math.sqrt(model.alpha0) / (k0 * (self.T_star - self.T_m))
        return dict(super().reduce(model, L_star), Bi=self._biot(model), r=r)

    def _face_step(self, T0, T1, T2, c):
        # one Newton step on the quartic balance per sweep
        flux = self.h * (T0 - self.T_star) + self.sigma * self.epsilon * (T0**4 - self.T_star**4)
        g = 3.0 * T0 - 4.0 * T1 + T2 + c * flux
        gp = 3.0 + c * (self.h + 4.0 * self.sigma * self.epsilon * T0**3)
        return T0 - g / gp

    @staticmethod
    def _check_face(prob):
        """The fourth-power data: T_star and T_m, finite T_star^4 and D5, and r."""
        if prob.T_star is None or prob.T_m is None:
            raise ConfigError("radiative problems need T_star and T_m")
        try:
            finite = math.isfinite(prob.T_star**4) and math.isfinite(prob.D5)
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError(
                f"radiative problems need finite T_star^4 and D5, got T_star={prob.T_star!r}, T_m={prob.T_m!r}"
            )
        Radiative._check(prob, ("r",))

    @staticmethod
    def D5(prob):
        """Lipschitz constant 4 (T_star - T_m) |T_star|^3 of the fourth-power term."""
        return 4.0 * (prob.T_star - prob.T_m) * abs(prob.T_star) ** 3

    @staticmethod
    def g0(prob, f0):
        """G(f)(0) = 2 Bi f(0) + r (T_star^4 - ((T_m - T_star) f(0) + T_star)^4)."""
        T_star, T_m = prob.T_star, prob.T_m
        F0 = T_star**4 - ((T_m - T_star) * f0 + T_star) ** 4
        return 2.0 * prob.Bi * f0 + prob.r * F0

    @staticmethod
    def image(prob, Phi, phi_lam, f):
        """H(f) = 1 - G(f)(0) (Phi(f)(lambda) - Phi(f)(xi))."""
        g = np.subtract(phi_lam, Phi)
        g *= Radiative.g0(prob, float(f[0]))
        np.subtract(1.0, g, out=g)
        return g

    @staticmethod
    def front_value(prob, E_lam, phi_lam, f):
        """V = Ste G(f)(0) / 2 * E(f)(lambda)."""
        return 0.5 * prob.Ste * Radiative.g0(prob, float(f[0])) * E_lam

    @staticmethod
    def v2(prob, lam, E_upper):
        return prob.Ste * (2.0 * prob.Bi + prob.r * prob.T_star**4) / 2.0 * E_upper

    @staticmethod
    def contraction_bound(prob, z, D4):
        if prob.mu_M == 0.0:
            raise ConfigError("radiative contraction bound is undefined when mu_M = 0")
        head = 2.0 * (2.0 * prob.Bi + prob.r * prob.T_star**4) * z * D4
        tail = math.exp(2.0 * prob.mu_M / prob.L_m * z) * (2.0 * prob.Bi + prob.r * prob.D5) / prob.mu_M
        return head + tail

    @staticmethod
    def threshold_note(prob, e0):
        return "contraction bound undefined (mu_M = 0)" if prob.mu_M == 0.0 else None

    @staticmethod
    def self_map_margin(prob, dimensional=False):
        """Left-hand side of the self-map condition (<= 1), with T_star^4 - T_m^4 if dimensional; inf on overflow."""
        try:
            fourth = prob.T_star**4 - (prob.T_m**4 if dimensional else 0.0)
            amp = 2.0 * prob.Bi + prob.r * fourth
            return amp / (prob.L_m * math.sqrt(prob.N_m / prob.L_M)) * math.sqrt(math.pi) * math.exp(
                prob.mu_M**2 * prob.L_M / (prob.L_m**2 * prob.N_m)
            )
        except OverflowError:
            return math.inf

    @staticmethod
    def hypotheses(prob, e0):
        return {
            "radiative_self_map": Radiative.self_map_margin(prob) <= 1.0,
            "radiative_self_map_dimensional": Radiative.self_map_margin(prob, dimensional=True) < 1.0,
            # at z = 0 the bound is (2 Bi + r D5) / mu_M
            "radiative_lipschitz": e0 < 1.0,
        }


BoundaryCondition = Union[Dirichlet, Neumann, Robin, Radiative]
_CONDITIONS = {cls.kind: cls for cls in (Dirichlet, Neumann, Robin, Radiative)}


def temperature_of_f(bc: BoundaryCondition, f):
    """Temperature at scaled temperature f (scalar or array) under ``bc``'s map."""
    return bc.temperature(np.asarray(f, dtype=float))


# ---------------------------------------------------------------------------
# dimensionless problem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DimensionlessProblem:
    """Everything the similarity solver needs for one boundary-condition kind.

    The functions take the scaled temperature f (scalar or array): L* and N*
    are positive, mu* is non-negative.  The nine constants bound them on f in [0, 1]:
    L_m <= L*(f) <= L_M with Lipschitz constant L_tilde, and likewise for
    N* and mu*.  The bounds must be finite, and so must the parameters the
    condition reads (its ``problem_params``).  A parameter the condition
    does not read is carried as given, None or not, and never read:
    :func:`build_dimensionless` sets only those it reads, and
    :func:`linear_problem` keeps every one it is given but ``r``, which only
    a radiative problem keeps.  A radiative problem needs ``T_star`` and
    ``T_m`` for the fourth-power term: T_star^4 and D5 must be finite.
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
    # (L, N, Pe, L at a float, N at a float) of a linear family (see _linear_family),
    # from which its L*, N* and mu* are built; set on the instance, never a field,
    # so a dataclasses.replace copy falls back to this None
    _family: ClassVar[tuple | None] = None

    def __post_init__(self):
        if self.bc_kind not in _CONDITIONS:
            raise ConfigError(f"unknown boundary-condition kind {self.bc_kind!r}")
        condition = self.condition
        condition._check_face(self)
        # every comparison below also rejects NaN and infinite constants
        if not (0.0 < self.L_m <= self.L_M < math.inf and 0.0 < self.N_m <= self.N_M < math.inf):
            raise ConfigError("need 0 < L_m <= L_M < inf and 0 < N_m <= N_M < inf")
        if not (0.0 <= self.mu_m <= self.mu_M < math.inf):
            raise ConfigError("need 0 <= mu_m <= mu_M < inf")
        if not all(0.0 <= c < math.inf for c in (self.L_tilde, self.N_tilde, self.mu_tilde)):
            raise ConfigError("Lipschitz constants must be non-negative and finite")
        condition._check(self, condition.problem_params)

    @property
    def condition(self) -> type:
        """The class of ``bc_kind`` (Dirichlet, Neumann, Robin or Radiative), which holds the condition's formulas."""
        return _CONDITIONS[self.bc_kind]

    @property
    def D5(self) -> float | None:
        """Lipschitz constant 4 (T_star - T_m) |T_star|^3 of the fourth-power term (radiative only)."""
        return self.condition.D5(self)

    def coefficients_into(self, f: np.ndarray, out: np.ndarray) -> tuple[float, float, float, float]:
        """Write L*, N* and mu* at f into out[0], out[1] and out[2]; return min L*, max L*, max |N*|, max |mu*|.

        A linear family (see ``_family``) writes L* and N* with its own
        functions and mu* as Pe N*, its callables' values to the bit, and
        reads the extremes at f.min() and f.max(); they are the arrays'
        (see :func:`_linear_family`), and NaN for a non-finite f.  Any other
        problem, a ``dataclasses.replace`` copy included, calls each
        callable through :func:`eval_coefficient`.
        """
        L, N, mu = out
        if self._family is None:
            for row, fn in zip(out, (self.L_star, self.N_star, self.mu_star)):
                row[...] = eval_coefficient(fn, f)
            return float(L.min()), float(L.max()), float(max(N.max(), -N.min())), float(max(mu.max(), -mu.min()))
        L_fn, N_fn, Pe, L_at, N_at = self._family
        L_fn(f, out=L)
        N_fn(f, out=N)
        np.multiply(Pe, N, out=mu)
        lo, hi = float(f.min()), float(f.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return (math.nan,) * 4
        L_lo, L_hi, N_lo, N_hi = L_at(lo), L_at(hi), N_at(lo), N_at(hi)
        return min(L_lo, L_hi), max(L_lo, L_hi), max(abs(N_lo), abs(N_hi)), max(abs(Pe * N_lo), abs(Pe * N_hi))


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
    # T(0) and dT/df of temperature_of_f
    T0, dT = bc.span()
    k0, gamma0 = model.k0, model.rho0 * model.c0
    mu0 = math.sqrt(gamma0 * k0)

    if model.family:
        alpha, beta, Pe, T_star, T_m = model.family
        *coefs, family = _linear_family(alpha, beta, Pe, (T0 - T_star) / (T_m - T_star), dT / (T_m - T_star))
    else:
        family = None
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

    prob = DimensionlessProblem(
        L_star,
        N_star,
        mu_star,
        *L_bounds,
        *N_bounds,
        *mu_bounds,
        bc_kind=bc.kind,
        bounds_certified=model.family is not None,
        **bc.reduce(model, L_star),
    )
    object.__setattr__(prob, "_family", family)
    return prob


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
    (L, L_bounds), (N, N_bounds), (mu, mu_bounds), family = _linear_family(alpha, beta, Pe)
    prob = DimensionlessProblem(
        L, N, mu, *L_bounds, *N_bounds, *mu_bounds,
        bc_kind=bc_kind,
        Ste=Ste,
        q_star=q_star,
        M=M,
        Bi=Bi,
        r=r if "r" in _CONDITIONS.get(bc_kind, _Condition).problem_params else None,
        T_star=T_star,
        T_m=T_m,
    )
    object.__setattr__(prob, "_family", family)
    return prob
