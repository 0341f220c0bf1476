"""Parametric mass-spring-damper benchmark model.

A chain of lumped masses connected by springs and dampers; endpoint 0 denotes
the ground.  Every physical coefficient (mass, stiffness, damping) is an
independent uniform random variable varying by a relative half-width delta
around its nominal value, which gives an affine parametric second-order
system.  The default configuration is a 4-mass chain with 6 springs (5 chain
plus one cross coupling) and 4 dampers, 14 parameters in total, driven
through the lowest ground spring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .galerkin import ParametricSecondOrderSystem
from .jsonconfig import read, read_object

__all__ = [
    "MsdConfig",
    "default_config",
    "config_from_dict",
    "build_msd",
]

# (end_a, end_b, nominal value); 0 = ground.  The nominal values are chosen
# so that the degree-2 Galerkin system keeps a numerical Hankel rank above
# 100 (light damping on the chain) while its passivity-loss measure still
# shrinks between r = 10 and r = 100 (heterogeneous stiffness and damping).
DEFAULT_MASSES = (1.0, 1.5, 2.0, 2.5)
DEFAULT_SPRINGS = ((0, 1, 120.0), (1, 2, 100.0), (2, 3, 90.0), (3, 4, 140.0), (1, 3, 50.0), (4, 0, 110.0))
DEFAULT_DAMPERS = ((1, 2, 0.05), (2, 3, 0.22), (3, 4, 0.04), (4, 0, 0.55))


@dataclass(frozen=True)
class MsdConfig:
    """Connectivity table and nominal coefficients of the benchmark.

    ``springs`` and ``dampers`` are (end_a, end_b, value) triples with mass
    indices 1..n and 0 for the ground.  ``input_spring`` is the 1-based index
    of the grounded spring through which the excitation enters.  ``delta`` is
    the relative half-width of the uniform parameter variation.  Every mass
    needs a chain of springs to the ground; without one K is singular.  A
    value out of range raises a ConfigError (a ValueError) naming the key
    path of the model description that holds it, such as ``springs[0]``.
    """

    masses: tuple[float, ...] = DEFAULT_MASSES
    springs: tuple[tuple[int, int, float], ...] = DEFAULT_SPRINGS
    dampers: tuple[tuple[int, int, float], ...] = DEFAULT_DAMPERS
    input_spring: int = 6
    delta: float = 0.10

    def __post_init__(self):
        n = len(self.masses)
        if n == 0:
            raise ConfigError("model key 'masses' holds no mass; at least one mass is required")
        for i, v in enumerate(self.masses):
            if not (math.isfinite(v) and v > 0):
                raise ConfigError(f"model key 'masses[{i}]': masses must be positive and finite, got {v}")
        elements = (("spring", "stiffness", self.springs), ("damper", "coefficient", self.dampers))
        for kind, value_key, elems in elements:
            for i, (a, b, v) in enumerate(elems):
                key = f"{kind}s[{i}]"
                if not (math.isfinite(v) and v > 0):
                    raise ConfigError(
                        f"model key '{key}.{value_key}': nominal {kind} values must be positive "
                        f"and finite, got {v}"
                    )
                if not (0 <= a <= n and 0 <= b <= n):
                    raise ConfigError(f"model key '{key}': {kind} endpoint out of range: ({a}, {b})")
                if a == b:
                    raise ConfigError(f"model key '{key}': {kind} needs distinct endpoints, got ({a}, {b})")
        if not 0 <= self.delta < 1:
            raise ConfigError(f"model key 'delta' must lie in [0, 1), got {self.delta}")
        if not 1 <= self.input_spring <= len(self.springs):
            raise ConfigError(f"model key 'input_spring' must index a spring (1..{len(self.springs)})")
        a, b, _ = self.springs[self.input_spring - 1]
        if a != 0 and b != 0:
            raise ConfigError("model key 'input_spring': the input spring must have one ground endpoint")
        loose = _ungrounded(n, self.springs)
        if loose:
            raise ConfigError(
                f"model key 'springs': mass {loose[0]} has no spring path to the ground (endpoint 0), "
                "so the stiffness matrix is singular"
            )

    @property
    def n(self) -> int:
        return len(self.masses)

    @property
    def q(self) -> int:
        """Parameter count: one per mass, spring, and damper."""
        return len(self.masses) + len(self.springs) + len(self.dampers)


def _ungrounded(n: int, springs) -> list[int]:
    """Masses (1-based) that no chain of springs connects to the ground."""
    reached = {0}
    grew = True
    while grew:
        grew = False
        for a, b, _ in springs:
            if (a in reached) != (b in reached):
                reached.update((a, b))
                grew = True
    return [i for i in range(1, n + 1) if i not in reached]


def default_config() -> MsdConfig:
    """Benchmark nominals: graded masses, stiff chain, light damping."""
    return MsdConfig()


def config_from_dict(raw: dict) -> MsdConfig:
    """Build an MsdConfig from a parsed model description.

    Keys: ``masses`` (array of numbers), ``springs`` (array of {"ends": [a,
    b], "stiffness": v}), ``dampers`` (array of {"ends": [a, b],
    "coefficient": v} or {"mass": i, "coefficient": v} for a ground
    attachment), ``input_spring`` (1-based, default 1), ``delta`` (default
    0.10).  Each element gives its value key and exactly one of ``ends`` and
    ``mass``.  A missing, unknown or mistyped key raises a ConfigError naming
    its key path, such as ``springs[0].ends``.
    """
    required = ("masses", "springs", "dampers")
    raw = read_object(raw, "", (*required, "input_spring", "delta"), required, noun="model")

    def elements(key, value_key):
        for i, entry in enumerate(read(raw[key], list, key)):
            where = f"{key}[{i}]"
            entry = read_object(entry, where, ("ends", "mass", value_key), (value_key,), noun="model")
            if ("ends" in entry) == ("mass" in entry):
                given = "both" if "ends" in entry else "neither of"
                raise ConfigError(f"model key '{where}' gives {given} 'ends' and 'mass'; give one")
            value = read(entry[value_key], float, f"{where}.{value_key}")
            if "ends" in entry:
                yield (*read(entry["ends"], tuple[int, int], f"{where}.ends"), value)
            else:
                yield read(entry["mass"], int, f"{where}.mass"), 0, value

    masses = read(raw["masses"], list, "masses")
    return MsdConfig(
        masses=tuple(read(v, float, f"masses[{i}]") for i, v in enumerate(masses)),
        springs=tuple(elements("springs", "stiffness")),
        dampers=tuple(elements("dampers", "coefficient")),
        input_spring=read(raw.get("input_spring", 1), int, "input_spring"),
        delta=read(raw.get("delta", 0.10), float, "delta"),
    )


def _incidence(n: int, a: int, b: int) -> np.ndarray:
    """Stiffness/damping pattern of one element between endpoints a and b."""
    e = np.zeros((n, n))
    for end in (a, b):
        if end > 0:
            e[end - 1, end - 1] += 1.0
    if a > 0 and b > 0:
        e[a - 1, b - 1] -= 1.0
        e[b - 1, a - 1] -= 1.0
    return e


def build_msd(cfg: MsdConfig) -> ParametricSecondOrderSystem:
    """Assemble the affine-parametric system of the configured network.

    Parameter order: masses, then springs, then dampers, each entering only
    its own matrix family.  The input vector is the nominal stiffness of the
    input spring times the unit vector of the mass it is attached to.
    """
    n, q = cfg.n, cfg.q
    zero = np.zeros((n, n))
    M_terms = [np.diag(np.asarray(cfg.masses, dtype=float))] + [zero] * q
    K_terms = [np.zeros((n, n))] + [zero] * q
    D_terms = [np.zeros((n, n))] + [zero] * q

    k = 1
    for i, m in enumerate(cfg.masses):
        M_terms[k] = cfg.delta * m * _incidence(n, i + 1, 0)
        k += 1
    for a, b, stiffness in cfg.springs:
        pattern = _incidence(n, a, b)
        K_terms[0] = K_terms[0] + stiffness * pattern
        K_terms[k] = cfg.delta * stiffness * pattern
        k += 1
    for a, b, coeff in cfg.dampers:
        pattern = _incidence(n, a, b)
        D_terms[0] = D_terms[0] + coeff * pattern
        D_terms[k] = cfg.delta * coeff * pattern
        k += 1

    a, b, stiffness = cfg.springs[cfg.input_spring - 1]
    driven_mass = a if a > 0 else b
    B = np.zeros((n, 1))
    B[driven_mass - 1, 0] = stiffness

    return ParametricSecondOrderSystem(
        M_terms=tuple(M_terms), D_terms=tuple(D_terms), K_terms=tuple(K_terms), B=B
    )

