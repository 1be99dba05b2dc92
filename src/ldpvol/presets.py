"""Bundled model presets, one runnable configuration per supported family.

Each preset is a factory returning a fresh ModelSpec.  Presets are also the
named forms understood by the JSON model files consumed by the CLI.
"""

from __future__ import annotations

import inspect

import numpy as np

from . import kernels as _k
from .errors import UnsupportedFormError, require_number
from .ratefn import ModelSpec
from .volmap import (
    FRACTIONAL,
    GAUSSIAN,
    MIXED,
    REFLECTED,
    VolProcessSpec,
    cir_coefficients,
    ou_coefficients,
)


def bs_const(sigma0: float = 0.2, r: float = 0.0, s0: float = 1.0, rho: float = 0.0):
    """Constant volatility; every asymptotic quantity has a closed form.

    The vol is declared constant (a Gaussian vol with no noise kernel, so it
    is its offset y), which tells the simulator that nothing reads the vol
    part: its blocks build none, and with rho = 0 they draw no driver noise
    dB either, only the price noise dW."""
    vol = VolProcessSpec(family=GAUSSIAN, noise_kernels=[[None]])
    return ModelSpec(
        m=1,
        vol=vol,
        sigma=lambda t, u: np.full(np.shape(u)[:-1], sigma0),
        rho=rho,
        s0=[s0],
        r=r,
        sigma_positive=True,
        assumption_b=True,
        name="bs_const",
    )


def toy_sabr():
    """Uncorrelated lognormal-volatility model with the identity skeleton."""
    vol = VolProcessSpec(family=GAUSSIAN, noise_kernels=[[_k.brownian()]])
    return ModelSpec(
        m=1,
        vol=vol,
        sigma=lambda t, u: np.exp(-0.5 * t + u[..., 0]),
        rho=0.0,
        s0=[1.0],
        r=0.0,
        sigma_positive=True,
        assumption_b=True,
        name="toy_sabr",
    )


def rough_gauss(hurst: float = 0.3, sigma0: float = 0.2, rho: float = -0.3):
    """Rough one-factor model: exponential vol of a rough Gaussian driver."""
    vol = VolProcessSpec(
        family=GAUSSIAN, d=1, m=1, noise_kernels=[[_k.riemann_liouville(hurst)]]
    )
    return ModelSpec(
        m=1,
        vol=vol,
        sigma=lambda t, u: sigma0 * np.exp(u[..., 0]),
        rho=rho,
        s0=[1.0],
        r=0.0,
        sigma_positive=True,
        assumption_b=True,
        name="rough_gauss",
    )


def frac_heston(
    hurst: float = 0.7,
    kappa: float = 1.0,
    theta: float = 0.04,
    eta: float = 0.3,
    v0: float = 0.04,
    x: float = 0.01,
    rho: float = -0.5,
    r: float = 0.0,
):
    """Square-root variance fed through a fractional kernel; vol can vanish."""
    drift, disp = cir_coefficients(kappa, theta, eta)
    vol = VolProcessSpec(
        family=FRACTIONAL,
        d=1,
        m=1,
        k_dim=1,
        drift_kernels=[_k.riemann_liouville(hurst)],
        u_map=lambda v: v,
        aux_drift=drift,
        aux_disp=disp,
        v0=[v0],
        y=[x],
    )
    return ModelSpec(
        m=1,
        vol=vol,
        sigma=lambda t, u: np.sqrt(np.maximum(u[..., 0], 0.0)),
        rho=rho,
        s0=[1.0],
        r=r,
        sigma_positive=False,
        assumption_b=True,
        name="frac_heston",
    )


def mixed_demo(
    hurst_noise: float = 0.3,
    hurst_drift: float = 0.7,
    xi0: float = 0.2,
    kappa: float = 1.5,
    mu: float = 0.0,
    eta: float = 0.4,
):
    """Two-asset mixed model with rotation-times-scalar volatility.

    The volatility state combines a rough Gaussian part with a kernel-smoothed
    transform of an Ornstein-Uhlenbeck auxiliary process; the price volatility
    rotates with the first state component.
    """
    drift, disp = ou_coefficients(kappa, mu, eta)

    def disp2(t, v):
        base = disp(t, v)
        return np.concatenate([base, np.zeros_like(base)], axis=-1)  # k x m, m = 2

    kern_n = _k.riemann_liouville(hurst_noise)
    kern_d = _k.riemann_liouville(hurst_drift)
    vol = VolProcessSpec(
        family=MIXED,
        d=2,
        m=2,
        k_dim=2,
        noise_kernels=[[kern_n, None], [None, kern_n]],
        drift_kernels=[kern_d, kern_d],
        u_map=np.abs,
        aux_drift=drift,
        aux_disp=disp2,
        v0=[0.0, 0.0],
        y=[0.0, 0.0],
    )

    def xi(t, u):
        return xi0 * np.exp(u[..., 0])

    def o_map(t, u):
        z = u[..., 0]
        c, s = np.cos(z), np.sin(z)
        out = np.empty(np.shape(z) + (2, 2))
        out[..., 0, 0] = c
        out[..., 0, 1] = -s
        out[..., 1, 0] = s
        out[..., 1, 1] = c
        return out

    return ModelSpec(
        m=2,
        vol=vol,
        xi=xi,
        o_map=o_map,
        C=0.5 * np.eye(2),
        s0=[1.0, 1.0],
        r=0.0,
        sigma_positive=True,
        assumption_b=True,
        name="mixed_demo",
    )


def reflected_ou(
    kappa: float = 2.0, mu: float = 0.2, eta: float = 0.5, y: float = 0.2
):
    """Volatility level given by an instantaneously reflecting mean-reverting
    process; the price volatility is the level itself, so it may vanish."""
    drift, disp = ou_coefficients(kappa, mu, eta)
    vol = VolProcessSpec(
        family=REFLECTED,
        d=1,
        m=1,
        k_dim=1,
        aux_drift=drift,
        aux_disp=disp,
        y=[y],
        reflect=True,
    )
    return ModelSpec(
        m=1,
        vol=vol,
        sigma=lambda t, u: u[..., 0],
        rho=0.0,
        s0=[1.0],
        r=0.0,
        sigma_positive=False,
        assumption_b=False,  # exponential integrability not established here
        name="reflected_ou",
    )


PRESETS = {
    "bs_const": bs_const,
    "toy_sabr": toy_sabr,
    "rough_gauss": rough_gauss,
    "frac_heston": frac_heston,
    "mixed_demo": mixed_demo,
    "reflected_ou": reflected_ou,
}


def make_model(name: str, **params) -> ModelSpec:
    """The named preset, its numeric parameters overridden by ``params``."""
    if not isinstance(name, str) or name not in PRESETS:
        raise UnsupportedFormError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    factory = PRESETS[name]
    accepted = sorted(inspect.signature(factory).parameters)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        raise UnsupportedFormError(
            f"preset {name!r} has no parameter {unknown}; it accepts {accepted}"
        )
    for key, value in params.items():
        require_number(value, f"preset parameter {key}")
    return factory(**params)


def model_from_json_obj(obj: dict) -> ModelSpec:
    """Model files are a preset reference plus overriding parameters."""
    if not isinstance(obj, dict) or "preset" not in obj:
        raise UnsupportedFormError("model JSON must be an object with a 'preset' key")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise UnsupportedFormError(f"model 'params' must be an object, got {params!r}")
    return make_model(obj["preset"], **params)
