"""Plain-text configuration for the CLI.

Format: one `key = value` per line, keys carry dotted section prefixes
(`mesh.n = 64`), `#` starts a comment.  Every key has a default, so the
empty file is a valid configuration (unit square, exponential law, linear
flux).  `parse_config` checks each key and returns the one settings type,
`corrinv.experiments.ExperimentConfig`, whose construction checks the rules
that span keys.  Errors carry the file name and line number of the
offending key.
"""

from __future__ import annotations

import math

import numpy as np

from corrinv.experiments import ExperimentConfig, FieldError
from corrinv.forward import ExponentialLaw, FluxProfile, LinearLaw, TabulatedLaw
from corrinv.geometry import BoundaryTag, DomainSpec

__all__ = ["ConfigError", "parse_config", "config_key", "DEFAULT_CONFIG_TEXT"]


class ConfigError(ValueError):
    """Invalid configuration; the message names the key and constraint."""


# documented defaults: the unit square grounded on bottom and left, measured
# on the right, corroding on top, with the default exponential law
DEFAULT_CONFIG_TEXT = """\
domain.vertices = 0,0 1,0 1,1 0,1
domain.tags = gammaD gamma2 gamma1 gammaD
mesh.n = 64
model.kind = exponential
model.lam = 0.1
model.a = 0.5
model.umax = 10.0
flux.kind = polynomial
flux.coeffs = 0,1
noise.eps = 0.0
noise.seed = 0
continuation.basis = poly
continuation.degree = 8
continuation.corner_terms = true
continuation.lift_passes = 1
continuation.mu0 = 1e-10
continuation.tau = 1.2
samples.gamma1 = 101
samples.gammad = 129
reconstruct.eta_factor = 0.25
reconstruct.trim_factor = 2.0
sweep.eps_levels = 3e-2,1e-2,3e-3,1e-3
sweep.seeds = 10
oscillation.magnitudes = 0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0
check.trials = 100
check.rho0 = 0.1
check.center = 0.5,0.5
check.seed = 0
"""


def _parse_lines(text: str, source: str):
    """key -> (value string, line number); duplicate keys rejected."""
    entries = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key:
            raise ConfigError(f"{source}:{ln}: empty key")
        if key in entries:
            raise ConfigError(f"{source}:{ln}: duplicate key {key!r} "
                              f"(first set on line {entries[key][1]})")
        entries[key] = (value, ln)
    return entries


class _Reader:
    """Typed access to parsed entries with per-key diagnostics."""

    def __init__(self, entries, defaults, source):
        self.entries = entries
        self.defaults = defaults
        self.source = source

    def _raw(self, key):
        return self.entries[key] if key in self.entries else self.defaults[key]

    def fail(self, key, message):
        loc = self.source
        if key in self.entries:
            loc = f"{self.source}:{self.entries[key][1]}"
        raise ConfigError(f"{loc}: {key}: {message}")

    def _finite(self, key, text, message):
        """float(text); fails with message on a non-number and on nan/inf."""
        try:
            x = float(text)
        except ValueError:
            self.fail(key, message)
        if not math.isfinite(x):
            self.fail(key, f"not a finite number: {text!r}")
        return x

    def str_(self, key, choices=None):
        value, _ = self._raw(key)
        if choices is not None and value not in choices:
            self.fail(key, f"must be one of {sorted(choices)}, got {value!r}")
        return value

    def float_(self, key, minimum=None, exclusive_min=None):
        value, _ = self._raw(key)
        x = self._finite(key, value, f"not a number: {value!r}")
        if minimum is not None and x < minimum:
            self.fail(key, f"must be >= {minimum:g}")
        if exclusive_min is not None and x <= exclusive_min:
            self.fail(key, f"must be > {exclusive_min:g}")
        return x

    def int_(self, key, minimum=None):
        value, _ = self._raw(key)
        try:
            x = int(value)
        except ValueError:
            self.fail(key, f"not an integer: {value!r}")
        if minimum is not None and x < minimum:
            self.fail(key, f"must be >= {minimum}")
        return x

    def bool_(self, key):
        value, _ = self._raw(key)
        if value.lower() in ("true", "yes", "1"):
            return True
        if value.lower() in ("false", "no", "0"):
            return False
        self.fail(key, f"not a boolean: {value!r}")

    def floats(self, key):
        value, _ = self._raw(key)
        return tuple(self._finite(key, s, f"not a number list: {value!r}")
                     for s in value.replace(",", " ").split())

    def pairs(self, key):
        value, _ = self._raw(key)
        out = []
        for tok in value.split():
            parts = tok.split(",")
            if len(parts) != 2:
                self.fail(key, f"expected x,y pairs, got {tok!r}")
            message = f"not a coordinate pair: {tok!r}"
            out.append(tuple(self._finite(key, x, message) for x in parts))
        return out


# config key of each ExperimentConfig field that FieldError can name; the
# key of the flux depends on its kind
_FIELD_KEYS = {
    "eps_levels": "sweep.eps_levels",
    "seeds_per_level": "sweep.seeds",
    "oscillation_magnitudes": "oscillation.magnitudes",
    "domain.r0": "domain.r0",
}
_FLUX_KEYS = {"constant": "flux.value", "polynomial": "flux.coeffs",
              "tabulated": "flux.g_knots"}


def config_key(settings: ExperimentConfig, field: str) -> str:
    """Config key behind a FieldError raised while running ``settings``."""
    if field == "flux":
        return _FLUX_KEYS[settings.flux.kind]
    return _FIELD_KEYS[field]


def parse_config(path=None, text: str | None = None) -> ExperimentConfig:
    """Read, validate and assemble the run settings.

    Exactly one of path/text must be given; unknown keys are rejected so
    typos never silently fall back to defaults.
    """
    if (path is None) == (text is None):
        raise ValueError("pass exactly one of path or text")
    if path is not None:
        source = str(path)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        source = "<config>"
    entries = _parse_lines(text, source)
    defaults = _parse_lines(DEFAULT_CONFIG_TEXT, "<defaults>")
    # optional keys without defaults
    optional = {"model.slope", "flux.value", "flux.t_knots", "flux.g_knots",
                "model.u_knots", "model.f_knots", "samples.gamma2",
                "continuation.charges", "continuation.offset_factor",
                "domain.r0", "domain.diameter_bound"}
    unknown = set(entries) - set(defaults) - optional
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{source}:{entries[key][1]}: unknown key {key!r}")
    r = _Reader(entries, defaults, source)

    vertices = r.pairs("domain.vertices")
    tag_names = r.str_("domain.tags").split()
    try:
        tags = tuple(BoundaryTag.parse(name) for name in tag_names)
    except ValueError as exc:
        r.fail("domain.tags", str(exc))
    domain_kwargs = {}
    if "domain.r0" in entries:
        domain_kwargs["r0"] = r.float_("domain.r0", exclusive_min=0.0)
    if "domain.diameter_bound" in entries:
        domain_kwargs["diameter_bound"] = r.float_("domain.diameter_bound",
                                                   exclusive_min=0.0)
    try:
        domain = DomainSpec(vertices=vertices, side_tags=tags, **domain_kwargs)
    except Exception as exc:
        r.fail("domain.tags", str(exc))

    model_kind = r.str_("model.kind",
                        choices={"exponential", "linear", "tabulated"})
    if model_kind == "exponential":
        a = r.float_("model.a")
        if not 0.0 < a < 1.0:
            r.fail("model.a", "transfer coefficient must lie in (0,1)")
        model = ExponentialLaw(lam=r.float_("model.lam"), a=a,
                               u_max=r.float_("model.umax",
                                              exclusive_min=0.0))
    elif model_kind == "linear":
        model = LinearLaw(r.float_("model.slope") if "model.slope" in entries
                          else 1.0)
    else:
        uk = r.floats("model.u_knots") if "model.u_knots" in entries else None
        fk = r.floats("model.f_knots") if "model.f_knots" in entries else None
        if uk is None or fk is None:
            r.fail("model.kind",
                   "tabulated model needs model.u_knots and model.f_knots")
        try:
            model = TabulatedLaw(np.asarray(uk), np.asarray(fk))
        except Exception as exc:
            r.fail("model.u_knots", str(exc))

    flux_kind = r.str_("flux.kind",
                       choices={"constant", "polynomial", "tabulated"})
    if flux_kind == "constant":
        if "flux.value" not in entries:
            r.fail("flux.kind", "constant flux needs flux.value")
        flux = FluxProfile.constant(r.float_("flux.value"))
    elif flux_kind == "polynomial":
        flux = FluxProfile.polynomial(r.floats("flux.coeffs"))
    else:
        if "flux.t_knots" not in entries or "flux.g_knots" not in entries:
            r.fail("flux.kind",
                   "tabulated flux needs flux.t_knots and flux.g_knots")
        flux = FluxProfile.tabulated(np.asarray(r.floats("flux.t_knots")),
                                     np.asarray(r.floats("flux.g_knots")))

    center = r.floats("check.center")
    if len(center) != 2:
        r.fail("check.center", "expected a coordinate pair")
    # keys without a default line: the dataclass default applies when absent
    given = {}
    if "samples.gamma2" in entries:
        given["gamma2_samples"] = r.int_("samples.gamma2", minimum=3)
    if "continuation.charges" in entries:
        given["mfs_charges"] = r.int_("continuation.charges", minimum=1)
    if "continuation.offset_factor" in entries:
        given["mfs_offset_factor"] = r.float_("continuation.offset_factor",
                                              exclusive_min=0.0)

    try:
        return ExperimentConfig(
            domain=domain,
            mesh_n=r.int_("mesh.n", minimum=2),
            model=model,
            flux=flux,
            eps_levels=r.floats("sweep.eps_levels"),
            seeds_per_level=r.int_("sweep.seeds", minimum=1),
            noise_eps=r.float_("noise.eps", minimum=0.0),
            noise_seed=r.int_("noise.seed", minimum=0),
            basis_kind=r.str_("continuation.basis", choices={"poly", "mfs"}),
            basis_degree=r.int_("continuation.degree", minimum=1),
            corner_terms=r.bool_("continuation.corner_terms"),
            lift_passes=r.int_("continuation.lift_passes", minimum=0),
            mu0=r.float_("continuation.mu0", minimum=0.0),
            tau=r.float_("continuation.tau", exclusive_min=1.0),
            gamma1_samples=r.int_("samples.gamma1", minimum=3),
            # trace_sample needs two points per curve
            gammad_samples=r.int_("samples.gammad", minimum=2),
            eta_factor=r.float_("reconstruct.eta_factor", exclusive_min=0.0),
            trim_factor=r.float_("reconstruct.trim_factor", minimum=0.0),
            oscillation_magnitudes=r.floats("oscillation.magnitudes"),
            check_trials=r.int_("check.trials", minimum=10),
            check_rho0=r.float_("check.rho0", exclusive_min=0.0),
            check_center=center,
            check_seed=r.int_("check.seed", minimum=0),
            **given,
        )
    except FieldError as exc:
        r.fail(_FIELD_KEYS[exc.field], str(exc))

