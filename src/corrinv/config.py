"""Plain-text configuration for the CLI.

Format: one `key = value` per line, keys carry dotted section prefixes
(`mesh.n = 64`), `#` starts a comment.  `_KEYS` declares each key once;
every key is optional or has a default, so the empty file is valid (unit
square, exponential law, linear flux).  `parse_config` checks each key and
returns the one settings type,
`corrinv.experiments.ExperimentConfig`, whose construction checks the rules
that the key table's bounds cannot state.  Errors carry the file name and
line number of the offending key.
"""

from __future__ import annotations

import math

import numpy as np

from corrinv.continuation import FieldError
from corrinv.experiments import ExperimentConfig
from corrinv.forward import ExponentialLaw, FluxProfile, LinearLaw, TabulatedLaw
from corrinv.geometry import BoundaryTag, DomainSpec, GeometryError


class ConfigError(ValueError):
    """Invalid configuration; the message names the key and constraint."""


# key -> (default text, ExperimentConfig field, kind, bound); kind is str,
# int, float, bool, floats (number list) or pairs (x,y list), bound is
# (">=", x), (">", x), a set of choices or None.  A key without a default is
# optional; one without a field is read by its branch of parse_config.
_KEYS = {
    "domain.vertices": ("0,0 1,0 1,1 0,1", None, "pairs", None),
    "domain.tags": ("gammaD gamma2 gamma1 gammaD", None, "str", None),
    "domain.r0": ("0.1", None, "float", (">", 0.0)),
    "domain.diameter_bound": ("10.0", None, "float", (">", 0.0)),
    "mesh.n": ("64", "mesh_n", "int", (">=", 2)),
    "model.kind": ("exponential", None, "str",
                   {"exponential", "linear", "tabulated"}),
    "model.lam": ("0.1", None, "float", None),
    "model.a": ("0.5", None, "float", None),
    "model.umax": ("10.0", None, "float", (">", 0.0)),
    "model.slope": (None, None, "float", None),
    "model.u_knots": (None, None, "floats", None),
    "model.f_knots": (None, None, "floats", None),
    "flux.kind": ("polynomial", None, "str",
                  {"constant", "polynomial", "tabulated"}),
    "flux.coeffs": ("0,1", None, "floats", None),
    "flux.value": (None, None, "float", None),
    "flux.t_knots": (None, None, "floats", None),
    "flux.g_knots": (None, None, "floats", None),
    "noise.eps": ("0.0", "noise_eps", "float", (">=", 0.0)),
    "noise.seed": ("0", "noise_seed", "int", (">=", 0)),
    "continuation.basis": ("poly", "basis_kind", "str", {"poly", "mfs"}),
    "continuation.degree": ("8", "basis_degree", "int", (">=", 1)),
    "continuation.corner_terms": ("true", "corner_terms", "bool", None),
    "continuation.lift_passes": ("1", "lift_passes", "int", (">=", 0)),
    "continuation.mu0": ("1e-10", "mu0", "float", (">=", 0.0)),
    "continuation.tau": ("1.2", "tau", "float", (">", 1.0)),
    "continuation.charges": ("64", "mfs_charges", "int", (">=", 1)),
    "continuation.offset_factor": ("0.5", "mfs_offset_factor", "float",
                                   (">", 0.0)),
    "samples.gamma1": ("101", "gamma1_samples", "int", (">=", 3)),
    "samples.gamma2": (None, "gamma2_samples", "int", (">=", 3)),
    # trace_sample needs two points per curve
    "samples.gammad": ("129", "gammad_samples", "int", (">=", 2)),
    "reconstruct.eta_factor": ("0.25", "eta_factor", "float", (">", 0.0)),
    "reconstruct.trim_factor": ("2.0", "trim_factor", "float", (">=", 0.0)),
    "sweep.eps_levels": ("3e-2,1e-2,3e-3,1e-3", "eps_levels", "floats", None),
    # ExperimentConfig asks for at least five
    "sweep.seeds": ("10", "seeds_per_level", "int", None),
    "oscillation.magnitudes": ("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
                               "oscillation_magnitudes", "floats", None),
    "check.trials": ("100", "check_trials", "int", (">=", 10)),
    "check.rho0": ("0.1", "check_rho0", "float", (">", 0.0)),
    "check.center": ("0.5,0.5", "check_center", "floats", None),
    "check.seed": ("0", "check_seed", "int", (">=", 0)),
}

# the documented default block: one line per key that has a default
DEFAULT_CONFIG_TEXT = "".join(f"{key} = {default}\n"
                              for key, (default, *_) in _KEYS.items()
                              if default is not None)


def parse_lines(text: str, source: str):
    """key -> (value string, line number) of the ``key = value`` lines of
    ``text``, read from ``source``; ``#`` starts a comment, and a line
    without ``=``, an empty key and a duplicate key raise ConfigError
    naming ``source`` and the line."""
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

    def __init__(self, entries, source):
        self.entries = entries
        self.source = source

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

    def get(self, key):
        """The value of ``key`` read as its kind and checked against its
        bound; None for an optional key that is not set."""
        default, _, kind, bound = _KEYS[key]
        value = self.entries[key][0] if key in self.entries else default
        if value is None:
            return None
        if kind == "str":
            x = value
        elif kind == "int":
            try:
                x = int(value)
            except ValueError:
                self.fail(key, f"not an integer: {value!r}")
        elif kind == "float":
            x = self._finite(key, value, f"not a number: {value!r}")
        elif kind == "bool":
            if value.lower() not in ("true", "yes", "1", "false", "no", "0"):
                self.fail(key, f"not a boolean: {value!r}")
            x = value.lower() in ("true", "yes", "1")
        elif kind == "floats":
            x = tuple(self._finite(key, s, f"not a number list: {value!r}")
                      for s in value.replace(",", " ").split())
        else:
            x = []
            for tok in value.split():
                parts = tok.split(",")
                if len(parts) != 2:
                    self.fail(key, f"expected x,y pairs, got {tok!r}")
                message = f"not a coordinate pair: {tok!r}"
                x.append(tuple(self._finite(key, s, message) for s in parts))
        if isinstance(bound, set) and x not in bound:
            self.fail(key, f"must be one of {sorted(bound)}, got {value!r}")
        op, limit = bound if isinstance(bound, tuple) else (None, None)
        if op == ">=" and x < limit or op == ">" and x <= limit:
            self.fail(key, f"must be {op} {limit:g}")
        return x


def parse_config(path=None, text: str | None = None) -> ExperimentConfig:
    """Read, validate and assemble the run settings.

    Exactly one of path/text must be given; unknown keys are rejected so
    typos never silently fall back to defaults.
    """
    if (path is None) == (text is None):
        raise ValueError("pass exactly one of path or text")
    source = "<config>" if path is None else str(path)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    entries = parse_lines(text, source)
    unknown = set(entries) - set(_KEYS)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{source}:{entries[key][1]}: unknown key {key!r}")
    r = _Reader(entries, source)

    vertices = r.get("domain.vertices")
    try:
        tags = tuple(BoundaryTag.parse(name)
                     for name in r.get("domain.tags").split())
    except ValueError as exc:
        r.fail("domain.tags", str(exc))
    try:
        domain = DomainSpec(vertices=vertices, side_tags=tags,
                            r0=r.get("domain.r0"),
                            diameter_bound=r.get("domain.diameter_bound"))
    except GeometryError as exc:
        r.fail(exc.key, str(exc))

    model_kind = r.get("model.kind")
    if model_kind == "exponential":
        a = r.get("model.a")
        if not 0.0 < a < 1.0:
            r.fail("model.a", "transfer coefficient must lie in (0,1)")
        model = ExponentialLaw(lam=r.get("model.lam"), a=a,
                               u_max=r.get("model.umax"))
    elif model_kind == "linear":
        slope = r.get("model.slope")
        model = LinearLaw(1.0 if slope is None else slope)
    else:
        uk, fk = r.get("model.u_knots"), r.get("model.f_knots")
        if uk is None or fk is None:
            r.fail("model.kind",
                   "tabulated model needs model.u_knots and model.f_knots")
        try:
            model = TabulatedLaw(np.asarray(uk), np.asarray(fk))
        except ValueError as exc:
            r.fail("model.u_knots", str(exc))

    flux_kind = r.get("flux.kind")
    if flux_kind == "constant":
        if "flux.value" not in entries:
            r.fail("flux.kind", "constant flux needs flux.value")
        key, args = "flux.value", {"value": r.get("flux.value")}
    elif flux_kind == "polynomial":
        key, args = "flux.coeffs", {"coeffs": r.get("flux.coeffs")}
    else:
        if "flux.t_knots" not in entries or "flux.g_knots" not in entries:
            r.fail("flux.kind",
                   "tabulated flux needs flux.t_knots and flux.g_knots")
        t, g = r.get("flux.t_knots"), r.get("flux.g_knots")
        # unequal knot lists are charged to the values, other faults to t
        key = "flux.t_knots" if len(t) == len(g) else "flux.g_knots"
        args = {"t_knots": t, "g_knots": g}
    try:
        flux = FluxProfile(flux_kind, **args)
    except ValueError as exc:
        r.fail(key, str(exc))

    fields = {field: r.get(key) for key, (_, field, _, _) in _KEYS.items()
              if field is not None}
    if len(fields["check_center"]) != 2:
        r.fail("check.center", "expected a coordinate pair")
    try:
        return ExperimentConfig(domain=domain, model=model, flux=flux,
                                **fields)
    except FieldError as exc:
        r.fail(exc.key, str(exc))
