"""Experiment configuration: JSON documents validated against a published schema."""
from __future__ import annotations

import dataclasses
import json
import math

__all__ = ["ConfigError", "ExperimentConfig", "SCENARIOS", "config_schema",
           "parse_config", "load_config"]


class ConfigError(ValueError):
    """Configuration document is malformed."""


def _int(lo, hi=math.inf):
    """Validator of integers in [lo, hi)."""
    def check(v):
        if not isinstance(v, int) or isinstance(v, bool) or not lo <= v < hi:
            raise ConfigError(f"expected an integer in [{lo}, {hi}), got {v!r}")
        return v
    return check


def _level(v):
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0.0 < float(v) < 1.0:
        raise ConfigError(f"expected a level in (0, 1), got {v!r}")
    return float(v)


def _number(v):
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {v!r}")
    return float(v)


def _positive_number(v):
    v = _number(v)
    if v <= 0:
        raise ConfigError(f"expected a positive number, got {v!r}")
    return v


def _number_list(v):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"expected a nonempty list of numbers, got {v!r}")
    return [_number(x) for x in v]


def _string(allowed=None):
    def check(v):
        if not isinstance(v, str):
            raise ConfigError(f"expected a string, got {v!r}")
        if allowed is not None and v not in allowed:
            raise ConfigError(f"expected one of {sorted(allowed)}, got {v!r}")
        return v
    return check


def _bool(v):
    if not isinstance(v, bool):
        raise ConfigError(f"expected a boolean, got {v!r}")
    return v


def _prior(v):
    if not isinstance(v, dict) or set(v) != {"support", "probs"}:
        raise ConfigError("prior must be {'support': [...], 'probs': [...]}")
    support = v["support"]
    if not isinstance(support, list) or not all(
        isinstance(k, int) and not isinstance(k, bool) and k >= 1 for k in support
    ):
        raise ConfigError("prior support must be positive integers")
    return {"support": support, "probs": _number_list(v["probs"])}


_WINNERS = {
    "m": (_int(1), True),
    "theta": (_number_list, True),
    "sigma": (_positive_number, False),
    "level": (_level, True),
    "n_reps": (_int(1), True),
}
_SCREENING = {
    "n": (_int(1), True),
    "p": (_int(1), True),
    "threshold": (_positive_number, True),
    "beta": (_number_list, False),
    "n_reps": (_int(1), True),
}

# scenario name -> {param: (validator, required)}
SCENARIOS = {
    "winners-coverage": _WINNERS,
    "winners-compare": _WINNERS,
    "polyhedral-uniformity": _SCREENING,
    "polyhedral-coverage": {**_SCREENING, "level": (_level, True)},
    "two-stage-compare": {
        "prior": (_prior, True),
        "n2": (_int(0), True),
        "theta": (_number, True),
        "threshold": (_positive_number, False),
        "level": (_level, True),
        "regime": (_string({"joint", "fixed-n1"}), True),
        "n_reps": (_int(1), True),
    },
    "location-coverage": {
        "family": (_string({"gaussian", "laplace", "logistic"}), True),
        "n": (_int(1), True),
        "theta": (_number, True),
        "selection_alpha": (_level, True),
        "level": (_level, True),
        "n_reps": (_int(1), True),
    },
    "ancillarity-audit": {
        "audits": (_int(1), True),
        "eps": (_level, True),
        "counterexample": (_bool, False),
    },
}

_TOP_LEVEL = {"scenario", "params", "seed", "parallelism"}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    params: dict
    seed: int
    parallelism: int = 1

    def replace(self, **kw) -> "ExperimentConfig":
        return parse_config({**dataclasses.asdict(self), **kw})


def config_schema() -> dict:
    """Machine-readable schema of accepted configuration documents."""
    return {
        "type": "object",
        "required": ["scenario", "params", "seed"],
        "additionalProperties": False,
        "properties": {
            "scenario": {"enum": sorted(SCENARIOS)},
            "seed": {"type": "integer", "minimum": 0, "maximum": 2**64 - 1},
            "parallelism": {"type": "integer", "minimum": 1},
            "params": {
                scenario: {
                    "required": sorted(k for k, (_, req) in spec.items() if req),
                    "optional": sorted(k for k, (_, req) in spec.items() if not req),
                }
                for scenario, spec in SCENARIOS.items()
            },
        },
    }


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(doc) - _TOP_LEVEL
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    missing = {"scenario", "params", "seed"} - set(doc)
    if missing:
        raise ConfigError(f"missing required keys: {sorted(missing)}")
    scenario = doc["scenario"]
    if scenario not in SCENARIOS:
        raise ConfigError(f"unknown scenario {scenario!r}; known: {sorted(SCENARIOS)}")
    seed = _int(0, 2**64)(doc["seed"])
    parallelism = _int(1)(doc.get("parallelism", 1))
    params_in = doc["params"]
    if not isinstance(params_in, dict):
        raise ConfigError("params must be an object")
    spec = SCENARIOS[scenario]
    unknown = set(params_in) - set(spec)
    if unknown:
        raise ConfigError(f"unknown params for {scenario}: {sorted(unknown)}")
    params = {}
    for key, (validator, required) in spec.items():
        if key in params_in:
            params[key] = validator(params_in[key])
        elif required:
            raise ConfigError(f"missing required param {key!r} for {scenario}")
    if scenario in ("winners-coverage", "winners-compare"):
        if len(params["theta"]) != params["m"]:
            raise ConfigError("theta must have length m")
        if params["m"] < 2:
            raise ConfigError("m must be at least 2")
    if scenario in ("polyhedral-uniformity", "polyhedral-coverage"):
        if "beta" in params and len(params["beta"]) != params["p"]:
            raise ConfigError("beta must have length p")
    return ExperimentConfig(scenario, params, seed, parallelism)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(doc)
