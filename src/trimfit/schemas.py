"""JSON schemas for the documents the package reads.

Input files (generate and experiment configs, subspace bases) are validated
on load, so missing or mistyped fields fail with the file and the field
named. The documents the package writes are defined by the code that builds
them alone; README.md lists their fields.
"""

from __future__ import annotations

import jsonschema

from .gd import SCHEDULES
from .ilts import RANK_POLICIES
from .model import ADVERSARIES
from .pipeline import PROVENANCES

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["d", "m", "components", "weights", "n", "seed"],
    "properties": {
        "d": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "components": {"type": "array", "items": _NUMBER_ARRAY},
        "weights": _NUMBER_ARRAY,
        "covariance": {
            "anyOf": [
                {"type": "null"},
                {"type": "array",
                 "items": {"anyOf": [{"type": "null"},
                                     {"type": "array", "items": _NUMBER_ARRAY}]}},
            ]
        },
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

CORRUPTION_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma_star": {"type": "number", "minimum": 0},
        "adversary": {"enum": list(ADVERSARIES)},
        "magnitude": {"type": "number", "exclusiveMinimum": 0},
    },
    "additionalProperties": False,
}

GENERATE_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "name", "model"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "name": {"type": "string", "minLength": 1},
        "model": MODEL_SCHEMA,
        "corruption": CORRUPTION_SCHEMA,
        "output_dir": {"type": "string"},
    },
    "additionalProperties": False,
}

SUBSPACE_FILE_SCHEMA = {
    "type": "object",
    "required": ["basis"],
    "properties": {
        "basis": {"type": "array", "items": _NUMBER_ARRAY},
        "provenance": {"enum": list(PROVENANCES)},
    },
    "additionalProperties": False,
}

SOLVER_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["ilts", "gd-ilts", "global"]},
        "tau": {"type": "number"},
        "max_rounds": {"type": "integer", "minimum": 1},
        "tol": {"type": "number", "minimum": 0},
        "rank_policy": {"enum": list(RANK_POLICIES)},
        "theta0": {"anyOf": [_NUMBER_ARRAY, {"const": "random"}]},
        "eta": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        "schedule": {"enum": list(SCHEDULES)},
        "m_steps": {"type": "integer", "minimum": 1},
        "w": {"type": "number"},
        "c_u": {"type": "number"},
        "m": {"type": "integer", "minimum": 1},
        "tau_list": _NUMBER_ARRAY,
        "delta": {"type": "number"},
        "candidate_budget": {"type": "integer", "minimum": 1},
        "epsilon_net": {"type": "number"},
        "radius": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        "seed": {"type": "integer"},
    },
    "additionalProperties": False,
}

EXPERIMENT_CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "name", "solver", "repeats", "output_dir"],
    "properties": {
        "version": {"type": "integer", "minimum": 1},
        "name": {"type": "string", "minLength": 1},
        "model": MODEL_SCHEMA,
        "corruption": CORRUPTION_SCHEMA,
        "dataset": {"type": "string"},
        "truth": {"type": "string"},
        "solver": SOLVER_SCHEMA,
        "diagnostics": {"type": "array",
                        "items": {"enum": ["q_separation", "gamma_star"]}},
        "repeats": {"type": "integer", "minimum": 1},
        "output_dir": {"type": "string"},
    },
    "additionalProperties": False,
}


def validate_document(doc: dict, schema: dict, label: str) -> None:
    """Validate doc against schema, raising ValueError naming the document."""
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        location = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ValueError(f"{label}: {exc.message} (at {location})") from None
