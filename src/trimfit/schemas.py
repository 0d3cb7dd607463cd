"""JSON schemas for every document the package reads or writes.

Output documents are validated against these schemas before they reach disk;
input configuration files are validated on load so missing or mistyped
fields fail with the offending field named.
"""

from __future__ import annotations

import jsonschema

from .gd import SCHEDULES
from .ilts import RANK_POLICIES
from .model import ADVERSARIES
from .pipeline import PROVENANCES

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}
_NULLABLE_NUMBER_ARRAY = {
    "type": "array",
    "items": {"anyOf": [{"type": "number"}, {"type": "null"}]},
}

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

TRUTH_SCHEMA = {
    "type": "object",
    "required": ["format", "format_version", "generator", "generator_version",
                 "theta_star", "partition", "corrupted", "r", "tau_star"],
    "properties": {
        "format": {"const": "trimfit-truth"},
        "format_version": {"type": "integer"},
        "generator": {"type": "string"},
        "generator_version": {"type": "string"},
        "seed": {"anyOf": [{"type": "integer"}, {"type": "null"}]},
        "theta_star": {"type": "array", "items": _NUMBER_ARRAY},
        "partition": {"type": "array", "items": {"type": "integer"}},
        "corrupted": {"type": "array", "items": {"type": "boolean"}},
        "r": _NUMBER_ARRAY,
        "tau_star": _NUMBER_ARRAY,
    },
    "additionalProperties": False,
}

SUMMARY_SCHEMA = {
    "type": "object",
    "required": ["final_theta", "rounds_used", "converged", "final_trimmed_loss",
                 "config"],
    "properties": {
        "final_theta": _NUMBER_ARRAY,
        "rounds_used": {"type": "integer", "minimum": 0},
        "converged": {"type": "boolean"},
        "final_step_norm": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        "final_trimmed_loss": {"type": "number"},
        "final_dist_to_nearest": {"type": "number"},
        "inner_steps": {"type": "array", "items": {"type": "integer"}},
        "config": {"type": "object"},
    },
    "additionalProperties": False,
}

RECOVERY_REPORT_SCHEMA = {
    "type": "object",
    "required": ["format", "format_version", "theta_hat", "recovered",
                 "accepted_counts", "candidates_tried", "partial", "radius",
                 "radius_source"],
    "properties": {
        "format": {"const": "trimfit-recovery"},
        "format_version": {"type": "integer"},
        "theta_hat": {"type": "array",
                      "items": {"anyOf": [_NUMBER_ARRAY, {"type": "null"}]}},
        "recovered": {"type": "array", "items": {"type": "boolean"}},
        "accepted_counts": {"type": "array", "items": {"type": "integer"}},
        "candidates_tried": {"type": "array", "items": {"type": "integer"}},
        "partial": {"type": "boolean"},
        "radius": {"type": "number", "exclusiveMinimum": 0},
        "radius_source": {"enum": ["user", "quantile-default"]},
        "matching": {"anyOf": [{"type": "array", "items": {"type": "integer"}},
                               {"type": "null"}]},
        "per_component_errors": {"anyOf": [_NULLABLE_NUMBER_ARRAY, {"type": "null"}]},
        "epsilon_recovery": {"anyOf": [{"type": "number"}, {"type": "null"}]},
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

DIAGNOSE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["format", "format_version", "seed"],
    "properties": {
        "format": {"const": "trimfit-diagnostics"},
        "format_version": {"type": "integer"},
        "seed": {"type": "integer"},
        "q_separation": {
            "type": "object",
            "required": ["q", "per_component"],
            "properties": {"q": {"type": "number"}, "per_component": _NUMBER_ARRAY},
            "additionalProperties": False,
        },
        "feature_regularity": {
            "type": "object",
            "required": ["k", "psi_plus", "psi_minus", "mode", "trials"],
            "properties": {
                "k": {"type": "integer"},
                "psi_plus": {"type": "number"},
                "psi_minus": {"type": "number"},
                "mode": {"enum": ["exact", "sampled"]},
                "trials": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "affine_error": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["delta", "j", "value", "directions", "mode"],
                "properties": {
                    "delta": {"type": "number"},
                    "j": {"type": "integer"},
                    "value": {"type": "integer"},
                    "directions": {"type": "integer"},
                    "mode": {"enum": ["sampled"]},
                },
                "additionalProperties": False,
            },
        },
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
