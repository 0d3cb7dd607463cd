"""JSON schemas for the documents the package reads.

Input files (generate and experiment configs, subspace bases) are validated
on load, so missing or mistyped fields fail with the file and the field
named. The schemas check shape: types, required and unknown keys, enums,
and bounds only on the fields no class owns (version, name, repeats, model n
and the seeds). Ranges are checked by the classes a config builds, under the
file's name.
The documents the package writes are defined by the code that builds them
alone; README.md lists their fields.
"""

from __future__ import annotations

from .gd import SCHEDULES
from .ilts import RANK_POLICIES
from .model import ADVERSARIES
from .pipeline import PROVENANCES

_NUMBER_ARRAY = {"type": "array", "items": {"type": "number"}}

MODEL_SCHEMA = {
    "type": "object",
    "required": ["d", "m", "components", "weights", "n", "seed"],
    "properties": {
        "d": {"type": "integer"},
        "m": {"type": "integer"},
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
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

CORRUPTION_SCHEMA = {
    "type": "object",
    "properties": {
        "gamma_star": {"type": "number"},
        "adversary": {"enum": list(ADVERSARIES)},
        "magnitude": {"type": "number"},
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
        "max_rounds": {"type": "integer"},
        "tol": {"type": "number"},
        "rank_policy": {"enum": list(RANK_POLICIES)},
        "theta0": {"anyOf": [_NUMBER_ARRAY, {"const": "random"}]},
        "eta": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        "schedule": {"enum": list(SCHEDULES)},
        "m_steps": {"type": "integer"},
        "w": {"type": "number"},
        "c_u": {"type": "number"},
        "m": {"type": "integer"},
        "tau_list": _NUMBER_ARRAY,
        "delta": {"type": "number"},
        "candidate_budget": {"type": "integer"},
        "epsilon_net": {"type": "number"},
        "radius": {"anyOf": [{"type": "number"}, {"type": "null"}]},
        "seed": {"type": "integer", "minimum": 0},
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


_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "number": (int, float), "null": type(None)}


def _first_error(value, schema: dict, path: tuple) -> tuple[str, tuple] | None:
    """First way value breaks schema, as (message, path), or None. No type
    admits a bool, and unlike JSON Schema an integral float such as 300.0 is
    not an integer. A failed anyOf names a fault inside an option, if any."""
    kind = schema.get("type")
    if kind and (not isinstance(value, _TYPES[kind]) or isinstance(value, bool)):
        return f"{value!r} is not of type {kind!r}", path
    if "enum" in schema and value not in schema["enum"]:
        return f"{value!r} is not one of {schema['enum']!r}", path
    if "const" in schema and value != schema["const"]:
        return f"{schema['const']!r} was expected", path
    errors = [_first_error(value, option, path) for option in schema.get("anyOf", ())]
    if errors and all(errors):
        deeper = [error for error in errors if len(error[1]) > len(path)]
        return deeper[0] if deeper else (f"{value!r} matches none of its options", path)
    if "minimum" in schema and value < schema["minimum"]:
        return f"{value!r} is less than the minimum of {schema['minimum']!r}", path
    if "minLength" in schema and len(value) < schema["minLength"]:
        return f"{value!r} is shorter than {schema['minLength']} characters", path
    children = ()
    if kind == "object":
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                return f"{key!r} is a required property", path
        unknown = [key for key in value if key not in properties]
        if unknown and schema.get("additionalProperties") is False:
            return f"unexpected property {unknown[0]!r}", path
        children = ((value[key], properties[key], key) for key in properties if key in value)
    elif kind == "array":
        children = ((item, schema.get("items", {}), i) for i, item in enumerate(value))
    return next(filter(None, (_first_error(v, s, path + (k,)) for v, s, k in children)), None)


def validate_document(doc: dict, schema: dict, label: str) -> None:
    """Validate doc against schema, raising ValueError naming the document."""
    error = _first_error(doc, schema, ())
    if error:
        location = "/".join(str(p) for p in error[1]) or "<root>"
        raise ValueError(f"{label}: {error[0]} (at {location})")
