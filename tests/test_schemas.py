"""Input-schema checker tests.

jsonschema serves as the oracle: one-fault mutations of valid documents must
be accepted or rejected exactly as it decides, with an integral float in an
integer field the one intended difference.
"""

import copy
import re

from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from trimfit.schemas import (EXPERIMENT_CONFIG_SCHEMA, GENERATE_CONFIG_SCHEMA,
                             SUBSPACE_FILE_SCHEMA, validate_document)

MODEL = {"d": 2, "m": 2, "components": [[1.0, 0.0], [0.0, 1.0]], "weights": [0.5, 0.5],
         "covariance": [None, [[2.0, 0.5], [0.5, 1.0]]], "n": 300, "seed": 21}

VALID = [
    (GENERATE_CONFIG_SCHEMA,
     {"version": 1, "name": "inst", "model": MODEL,
      "corruption": {"gamma_star": 0.05, "adversary": "oblivious-random",
                     "magnitude": 2.0},
      "output_dir": "out"}),
    (EXPERIMENT_CONFIG_SCHEMA,
     {"version": 1, "name": "exp", "model": dict(MODEL, covariance=None),
      "corruption": {"adversary": "none"}, "dataset": "inst.csv",
      "truth": "inst.truth.json",
      "solver": {"kind": "gd-ilts", "tau": 0.4, "max_rounds": 30, "tol": 0.0,
                 "rank_policy": "min-norm", "theta0": [0.5, -1], "eta": None,
                 "schedule": "adaptive", "m_steps": 5, "w": 0.5, "c_u": 1.0, "m": 2,
                 "tau_list": [0.4, 0.35], "delta": 1e-4, "candidate_budget": 5,
                 "epsilon_net": 0.5, "radius": 1.0, "seed": 3},
      "diagnostics": ["q_separation", "gamma_star"], "repeats": 2, "output_dir": "out"}),
    (EXPERIMENT_CONFIG_SCHEMA,
     {"version": 2, "name": "glob", "dataset": "inst.csv",
      "solver": {"kind": "global", "tau": 1, "theta0": "random", "eta": 0.1,
                 "radius": None},
      "repeats": 1, "output_dir": ""}),
    (SUBSPACE_FILE_SCHEMA, {"basis": [[1.0, 0.0], [0, 1]], "provenance": "external"}),
]

# Values swapped in for any node: every JSON type, integral floats, and strings
# that are or are not enum and const values.
REPLACEMENTS = [True, False, 0, 7, -3, 2.5, 300.0, 0.0, -1.5, "", "x", "random",
                "svd", "not-a-choice", None, [], [1.0], ["a"], [[1.0]], {}, {"a": 1}]

ORACLES = {id(schema): validator_for(schema)(schema) for schema, _ in VALID}


def node_paths(node, prefix=()):
    yield prefix
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from node_paths(child, prefix + (key,))


def node_at(doc, path):
    """The node at a path whose list indices may be given as strings."""
    for key in path:
        doc = doc[int(key)] if isinstance(doc, list) else doc[key]
    return doc


def schema_at(schema, keys):
    """The subschema at a path of string keys, through properties and items."""
    for key in keys:
        schema = schema["properties"][key] if "properties" in schema else schema["items"]
    return schema


def swapped(index, path, value):
    """VALID[index] with the node at path replaced by value."""
    schema, doc = VALID[index]
    doc = copy.deepcopy(doc)
    node_at(doc, path[:-1])[path[-1]] = value
    return schema, doc


@st.composite
def mutated_documents(draw):
    schema, doc = draw(st.sampled_from(VALID))
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(node_paths(doc))))
    parent, node = (node_at(doc, path[:-1]) if path else None), node_at(doc, path)
    kinds = ["swap"] + ["drop"] * isinstance(parent, dict) + ["add"] * isinstance(node, dict)
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[path[-1]]
    elif kind == "add":
        node["unknown_key"] = 1
    elif path:
        parent[path[-1]] = draw(st.sampled_from(REPLACEMENTS))
    else:
        doc = draw(st.sampled_from(REPLACEMENTS))
    return schema, doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
# Cases that random swaps rarely reach: the minimum and minLength bounds, and
# a fractional float in an integer field. Value ranges are the classes' to
# check, so the minimum is reached through version, repeats, model n and the
# seeds.
@example(swapped(0, ("version",), 0))
@example(swapped(1, ("repeats",), 0))
@example(swapped(0, ("model", "n"), 0))
@example(swapped(0, ("model", "seed"), -1))
@example(swapped(1, ("solver", "seed"), -1))
@example(swapped(0, ("name",), ""))
@example(swapped(1, ("solver", "tol"), -0.0))
@example(swapped(1, ("repeats",), 2.5))
def test_checker_agrees_with_jsonschema(case):
    schema, doc = case
    expected = best_match(ORACLES[id(schema)].iter_errors(doc))
    try:
        validate_document(doc, schema, "doc.json")
    except ValueError as exc:
        message = str(exc)
    else:
        assert expected is None
        return
    location = re.fullmatch(r"doc\.json: (.*) \(at (.*)\)", message, re.DOTALL).group(2)
    keys = [] if location == "<root>" else location.split("/")
    if expected is None:
        # The one intended difference: an integral float is not an integer.
        value = node_at(doc, keys)
        assert isinstance(value, float) and value.is_integer()
        assert message.endswith(f"{value!r} is not of type 'integer' (at {location})")
        return
    oracle_keys = [str(key) for key in expected.absolute_path]
    if keys != oracle_keys:
        # A failed anyOf is reported at the anyOf field, not inside it.
        assert oracle_keys[:len(keys)] == keys and "anyOf" in schema_at(schema, keys)
