"""Problem-file parsing: versioned JSON describing a polynomial + sampler.

Complex numbers serialize as [re, im] pairs; function-space elements as
lists of {"exponents": [...], "c": [re, im]}.  Validation failures raise
ValidationError with a JSON-pointer-style path to the offending node.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .dirichlet import DirichletPolynomial
from .errors import ValidationError
from .sampling import GridPolicy, SamplerConfig
from .spaces import (
    FunctionLr,
    HilbertSpace,
    SequenceSpace,
    SpaceSpec,
    SupSpace,
    TrigPolynomial,
    is_coordinate,
)

SCHEMA_VERSION = 1

_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_FUNCTION_TERM = {
    "type": "object",
    "required": ["exponents", "c"],
    "properties": {
        "exponents": {"type": "array", "items": {"type": "integer"}},
        "c": _PAIR,
    },
    "additionalProperties": False,
}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "space", "terms"],
    "properties": {
        "schema": {"const": SCHEMA_VERSION},
        "space": {
            "type": "object",
            "required": ["variant"],
            "properties": {
                "variant": {"enum": ["Sequence", "Hilbert", "Sup", "FunctionLr"]},
                "r": {"type": "number", "minimum": 1},
                "d": {"type": "integer", "minimum": 1},
                "k": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "p": {"type": "number", "minimum": 1},
        "terms": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["n", "x"],
                "properties": {
                    "n": {"type": "integer", "minimum": 1},
                    "x": {
                        "type": "array",
                        "items": {"anyOf": [_PAIR, _FUNCTION_TERM]},
                    },
                },
                "additionalProperties": False,
            },
        },
        "coefficients": {"type": "array", "items": _PAIR},
        "sampler": {
            "type": "object",
            "properties": {
                "seed": {"type": "integer"},
                "samples": {"type": "integer", "minimum": 1},
                "exact_cutoff": {"type": "integer", "minimum": 0, "maximum": 24},
                "grid": {
                    "type": "object",
                    "properties": {
                        "factor": {"type": "integer", "minimum": 1},
                        "min_size": {"type": "integer", "minimum": 1},
                        "max_points": {"type": "integer", "minimum": 1},
                    },
                    "additionalProperties": False,
                },
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


@dataclass
class ParsedProblem:
    polynomial: DirichletPolynomial
    p: float
    sampler: SamplerConfig
    coefficients: np.ndarray | None
    sampler_fields: frozenset[str] = frozenset()


def _pointer(path) -> str:
    return "/" + "/".join(str(part) for part in path)


class _Fault(NamedTuple):
    path: tuple
    keyword: str
    message: str
    matches_type: bool  # the node has the type its failing schema asks for
    context: tuple = ()  # the failures of each anyOf branch


def _is_type(node, name: str) -> bool:
    if name == "object":
        return isinstance(node, dict)
    if name == "array":
        return isinstance(node, list)
    number = isinstance(node, (int, float)) and not isinstance(node, bool)
    if name == "number":
        return number
    return number and (isinstance(node, int) or node.is_integer())  # "integer": 1.0 counts


def _same(a, b) -> bool:
    """JSON equality, in which true and false are not the numbers 1 and 0."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return a == b


def _faults(node, schema: dict, path: tuple) -> Iterator[_Fault]:
    """Every violation of the schema by the node, in the order of the schema's
    keywords.  Interprets the keywords PROBLEM_SCHEMA uses, with the messages
    of the JSON Schema reference implementation."""

    def fault(keyword: str, message: str, context: tuple = ()) -> _Fault:
        expected = schema.get("type")
        matches = expected is not None and _is_type(node, expected)
        return _Fault(path, keyword, message, matches, context)

    for keyword, value in schema.items():
        if keyword == "type":
            if not _is_type(node, value):
                yield fault(keyword, f"{node!r} is not of type {value!r}")
        elif keyword == "const":
            if not _same(node, value):
                yield fault(keyword, f"{value!r} was expected")
        elif keyword == "enum":
            if not any(_same(node, v) for v in value):
                yield fault(keyword, f"{node!r} is not one of {value!r}")
        elif keyword == "minimum":
            if _is_type(node, "number") and node < value:
                yield fault(keyword, f"{node!r} is less than the minimum of {value!r}")
        elif keyword == "maximum":
            if _is_type(node, "number") and node > value:
                yield fault(keyword, f"{node!r} is greater than the maximum of {value!r}")
        elif keyword == "minItems":
            if isinstance(node, list) and len(node) < value:
                yield fault(keyword, f"{node!r} is too short")
        elif keyword == "maxItems":
            if isinstance(node, list) and len(node) > value:
                yield fault(keyword, f"{node!r} is too long")
        elif keyword == "items":
            if isinstance(node, list):
                for i, item in enumerate(node):
                    yield from _faults(item, value, path + (i,))
        elif keyword == "required":
            if isinstance(node, dict):
                for key in value:
                    if key not in node:
                        yield fault(keyword, f"{key!r} is a required property")
        elif keyword == "properties":
            if isinstance(node, dict):
                for key, subschema in value.items():
                    if key in node:
                        yield from _faults(node[key], subschema, path + (key,))
        elif keyword == "additionalProperties" and value is False:
            extras = set(node) - set(schema.get("properties", {})) if isinstance(node, dict) else ()
            if extras:
                names = ", ".join(repr(key) for key in sorted(extras))
                verb = "was" if len(extras) == 1 else "were"
                message = f"Additional properties are not allowed ({names} {verb} unexpected)"
                yield fault(keyword, message)
        elif keyword == "anyOf":
            context = []
            for subschema in value:
                branch = list(_faults(node, subschema, path))
                if not branch:
                    break
                context += branch
            else:
                message = f"{node!r} is not valid under any of the given schemas"
                yield fault(keyword, message, tuple(context))
        elif keyword != "$schema":
            raise NotImplementedError(f"schema keyword {keyword!r}")


def _relevance(fault: _Fault) -> tuple:
    """Sort key of jsonschema's best_match: the most relevant fault has the
    largest key (the shallowest; then the later sibling, not an anyOf, a
    node of the wrong type), and within a failed anyOf the branch fault
    with the smallest key (the deepest) is the more specific."""
    return (-len(fault.path), fault.path, fault.keyword != "anyOf", not fault.matches_type)


def _check_schema(data) -> None:
    """Raise ValidationError for the most relevant violation of
    PROBLEM_SCHEMA; a failed anyOf reports its most specific branch failure
    when exactly one ranks first."""
    best = max(_faults(data, PROBLEM_SCHEMA, ()), key=_relevance, default=None)
    if best is None:
        return
    while best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best = first
    raise ValidationError(best.message, _pointer(best.path))


def _space_from_dict(node: dict) -> SpaceSpec:
    variant = node["variant"]
    if variant == "Sequence":
        if "r" not in node or "d" not in node:
            raise ValidationError("Sequence space needs r and d", "/space")
        return SequenceSpace(r=float(node["r"]), d=int(node["d"]))
    if variant == "Hilbert":
        if "d" not in node:
            raise ValidationError("Hilbert space needs d", "/space")
        return HilbertSpace(d=int(node["d"]))
    if variant == "Sup":
        if "d" not in node:
            raise ValidationError("Sup space needs d", "/space")
        return SupSpace(d=int(node["d"]))
    if "r" not in node or "k" not in node:
        raise ValidationError("FunctionLr space needs r and k", "/space")
    return FunctionLr(r=float(node["r"]), k=int(node["k"]))


def _element_from_payload(space: SpaceSpec, payload, pointer: str):
    if is_coordinate(space):
        if len(payload) != space.d:
            raise ValidationError(
                f"expected {space.d} coordinates, got {len(payload)}", pointer
            )
        coords = []
        for i, pair in enumerate(payload):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValidationError("malformed complex pair", f"{pointer}/{i}")
            coords.append(complex(pair[0], pair[1]))
        return np.array(coords, dtype=np.complex128)
    coeffs = {}
    for i, entry in enumerate(payload):
        if not isinstance(entry, dict):
            raise ValidationError("function element entry must be an object", f"{pointer}/{i}")
        exponents = tuple(entry["exponents"])
        if len(exponents) > space.k:
            raise ValidationError(
                f"exponent vector longer than torus dimension {space.k}",
                f"{pointer}/{i}/exponents",
            )
        pair = entry["c"]
        coeffs[exponents] = coeffs.get(exponents, 0) + complex(pair[0], pair[1])
    return TrigPolynomial(coeffs, space.k)


def _refuse_constant(name: str):
    """Python's json reads NaN, Infinity and -Infinity, which JSON has not."""
    raise ValidationError(f"invalid JSON: {name} is not a JSON number")


def _finite_float(text: str) -> float:
    """Python's json reads a number past the float range as +-inf."""
    value = float(text)
    if math.isinf(value):
        raise ValidationError(f"invalid JSON: {text} is past the float range")
    return value


def parse_problem(text: bytes | str) -> ParsedProblem:
    """Parse and validate a problem file; see PROBLEM_SCHEMA."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    _check_schema(data)

    space = _space_from_dict(data["space"])
    seen: set[int] = set()
    terms = {}
    for i, term in enumerate(data["terms"]):
        n = term["n"]
        if n in seen:
            raise ValidationError(f"duplicate frequency {n}", f"/terms/{i}/n")
        seen.add(n)
        terms[n] = _element_from_payload(space, term["x"], f"/terms/{i}/x")
    polynomial = DirichletPolynomial(space=space, terms=terms)

    p = float(data.get("p", 2.0))
    sampler_node = data.get("sampler", {})
    grid_node = sampler_node.get("grid", {})
    sampler = SamplerConfig(
        seed=int(sampler_node.get("seed", 0)),
        samples=int(sampler_node.get("samples", SamplerConfig().samples)),
        exact_cutoff=int(sampler_node.get("exact_cutoff", SamplerConfig().exact_cutoff)),
        grid_policy=GridPolicy(
            factor=int(grid_node.get("factor", GridPolicy().factor)),
            min_size=int(grid_node.get("min_size", GridPolicy().min_size)),
            max_points=int(grid_node.get("max_points", GridPolicy().max_points)),
        ),
    )
    coefficients = None
    if "coefficients" in data:
        coefficients = np.array(
            [complex(re, im) for re, im in data["coefficients"]], dtype=np.complex128
        )
    return ParsedProblem(
        polynomial=polynomial,
        p=p,
        sampler=sampler,
        coefficients=coefficients,
        sampler_fields=frozenset(sampler_node),
    )


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _element_payload(space: SpaceSpec, element) -> list:
    if is_coordinate(space):
        return [_pair(z) for z in np.asarray(element)]
    return [
        {"exponents": list(beta), "c": _pair(c)}
        for beta, c in sorted(element.coeffs.items())
    ]


def _space_payload(space: SpaceSpec) -> dict:
    if isinstance(space, SequenceSpace):
        return {"variant": "Sequence", "r": space.r, "d": space.d}
    if isinstance(space, HilbertSpace):
        return {"variant": "Hilbert", "d": space.d}
    if isinstance(space, SupSpace):
        return {"variant": "Sup", "d": space.d}
    return {"variant": "FunctionLr", "r": space.r, "k": space.k}


def serialize_problem(problem: ParsedProblem) -> dict:
    """Inverse of parse_problem (up to JSON number formatting)."""
    out: dict = {
        "schema": SCHEMA_VERSION,
        "space": _space_payload(problem.polynomial.space),
        "p": problem.p,
        "terms": [
            {"n": n, "x": _element_payload(problem.polynomial.space, x)}
            for n, x in sorted(problem.polynomial.terms.items())
        ],
        "sampler": {
            "seed": problem.sampler.seed,
            "samples": problem.sampler.samples,
            "exact_cutoff": problem.sampler.exact_cutoff,
            "grid": {
                "factor": problem.sampler.grid_policy.factor,
                "min_size": problem.sampler.grid_policy.min_size,
                "max_points": problem.sampler.grid_policy.max_points,
            },
        },
    }
    if problem.coefficients is not None:
        out["coefficients"] = [_pair(z) for z in problem.coefficients]
    return out
