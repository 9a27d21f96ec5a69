"""Problem-file parsing: versioned JSON describing a polynomial + sampler.

Complex numbers serialize as [re, im] pairs; function-space elements as
lists of {"exponents": [...], "c": [re, im]}.  Validation failures raise
ValidationError with a JSON-pointer-style path to the offending node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def parse_problem(text: bytes | str) -> ParsedProblem:
    """Parse and validate a problem file; see PROBLEM_SCHEMA."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"not UTF-8: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON: {exc}") from exc
    import jsonschema  # imported on use, so commands that read no problem file skip it

    try:
        jsonschema.validate(data, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ValidationError(exc.message, _pointer(exc.absolute_path)) from exc

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
