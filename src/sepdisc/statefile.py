"""State-file and verdict-report serialization.

A state file is a single self-describing JSON document with an explicit
version field; complex amplitudes are always [re, im] pairs.  One writer
lays out state files and reports as ``json.dumps`` does with an indent of 2;
they round-trip losslessly (floats written via repr), and reports are byte-identical
for identical inputs apart from the timestamp, which the digest excludes.  The
writer takes the program's values as they are, JSON values and complex
ndarrays, with no conversion pass first; any other value raises TypeError,
as ``json.dumps`` does.

A state file, and a report element holding a product decomposition, is one
``%`` into a layout cached by its shape (dims, state count, phi or not; weight
count, each product vector's party dims).  The writer lays out each once, from
a template of zeros and a ``%s`` slot per name, every ``0.0`` made a ``%r``.
A NaN or an infinity takes the writer's walk, which spells them as json does.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .discrimination import PovmCertificate, Verdict
from .errors import StateFileError
from .linalg import vector_norm
from .separability import DualCertificate, ProductDecomposition, PptRecord
from .states import PureState, StateSpace

FORMAT_VERSION = "1"
TOOL_VERSION = "sepdisc 0.1.0"


@dataclass(frozen=True)
class StateFileData:
    space: StateSpace
    states: list[tuple[str, PureState]]
    phi: tuple[str, PureState] | None = None
    warnings: list[str] = field(default_factory=list)


# a state whose norm is off 1 by more than these is rejected, reported, divided by its norm
NORM_REJECT, NORM_WARN, NORM_RENORMALIZE = 1e-8, 1e-10, 1e-12


def _shape_error(entry, where: str, dim: int) -> str | None:
    """An entry's first defect that needs no values read, None if it is ``dim``
    pairs of JSON numbers: in pair order, complex() rejects one that is not two
    numbers and overflows past the float range; then a true or false (an int
    subclass); a NaN or an infinity comes before a wrong count."""
    if not isinstance(entry, dict) or "amplitudes" not in entry:
        return f"{where}: expected an object with name and amplitudes"
    pairs, flagged = entry["amplitudes"], False
    try:
        for re, im in pairs:
            if type(re) is bool or type(im) is bool:
                flagged = True
            elif type(re) is not float or type(im) is not float:
                complex(re, im)
    except (TypeError, ValueError):
        flagged = True
    except OverflowError:
        return f"{where}: amplitudes must be finite"
    if flagged:
        return f"{where}: amplitudes must be [re, im] pairs"
    if len(pairs) != dim and all(math.isfinite(x) for pair in pairs for x in pair):
        return f"{where}: amplitude vector has length {len(pairs)}; expected {dim}"
    return None if len(pairs) == dim else f"{where}: amplitudes must be finite"


def _statefile_doc(dims, named, phi: bool) -> dict:
    """A state file's document of (name, amplitudes) pairs, phi's last if ``phi``."""
    entries = [{"name": name, "amplitudes": amplitudes} for name, amplitudes in named]
    doc = {"version": FORMAT_VERSION, "dims": list(dims), "states": entries[: len(entries) - phi]}
    return doc | {"phi": entries[-1]} if phi else doc


@functools.lru_cache(maxsize=64)
def _statefile_layout(dims: tuple, count: int, phi: bool) -> str:
    slot = (_Raw("%s"), np.zeros(math.prod(dims), dtype=complex))
    return _dump(_statefile_doc(dims, [slot] * count, phi)).replace("0.0", "%r")


def serialize_statefile(space: StateSpace, states, phi=None) -> str:
    """The state file of (name, PureState) pairs of ``space``, and phi's."""
    named = [(name, st.amplitudes) for name, st in states]
    count = len(named)  # a state's name sits at level 3, phi's at 2
    if phi is not None:
        named.append((phi[0], phi[1].amplitudes))
    values = np.array([amplitudes for _, amplitudes in named], dtype=complex)
    if not np.isfinite(values).all():
        return _dump(_statefile_doc(space.dims, named, phi is not None))
    fill = []
    for k, ((name, _), row) in enumerate(zip(named, values.view(float).tolist())):
        fill += [_dump(name, 3 if k < count else 2), *row]
    return _statefile_layout(tuple(space.dims), len(named), phi is not None) % tuple(fill)


def parse_statefile(text: str) -> StateFileData:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise StateFileError("top level must be an object")
    if doc.get("version") != FORMAT_VERSION:
        raise StateFileError(f"unsupported version {doc.get('version')!r}; expected \"{FORMAT_VERSION}\"")
    dims = doc.get("dims")
    if not isinstance(dims, list) or len(dims) < 2 or not all(isinstance(d, int) and d >= 2 for d in dims):
        raise StateFileError("dims must be a list of at least two integers >= 2")
    space = StateSpace(tuple(dims))

    entries = doc.get("states")
    if not isinstance(entries, list) or not entries:
        raise StateFileError("states must be a nonempty list")
    named = [(f"states[{i}]", e) for i, e in enumerate(entries)] + ([("phi", doc["phi"])] if "phi" in doc else [])
    # the entries before the first defect in structure are read, and may fail, first
    errors = [_shape_error(entry, where, space.dim) for where, entry in named]
    read = named[: next((k for k, error in enumerate(errors) if error), None)]
    flat = [x for _, entry in read for pair in entry["amplitudes"] for x in pair]
    values = np.array(flat, dtype=float).reshape(len(read), 2 * space.dim).view(complex)
    states, warnings = [], []
    for (where, entry), vec, finite in zip(read, values, np.isfinite(values).all(axis=1)):
        if not finite:
            raise StateFileError(f"{where}: amplitudes must be finite")
        norm = vector_norm(vec)
        if abs(norm - 1.0) > NORM_REJECT:
            raise StateFileError(f"{where}: norm {norm:.10f} deviates from 1 by more than {NORM_REJECT:g}")
        if abs(norm - 1.0) > NORM_WARN:
            warnings.append(f"{where}: norm deviated by {abs(norm-1.0):.2e}; renormalized")
        if abs(norm - 1.0) > NORM_RENORMALIZE:
            vec = vec / norm
        states.append((str(entry.get("name", where)), PureState(space, vec)))
    if len(read) < len(named):
        raise StateFileError(errors[len(read)])
    phi = states.pop() if "phi" in doc else None
    return StateFileData(space=space, states=states, phi=phi, warnings=warnings)


def input_digest(text: str) -> str:
    doc = json.loads(text)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _decomposition_element(name, weights, vectors) -> dict:
    """A report element holding a product decomposition: its weights and each vector's (weight, factors)."""
    vectors = [{"weight": [w.real, w.imag], "factors": factors} for w, factors in vectors]
    return {"name": name, "evidence": {"kind": "product_decomposition", "weights": weights, "vectors": vectors}}


@functools.lru_cache(maxsize=256)
def _element_layout(count: int, shape: tuple) -> str:
    vectors = [(0j, [np.zeros(d, dtype=complex) for d in dims]) for dims in shape]
    return _dump(_decomposition_element(_Raw("%s"), [0.0] * count, vectors), 2).replace("0.0", "%r")


def _element(name, ev):
    """One entry of a report's ``elements`` (level 2), a filled layout for a finite product decomposition."""
    if isinstance(ev, PptRecord):
        cuts = [list(c) for c in ev.cuts]
        return {"name": name, "evidence": {"kind": "ppt_record", "min_eigenvalue": ev.min_eigenvalue, "exact": ev.exact, "cuts": cuts}}
    if not isinstance(ev, ProductDecomposition):
        return {"name": name, "evidence": {"kind": "none"}}
    weights, vectors = [float(w) for w in ev.weights], [(pv.weight, pv.factors) for pv in ev.vectors]
    values = weights + np.concatenate([(), *(x for w, factors in vectors for x in ((w,), *factors))]).view(float).tolist()
    if not math.isfinite(sum(values)):  # as it is when any value is not
        return _decomposition_element(name, weights, vectors)
    shape = tuple(tuple(map(len, factors)) for _, factors in vectors)
    return _Raw(_element_layout(len(weights), shape) % (_dump(name, 3), *values))


def _dual_to_json(cert: DualCertificate) -> dict:
    """Every matrix of a dual certificate, as rows of [re, im] pairs, so
    that a reader can re-check it by hand."""
    return {
        "objective": cert.objective,
        "scale": cert.scale,
        "y": cert.y,
        "z": [
            [{"cut": list(cut), "matrix": zk[c]} for c, cut in enumerate(cert.cuts)]
            for zk in cert.z
        ],
    }


def verdict_report(
    verdict: Verdict,
    input_text: str,
    state_names: list[str] | None = None,
) -> str:
    cert = verdict.certificate if isinstance(verdict.certificate, PovmCertificate) else None
    doc = {
        "version": FORMAT_VERSION,
        "tool": TOOL_VERSION,
        "input_digest": input_digest(input_text),
        "status": verdict.status.value,
        "theorem": verdict.theorem,
        "locc_flag": verdict.locc_flag.value,
        "lambdas": [float(x) for x in cert.lambdas] if cert and cert.lambdas is not None else None,
        "reason": (
            {"code": verdict.reason.code, "message": verdict.reason.message, "data": verdict.reason.data}
            if verdict.reason
            else None
        ),
        "elements": (
            [
                _element(state_names[i] if state_names and i < len(state_names) else f"state{i}", ev)
                for i, ev in enumerate(cert.evidence)
            ]
            if cert
            else None
        ),
    }
    if isinstance(verdict.certificate, DualCertificate):
        doc["dual_certificate"] = _dual_to_json(verdict.certificate)
    doc["residuals"] = verdict.diagnostics or None
    doc["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return _dump(doc)


def _key(k) -> str:
    """A dict key as ``json.dumps`` writes it: a str as it is, an int, float, bool or None as its JSON text."""
    if isinstance(k, (str, int, float)) or k is None:
        return k if isinstance(k, str) else json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


class _Raw(str):
    """Text the writer copies as it is: a filled layout, or a template's name
    slot.  A template's other text is keys, ints, "1" and zeros: no %."""


@functools.lru_cache(maxsize=64)
def _pairs_layout(n: int, level: int) -> str:
    """Indent-2 layout of n [re, im] pairs opened at nesting ``level``, a %r per float."""
    pad = "\n" + "  " * level
    return "[" + ",".join([f"{pad}  [{pad}    %r,{pad}    %r{pad}  ]"] * n) + pad + "]"


# _dump's branch per exact type (None: json.dumps); a subclass takes its base's, an int subclass json.dumps
_BRANCH = {_Raw: _Raw, str: str, float: float, int: int, list: list, tuple: list, dict: dict, np.ndarray: np.ndarray, bool: None, type(None): None}


def _dump(obj, level: int = 0) -> str:
    """What ``json.dumps`` writes with an indent of 2, byte for byte, a complex
    ndarray standing for its (rows of) [re, im] pairs; where json's indent
    encoder formats each float in Python, a finite vector is one ``%``
    against a cached layout."""
    cls = type(obj)
    kind = _BRANCH[cls] if cls in _BRANCH else next((b for t, b in _BRANCH.items() if t is not int and isinstance(obj, t)), None)
    if kind is _Raw:
        return obj
    if kind is str:
        return _quote(obj)
    if kind is float and math.isfinite(obj):
        return float.__repr__(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is np.ndarray:
        if obj.ndim == 1 and len(obj):
            flat = np.ascontiguousarray(obj, dtype=complex).view(float).tolist()
            text = _pairs_layout(len(obj), level) % tuple(flat)
            if "n" not in text:  # no nan or inf, which json spells NaN and Infinity
                return text
            obj = [flat[i : i + 2] for i in range(0, len(flat), 2)]
        obj, kind = list(obj), list
    if kind is dict:
        opening, closing, items = "{", "}", [f"{_quote(_key(k))}: {_dump(v, level + 1)}" for k, v in obj.items()]
    elif kind is list:
        opening, closing, items = "[", "]", [_dump(v, level + 1) for v in obj]
    else:  # null, true, false, an int subclass, NaN or +-Infinity; TypeError for anything else
        return json.dumps(obj)
    pad = "\n" + "  " * (level + 1)
    return opening + pad + ("," + pad).join(items) + pad[:-2] + closing if items else opening + closing
