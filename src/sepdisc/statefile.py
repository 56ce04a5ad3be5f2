"""State-file and verdict-report serialization.

A state file is a single self-describing JSON document with an explicit
version field; complex amplitudes are always [re, im] pairs.  One writer
lays out state files and reports as ``json.dumps`` does with an indent of 2;
they round-trip losslessly (floats written via repr), and reports are byte-identical
for identical inputs apart from the timestamp, which the digest excludes.  The
writer takes the program's values as they are, JSON values and complex
ndarrays, with no conversion pass first; any other value raises TypeError,
as ``json.dumps`` does.
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


def _pairs_to_vec(pairs, where: str) -> np.ndarray:
    # unpacking rejects an entry of any length but 2, complex() one that is
    # not two numbers; JSON true/false parse to bool, an int subclass, so a
    # pair holding one is dropped and the count no longer matches
    try:
        vals = [complex(re, im) for re, im in pairs if type(re) is not bool and type(im) is not bool]
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{where}: amplitudes must be [re, im] pairs") from exc
    except OverflowError as exc:  # an integer literal beyond the float range
        raise StateFileError(f"{where}: amplitudes must be finite") from exc
    if len(vals) != len(pairs):
        raise StateFileError(f"{where}: amplitudes must be [re, im] pairs")
    out = np.array(vals, dtype=complex)
    if not np.all(np.isfinite(out.view(float))):
        raise StateFileError(f"{where}: amplitudes must be finite")
    return out


def serialize_statefile(space: StateSpace, states, phi=None) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "dims": list(space.dims),
        "states": [{"name": name, "amplitudes": st.amplitudes} for name, st in states],
    }
    if phi is not None:
        doc["phi"] = {"name": phi[0], "amplitudes": phi[1].amplitudes}
    return _dump(doc)


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
    if (
        not isinstance(dims, list)
        or len(dims) < 2
        or not all(isinstance(d, int) and d >= 2 for d in dims)
    ):
        raise StateFileError("dims must be a list of at least two integers >= 2")
    space = StateSpace(tuple(dims))

    warnings: list[str] = []

    def load_state(entry, where: str) -> tuple[str, PureState]:
        if not isinstance(entry, dict) or "amplitudes" not in entry:
            raise StateFileError(f"{where}: expected an object with name and amplitudes")
        name = str(entry.get("name", where))
        vec = _pairs_to_vec(entry["amplitudes"], where)
        if vec.shape != (space.dim,):
            raise StateFileError(
                f"{where}: amplitude vector has length {vec.shape[0]}; expected {space.dim}"
            )
        norm = vector_norm(vec)
        if abs(norm - 1.0) > 1e-8:
            raise StateFileError(f"{where}: norm {norm:.10f} deviates from 1 by more than 1e-8")
        if abs(norm - 1.0) > 1e-10:
            warnings.append(f"{where}: norm deviated by {abs(norm-1.0):.2e}; renormalized")
        if abs(norm - 1.0) > 1e-12:
            vec = vec / norm
        return name, PureState(space, vec)

    entries = doc.get("states")
    if not isinstance(entries, list) or not entries:
        raise StateFileError("states must be a nonempty list")
    states = [load_state(e, f"states[{i}]") for i, e in enumerate(entries)]
    phi = load_state(doc["phi"], "phi") if "phi" in doc else None
    return StateFileData(space=space, states=states, phi=phi, warnings=warnings)


def input_digest(text: str) -> str:
    doc = json.loads(text)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


def _evidence_to_json(ev) -> dict:
    if isinstance(ev, ProductDecomposition):
        return {
            "kind": "product_decomposition",
            "weights": [float(w) for w in ev.weights],
            "vectors": [
                {
                    "weight": [float(pv.weight.real), float(pv.weight.imag)],
                    "factors": pv.factors,
                }
                for pv in ev.vectors
            ],
        }
    if isinstance(ev, PptRecord):
        return {
            "kind": "ppt_record",
            "min_eigenvalue": ev.min_eigenvalue,
            "exact": ev.exact,
            "cuts": [list(c) for c in ev.cuts],
        }
    return {"kind": "none"}


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
                {
                    "name": (state_names[i] if state_names and i < len(state_names) else f"state{i}"),
                    "evidence": _evidence_to_json(ev),
                }
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


@functools.lru_cache(maxsize=64)
def _pairs_layout(n: int, level: int) -> str:
    """Indent-2 layout of n [re, im] pairs opened at nesting ``level``, a %r per float."""
    pad = "\n" + "  " * level
    return "[" + ",".join([f"{pad}  [{pad}    %r,{pad}    %r{pad}  ]"] * n) + pad + "]"


# _dump's branch per exact type (None: json.dumps); a subclass takes its base's, an int subclass json.dumps
_BRANCH = {str: str, float: float, int: int, list: list, tuple: list, dict: dict, np.ndarray: np.ndarray, bool: None, type(None): None}


def _dump(obj, level: int = 0) -> str:
    """What ``json.dumps`` writes with an indent of 2, byte for byte, a complex
    ndarray standing for its (rows of) [re, im] pairs; where json's indent
    encoder formats each float in Python, a finite vector is one ``%``
    against a cached layout."""
    cls = type(obj)
    kind = _BRANCH[cls] if cls in _BRANCH else next((b for t, b in _BRANCH.items() if t is not int and isinstance(obj, t)), None)
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
