"""The state-file and report writer against its reference, json.dumps(indent=2),
and the state-file reader against its per-entry reference."""

import dataclasses
import enum
import hashlib
import json
import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sepdisc.constructions import FamilyParams, SubspaceFamily, family_sep_not_locc, indistinguishable_subspace, locc_basis_sch2
from sepdisc.discrimination import DiscriminationInstance, PovmCertificate, decide
from sepdisc.errors import StateFileError
from sepdisc.linalg import vector_norm
from sepdisc.sampling import random_product_basis, random_unitary
from sepdisc.separability import DualCertificate, ProductDecomposition, PptRecord
from sepdisc.statefile import (
    FORMAT_VERSION,
    TOOL_VERSION,
    StateFileData,
    _dual_to_json,
    _dump,
    input_digest,
    parse_statefile,
    serialize_statefile,
    verdict_report,
)
from sepdisc.states import PureState, StateSpace
from tests.conftest import census_cell, ghz_theta, upb_tiles, upb_with_complement

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=2**200)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300, 5e-324])
    | st.text()
    | st.sampled_from(["", "\x00\x1f\x7f\"\\/", "\t\n\r\b\f", "é✓ \U0001f600", "\ud800"])
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Text(str):
    pass


class Mapping(dict):
    pass


# json.dumps writes an int, float, bool or None key as its JSON text
KEYS = (
    st.text()
    | st.sampled_from(["", "\x00", "ключ", "\U0001f600"])
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, True, False, None, Level.HIGH])
    | st.floats().map(np.float64)
)

# the writer dispatches on the exact type: subclasses of its types, numpy
# scalars and tuples must be written as json.dumps writes them
SUBCLASSED = (
    st.floats().map(np.float64)
    | st.sampled_from(list(Level))
    | st.text().map(Text)
)
DOCS = st.recursive(
    SCALARS | SUBCLASSED,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(KEYS, kids, max_size=4)
        | st.dictionaries(KEYS, kids, max_size=4).map(Mapping)
    ),
    max_leaves=30,
)


def _pairs(a: np.ndarray) -> list:
    """The [re, im] list form a complex array stands for."""
    return [_pairs(row) for row in a] if a.ndim > 1 else [[z.real, z.imag] for z in a.tolist()]


@st.composite
def complex_arrays(draw):
    """1-D and 2-D complex arrays, some with NaN or infinite entries, some
    non-contiguous slices of a larger array."""
    shape = draw(st.sampled_from([(0,), (1,), (3,), (8,), (0, 2), (2, 0), (2, 3), (4, 4)]))
    big = tuple(2 * n for n in shape)
    elements = st.complex_numbers(allow_nan=True, allow_infinity=True) | st.sampled_from([0j, complex(-0.0, 1.0)])
    a = draw(hnp.arrays(np.complex128, big, elements=elements))
    slicing = draw(st.sampled_from(["head", "strided", "transposed"]))
    if slicing == "strided":
        return a[tuple(slice(None, None, 2) for _ in big)]
    if slicing == "transposed" and len(shape) == 2:
        return a[: shape[1], : shape[0]].T
    return a[tuple(slice(n) for n in shape)]


@settings(max_examples=300, deadline=None)
@given(DOCS)
def test_writer_matches_json_dumps_indent_2(doc):
    assert _dump(doc) == json.dumps(doc, indent=2)


def test_writer_rejects_the_keys_json_dumps_rejects():
    for doc in ({(1, 2): 0}, {1j: 0}, {b"k": 0}, {np.int64(1): 0}):
        for write in (_dump, lambda d: json.dumps(d, indent=2)):
            with pytest.raises(TypeError, match="keys must be str, int, float, bool or None"):
                write(doc)


def test_input_digest_ignores_key_order_and_whitespace():
    # sha256 of the input re-encoded with sorted keys and (",", ":") separators
    a = '{"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": [[1, 0]]}]}'
    b = '{\n  "states" : [ {"amplitudes":[[1,0]],"name":"s"} ],\t"dims":[2,2], "version":"1"}'
    canonical = '{"dims":[2,2],"states":[{"amplitudes":[[1,0]],"name":"s"}],"version":"1"}'
    assert input_digest(a) == input_digest(b) == "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


@settings(max_examples=200, deadline=None)
@given(complex_arrays(), st.integers(min_value=0, max_value=3), DOCS)
def test_complex_arrays_are_written_as_their_pairs(a, depth, sibling):
    doc, ref = a, _pairs(a)
    for _ in range(depth):  # the layout depends on the nesting level
        doc, ref = {"x": [sibling, doc]}, {"x": [sibling, ref]}
    assert _dump(doc) == json.dumps(ref, indent=2)


@pytest.mark.parametrize(
    "build, code",
    [
        (lambda: decide(census_cell((3, 3), 3, 1), max_iterations=1), "feasibility_stall"),
        (lambda: decide(upb_with_complement(upb_tiles)), "separability_unknown"),
    ],
    ids=["feasibility_stall", "separability_unknown"],
)
def test_undecided_endings_round_trip_through_the_report(build, code):
    # the reason data and diagnostics are written as the decider leaves them
    verdict = build()
    report = verdict_report(verdict, "{}")
    parsed = json.loads(report)
    assert (parsed["status"], parsed["theorem"], parsed["reason"]["code"]) == ("undecided", "T1", code)
    reason = verdict.reason
    assert parsed["reason"] == {"code": reason.code, "message": reason.message, "data": reason.data}
    assert parsed["residuals"] == (verdict.diagnostics or None)
    assert json.dumps(parsed, indent=2) == report


def test_ppt_records_round_trip_through_the_report():
    # census 2x3, n = 2, s = 0: Dykstra's first check finds a point whose
    # elements PPT certifies exactly on 2x3
    report = json.loads(verdict_report(decide(census_cell((2, 3), 2, 0)), "{}"))
    assert report["status"] == "distinguishable"
    evidence = [element["evidence"] for element in report["elements"]]
    assert len(evidence) == 2
    for ev in evidence:
        assert ev["kind"] == "ppt_record" and ev["exact"] is True and ev["cuts"] == [[0]]
        assert ev["min_eigenvalue"] >= -1e-9


# -- the per-node writer: each state file and report element a document walked node by node --


def reference_statefile(space, states, phi=None) -> dict:
    doc = {
        "version": FORMAT_VERSION,
        "dims": list(space.dims),
        "states": [{"name": name, "amplitudes": st.amplitudes} for name, st in states],
    }
    if phi is not None:
        doc["phi"] = {"name": phi[0], "amplitudes": phi[1].amplitudes}
    return doc


def _reference_evidence(ev) -> dict:
    if isinstance(ev, ProductDecomposition):
        return {
            "kind": "product_decomposition",
            "weights": [float(w) for w in ev.weights],
            "vectors": [
                {"weight": [float(pv.weight.real), float(pv.weight.imag)], "factors": pv.factors}
                for pv in ev.vectors
            ],
        }
    if isinstance(ev, PptRecord):
        return {"kind": "ppt_record", "min_eigenvalue": ev.min_eigenvalue, "exact": ev.exact, "cuts": [list(c) for c in ev.cuts]}
    return {"kind": "none"}


def reference_report(verdict, input_text, state_names=None) -> str:
    """The report without its timestamp line, every element walked."""
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
                    "evidence": _reference_evidence(ev),
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
    return _dump(doc)


def _without_timestamp(report: str) -> str:
    head, stamp = report.rsplit(",\n", 1)
    assert re.fullmatch(r'  "timestamp": "\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ"\n}', stamp)
    return head + "\n}"


def _as_lists(doc):
    """The document json.dumps is given: every complex array as its [re, im] lists."""
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_as_lists(v) for v in doc]
    return _pairs(doc) if isinstance(doc, np.ndarray) else doc


Amplitudes = namedtuple("Amplitudes", "amplitudes")  # a state as the writer reads it
SPACES = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (3, 4), (2, 2, 3), (2, 2, 2, 2)]
NAMES = (
    st.text()
    | st.sampled_from(['"', "\\", "%", "%s", "%r%%", "é✓ \U0001f600", "\x00\x1f\x7f", "\ud800", "0.0", "\n"])
    | st.integers()
    | st.floats()
    | st.sampled_from([None, True, False, -0.0, float("nan"), float("inf")])
    | st.lists(st.integers(), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
)
AMPLITUDES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -2.0, 3e16])


@st.composite
def state_files(draw):
    """A space, 1 to D named states and maybe a phi: normalized states of a
    unitary's columns, or raw amplitudes drawn one by one (a NaN or an
    infinity now and then), which the writer takes as they are."""
    space = StateSpace(draw(st.sampled_from(SPACES)))
    n = draw(st.integers(1, space.dim))
    with_phi = draw(st.booleans())
    if draw(st.booleans()):
        u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), space.dim)
        vectors = [PureState(space, u[:, j % space.dim]) for j in range(n + with_phi)]
    else:
        values = AMPLITUDES | st.sampled_from([float("nan"), float("inf")]) if draw(st.booleans()) else AMPLITUDES
        pairs = st.lists(st.tuples(values, values).map(lambda z: complex(*z)), min_size=space.dim, max_size=space.dim)
        vectors = [Amplitudes(np.array(draw(pairs), dtype=complex)) for _ in range(n + with_phi)]
    names = draw(st.lists(NAMES, min_size=n + with_phi, max_size=n + with_phi))
    named = list(zip(names, vectors))
    return space, named[:n], named[n] if with_phi else None


@settings(max_examples=300, deadline=None)
@given(state_files())
def test_state_files_match_the_per_node_writer_and_json_dumps(case):
    doc = reference_statefile(*case)
    assert serialize_statefile(*case) == _dump(doc) == json.dumps(_as_lists(doc), indent=2)


def _family_basis():
    phi, basis = family_sep_not_locc(FamilyParams(0.3, 0.4, 0.78))
    return phi.space, basis, phi


def _t5_basis():
    phi = ghz_theta(StateSpace((2, 2, 2)), 0.6)
    return phi.space, locc_basis_sch2(phi), phi


def _product_basis():
    space = StateSpace((2, 2, 2))
    return space, random_product_basis(np.random.default_rng(5), space), None


def _ppt_dual_basis():
    spec = indistinguishable_subspace(SubspaceFamily.TRIPARTITE_222_DIM6)
    return spec.space, list(spec.complement), None


@pytest.mark.parametrize(
    "build, theorem",
    [(_t5_basis, "T5"), (_product_basis, "T1"), (_family_basis, "T2"), (_ppt_dual_basis, "PPT-dual")],
    ids=["t5_ghz", "product_2x2x2", "family_2x2", "ppt_dual"],
)
def test_reports_match_the_per_node_writer_and_json_dumps(build, theorem):
    space, basis, phi = build()
    named = [(f"psi{k + 1}", s) for k, s in enumerate(basis)]
    text = serialize_statefile(space, named, None if phi is None else ("phi", phi))
    data = parse_statefile(text)
    verdict = decide(DiscriminationInstance.from_pure(space, [s for _, s in data.states], data.phi and data.phi[1]))
    assert verdict.theorem == theorem
    report = verdict_report(verdict, text, [n for n, _ in data.states])
    assert _without_timestamp(report) == reference_report(verdict, text, [n for n, _ in data.states])
    assert json.dumps(json.loads(report), indent=2) == report
    if isinstance(verdict.certificate, PovmCertificate):
        # element names and evidence shapes the layouts are keyed by, and
        # weights json spells NaN and Infinity, which the walk writes
        names = ["%s", '"\\', "ψ\x01"]
        assert _without_timestamp(verdict_report(verdict, text, names)) == reference_report(verdict, text, names)
        for bad in (float("nan"), float("inf"), 1e308):
            evidence = [
                dataclasses.replace(ev, weights=(bad,) + tuple(ev.weights[1:])) if isinstance(ev, ProductDecomposition) else ev
                for ev in verdict.certificate.evidence
            ]
            forged = dataclasses.replace(verdict, certificate=dataclasses.replace(verdict.certificate, evidence=tuple(evidence)))
            report = verdict_report(forged, text)
            assert _without_timestamp(report) == reference_report(forged, text)
            assert report.count(json.dumps(bad)) >= sum(isinstance(ev, ProductDecomposition) for ev in evidence)


# -- the per-entry reader -------------------------------------------------------


def _reference_pairs_to_vec(pairs, where: str) -> np.ndarray:
    try:
        vals = [complex(re, im) for re, im in pairs if type(re) is not bool and type(im) is not bool]
    except (TypeError, ValueError) as exc:
        raise StateFileError(f"{where}: amplitudes must be [re, im] pairs") from exc
    except OverflowError as exc:
        raise StateFileError(f"{where}: amplitudes must be finite") from exc
    if len(vals) != len(pairs):
        raise StateFileError(f"{where}: amplitudes must be [re, im] pairs")
    out = np.array(vals, dtype=complex)
    if not np.all(np.isfinite(out.view(float))):
        raise StateFileError(f"{where}: amplitudes must be finite")
    return out


def reference_parse(text: str) -> StateFileData:
    """The reader entry by entry: each state read and checked in full before the next."""
    doc = json.loads(text)
    space = StateSpace(tuple(doc["dims"]))
    warnings = []

    def load_state(entry, where):
        if not isinstance(entry, dict) or "amplitudes" not in entry:
            raise StateFileError(f"{where}: expected an object with name and amplitudes")
        name = str(entry.get("name", where))
        vec = _reference_pairs_to_vec(entry["amplitudes"], where)
        if vec.shape != (space.dim,):
            raise StateFileError(f"{where}: amplitude vector has length {vec.shape[0]}; expected {space.dim}")
        norm = vector_norm(vec)
        if abs(norm - 1.0) > 1e-8:
            raise StateFileError(f"{where}: norm {norm:.10f} deviates from 1 by more than 1e-08")
        if abs(norm - 1.0) > 1e-10:
            warnings.append(f"{where}: norm deviated by {abs(norm-1.0):.2e}; renormalized")
        if abs(norm - 1.0) > 1e-12:
            vec = vec / norm
        return name, PureState(space, vec)

    states = [load_state(e, f"states[{i}]") for i, e in enumerate(doc["states"])]
    phi = load_state(doc["phi"], "phi") if "phi" in doc else None
    return StateFileData(space=space, states=states, phi=phi, warnings=warnings)


def _outcome(read, text):
    try:
        data = read(text)
    except StateFileError as exc:
        return str(exc)
    entries = data.states + ([data.phi] if data.phi else [])
    return [(name, s.amplitudes.tobytes()) for name, s in entries], data.warnings


def _scaled(pairs, factor):
    return [[factor * p[0], p[1]] if isinstance(p, list) and len(p) == 2 and type(p[0]) is float else p for p in pairs]


# one defect an entry can carry, each a JSON value json.loads gives back
DEFECTS = {
    "bool": lambda pairs: [[True, 0]] + pairs[1:],
    "bool_late": lambda pairs: pairs[:-1] + [[0.0, False]],
    "three_element_pair": lambda pairs: [[1, 0, 0]] + pairs[1:],
    "one_element_pair": lambda pairs: pairs[:-1] + [[0.5]],
    "numeric_string": lambda pairs: [["1", 0]] + pairs[1:],
    "string_pair": lambda pairs: ["10"] + pairs[1:],
    "object_pair": lambda pairs: [{"re": 1, "im": 0}] + pairs[1:],
    "null_pair": lambda pairs: pairs[:-1] + [None],
    "nested_pair": lambda pairs: [[[1], 0]] + pairs[1:],
    "overflow": lambda pairs: pairs[:-1] + [[10**400, 0]],
    "overflow_then_string": lambda pairs: [[10**400, 0], ["x", 0]] + pairs[2:],
    "bool_then_overflow": lambda pairs: [[False, 0], [0, -(10**400)]] + pairs[2:],
    "big_finite_integer": lambda pairs: [[2**70, 0]] + pairs[1:],
    "nan": lambda pairs: [[float("nan"), 0]] + pairs[1:],
    "infinity": lambda pairs: pairs[:-1] + [[0, float("-inf")]],
    "nan_and_short": lambda pairs: [[float("nan"), 0]] + pairs[2:],
    "short": lambda pairs: pairs[:-1],
    "long": lambda pairs: pairs + [[0, 0]],
    "empty": lambda pairs: [],
    "not_a_list": lambda pairs: 5,
    "string": lambda pairs: "ab",
    "object": lambda pairs: {},
    "null": lambda pairs: None,
    "unnormalized": lambda pairs: _scaled(pairs, 2.0),
    "slightly_off": lambda pairs: _scaled(pairs, 1 + 3e-9),
    "barely_off": lambda pairs: _scaled(pairs, 1 + 4e-11),
    "integral": lambda pairs: [[1, 0]] + [[0, 0]] * (len(pairs) - 1),
}


@st.composite
def defective_files(draw):
    """A state file with up to three entries, states or phi, given a defect
    each, or with their amplitudes or the whole entry replaced."""
    space = StateSpace(draw(st.sampled_from([(2, 2), (2, 3), (2, 2, 2)])))
    n = draw(st.integers(1, space.dim))
    u = random_unitary(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), space.dim)
    entries = [{"name": f"s{j}", "amplitudes": [[z.real, z.imag] for z in u[:, j % space.dim].tolist()]} for j in range(n + 1)]
    for _ in range(draw(st.integers(0, 3))):
        entry = entries[draw(st.integers(0, n))]
        kind = draw(st.sampled_from([*DEFECTS, "no_amplitudes", "not_an_object", "no_name"]))
        if kind == "no_amplitudes":
            entry.pop("amplitudes", None)
        elif kind == "no_name":
            entry.pop("name", None)
        elif kind == "not_an_object":
            entry.clear()
            entry["amplitudes?"] = [1, 0]
        elif isinstance(entry.get("amplitudes"), list) and len(entry["amplitudes"]) >= 2:
            entry["amplitudes"] = DEFECTS[kind](entry["amplitudes"])
    doc = {"version": "1", "dims": list(space.dims), "states": entries[:n]}
    if draw(st.booleans()):
        doc["phi"] = entries[n] if draw(st.booleans()) else draw(st.sampled_from([None, [1, 0], "phi", {}]))
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(defective_files())
def test_reader_matches_the_per_entry_reader(text):
    # the same amplitudes bit for bit, names and warnings, or the same
    # message for the same first bad entry
    assert _outcome(parse_statefile, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize("kind", sorted(DEFECTS))
@pytest.mark.parametrize("where", ["states[1]", "phi"])
def test_each_defect_reads_as_the_per_entry_reader_reads_it(kind, where):
    u = random_unitary(np.random.default_rng(3), 4)
    entries = [{"name": f"s{j}", "amplitudes": [[z.real, z.imag] for z in u[:, j].tolist()]} for j in range(3)]
    target = entries[1] if where == "states[1]" else entries[2]
    target["amplitudes"] = DEFECTS[kind](target["amplitudes"])
    text = json.dumps({"version": "1", "dims": [2, 2], "states": entries[:2], "phi": entries[2]})
    assert _outcome(parse_statefile, text) == _outcome(reference_parse, text)
