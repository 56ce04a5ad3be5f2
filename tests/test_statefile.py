"""The state-file and report writer against its reference, json.dumps(indent=2)."""

import enum
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sepdisc.discrimination import decide
from sepdisc.statefile import _dump, input_digest, verdict_report
from tests.conftest import census_cell, upb_tiles, upb_with_complement

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
