import json
import re
import sys

import numpy as np
import pytest

from sepdisc.cli import main
from sepdisc.discrimination import DiscriminationInstance, validate_certificate
from sepdisc.errors import StateFileError
from sepdisc.sampling import random_product_basis, random_unitary
from sepdisc.separability import DualCertificate
from sepdisc.states import QUBIT_PAIR, PureState, StateSpace, phi_plus
from sepdisc.statefile import parse_statefile, serialize_statefile
from tests.conftest import bell


_STATE = '{"name": "s", "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
# state files parse_statefile rejects, with the whole message it gives
REJECTED = {
    "invalid_json": ('{"version": "1", "dims": [2, 2]', "line 1, column 32: Expecting ',' delimiter"),
    "not_an_object": (f"[{_STATE}]", "top level must be an object"),
    "wrong_version": (f'{{"version": 1, "dims": [2, 2], "states": [{_STATE}]}}', 'unsupported version 1; expected "1"'),
    "no_amplitudes": ('{"version": "1", "dims": [2, 2], "states": [{"name": "s"}]}', "states[0]: expected an object with name and amplitudes"),
    "wrong_count": (
        '{"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": [[1, 0], [0, 0], [0, 0]]}]}',
        "states[0]: amplitude vector has length 3; expected 4",
    ),
    "no_states": ('{"version": "1", "dims": [2, 2], "states": []}', "states must be a nonempty list"),
    "overflow": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", "[1e400, 0]"), "states[0]: amplitudes must be finite"),
    "nan": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", "[NaN, 0]"), "states[0]: amplitudes must be finite"),
    "infinity": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[0, 0]]", "[0, -Infinity]]"), "states[0]: amplitudes must be finite"),
    "bool": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", "[true, 0]"), "states[0]: amplitudes must be [re, im] pairs"),
    "three_element_pair": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", "[1, 0, 0]"), "states[0]: amplitudes must be [re, im] pairs"),
    "numeric_string": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", '["1", 0]'), "states[0]: amplitudes must be [re, im] pairs"),
    "integer_overflow": (_STATE.join(['{"version": "1", "dims": [2, 2], "states": [', "]}"]).replace("[1, 0]", "[1%s, 0]" % ("0" * 400)), "states[0]: amplitudes must be finite"),
    "not_a_list": ('{"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": 1}]}', "states[0]: amplitudes must be [re, im] pairs"),
    "unnormalized": ('{"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}]}', "states[0]: norm 1.4142135624 deviates from 1 by more than 1e-08"),
    "phi_wrong_count": (f'{{"version": "1", "dims": [2, 2], "states": [{_STATE}], "phi": {{"amplitudes": [[0, 0], [1, 0]]}}}}', "phi: amplitude vector has length 2; expected 4"),
    "phi_not_an_object": (f'{{"version": "1", "dims": [2, 2], "states": [{_STATE}], "phi": [[0, 0], [1, 0]]}}', "phi: expected an object with name and amplitudes"),
    # the first bad entry in file order, its values read before a later
    # entry's structure: a NaN in states[0] before a missing list in states[1],
    # a state's norm before a bad phi, a NaN before a wrong count in one entry
    "first_bad_entry": (
        '{"version": "1", "dims": [2, 2], "states": [{"amplitudes": [[NaN, 0], [0, 0], [0, 0], [1, 0]]}, {"name": "t"}]}',
        "states[0]: amplitudes must be finite",
    ),
    "norm_before_phi": (
        f'{{"version": "1", "dims": [2, 2], "states": [{_STATE.replace("[0, 0]]", "[0.5, 0]]")}], "phi": {{"amplitudes": [true]}}}}',
        "states[0]: norm 1.1180339887 deviates from 1 by more than 1e-08",
    ),
    "nan_before_count": ('{"version": "1", "dims": [2, 2], "states": [{"amplitudes": [[0, NaN]]}]}', "states[0]: amplitudes must be finite"),
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_states(tmp_path, name, states, phi=None):
    path = tmp_path / name
    path.write_text(serialize_statefile(states[0][1].space, states, phi))
    return str(path)


class TestDecide:
    def test_bell_triple_exit_1(self, tmp_path, capsys):
        path = write_states(
            tmp_path,
            "bell.json",
            [("m1", bell("phi-")), ("m2", bell("psi+")), ("m3", bell("psi-"))],
            ("phi", phi_plus()),
        )
        code, out, _ = run_cli(capsys, "decide", path)
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "indistinguishable"
        assert report["reason"]["code"] == "lambda_sum"
        assert abs(report["reason"]["data"]["sum"] - 3.0) < 1e-9

    def test_closed_stdout_exits_quietly_with_the_verdict_code(self, tmp_path, capsys, monkeypatch):
        # `sepdisc decide FILE | head`: the reader closes the pipe before the
        # report is written
        path = write_states(
            tmp_path,
            "bell.json",
            [("m1", bell("phi-")), ("m2", bell("psi+")), ("m3", bell("psi-"))],
            ("phi", phi_plus()),
        )
        with open(tmp_path / "stdout", "w") as sink:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    raise BrokenPipeError(32, "Broken pipe")

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            code = main(["decide", path])
        assert code == 1
        assert capsys.readouterr().err == ""

    def test_family_exit_0_with_lambdas_and_flag(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "family", "0.3", "0.4", "0.78")
        assert code == 0
        path = tmp_path / "family.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "distinguishable"
        assert report["locc_flag"] == "locc_indistinguishable"
        assert len(report["lambdas"]) == 3
        assert abs(sum(report["lambdas"]) - 1.0) < 1e-9

    def test_malformed_dims_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "1", "dims": [2], "states": []}')
        code, _, err = run_cli(capsys, "decide", str(path))
        assert code == 3
        assert "dims" in err

    @pytest.mark.parametrize("entry", [{"re": 1}, {"re": 1, "im": 0}, [1, 0, 5], [1], "10", [True, 0], [[1], 0], None])
    def test_malformed_amplitude_exit_3(self, tmp_path, capsys, entry):
        amplitudes = [entry, [0, 0], [0, 0], [0, 0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": amplitudes}]}))
        code, _, err = run_cli(capsys, "decide", str(path))
        assert code == 3
        assert "[re, im] pairs" in err

    def test_oversized_integer_amplitude_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"version": "1", "dims": [2, 2], "states": [{"name": "s", "amplitudes": [[1%s, 0], [0, 0], [0, 0], [0, 0]]}]}' % ("0" * 400))
        code, _, err = run_cli(capsys, "decide", str(path))
        assert code == 3
        assert "finite" in err

    def test_unnormalized_rejected(self, tmp_path, capsys):
        path = tmp_path / "norm.json"
        path.write_text(
            json.dumps(
                {
                    "version": "1",
                    "dims": [2, 2],
                    "states": [{"name": "s", "amplitudes": [[1, 0], [1, 0], [0, 0], [0, 0]]}],
                }
            )
        )
        code, _, err = run_cli(capsys, "decide", str(path))
        assert code == 3
        assert "norm" in err

    @pytest.mark.parametrize("text, message", list(REJECTED.values()), ids=list(REJECTED))
    def test_rejected_state_file_exit_3(self, tmp_path, capsys, text, message):
        with pytest.raises(StateFileError, match=re.escape(message)):
            parse_statefile(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "decide", str(path))
        assert code == 3
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [["decide"], ["frobnicate"], ["decide", "x.json", "--max-iterations", "two"]])
    def test_usage_error_exits_3_not_argparse_2(self, capsys, argv):
        # argparse's own usage exit, 2, would read as "undecided"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert capsys.readouterr().err.startswith("usage: sepdisc")

    @pytest.mark.parametrize("kind", ["dim7", "dim6"])
    def test_subspace_exit_1_ppt_dual(self, tmp_path, capsys, kind):
        code, out, _ = run_cli(capsys, "construct", "subspace", kind)
        path = tmp_path / f"{kind}.json"
        path.write_text(out)
        data = parse_statefile(out)
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 1
        report = json.loads(out)
        assert report["status"] == "indistinguishable"
        assert report["theorem"] == "PPT-dual"
        props = report["residuals"]["subspace_properties"]
        assert props["unique_product_vector"] is True
        assert props["entangled_members_need_three_products"] is True
        assert props["difference_combinations_need_three_products"] is True
        # the serialized certificate re-checks from the report alone
        dual = report["dual_certificate"]
        matrix = lambda rows: np.array([[complex(*z) for z in row] for row in rows])
        cuts = tuple(tuple(entry["cut"]) for entry in dual["z"][0])
        z = np.array([[matrix(entry["matrix"]) for entry in zk] for zk in dual["z"]])
        cert = DualCertificate(matrix(dual["y"]), z, cuts, dual["objective"], dual["scale"])
        instance = DiscriminationInstance.from_pure(data.space, [st for _, st in data.states])
        checked = validate_certificate(cert, instance)
        assert checked["valid"]
        assert checked["objective"] == pytest.approx(dual["objective"], rel=1e-9)
        assert checked["scale"] == pytest.approx(dual["scale"], rel=1e-9)

    def test_subspace_report_reads_the_env_tolerance(self, tmp_path, capsys, monkeypatch):
        import sepdisc.cli as cli

        path = tmp_path / "dim7.json"
        path.write_text(run_cli(capsys, "construct", "subspace", "dim7")[1])
        ranks, verify = [], cli.verify_subspace_properties

        def recording(spec, tol=cli.config.DEFAULT):
            ranks.append(tol.rank)
            return verify(spec, tol)

        monkeypatch.setattr(cli, "verify_subspace_properties", recording)
        monkeypatch.setenv(cli.config.ENV_TOL, "1e-7")
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 1
        assert ranks == [1e-7]
        assert all(json.loads(out)["residuals"]["subspace_properties"].values())

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_max_iterations_below_one_exit_3(self, tmp_path, capsys, cap):
        # a cap below 1 is an input error, not the default cap or a run of
        # zero iterations
        _, out, _ = run_cli(capsys, "construct", "subspace", "dim7")
        path = tmp_path / "dim7.json"
        path.write_text(out)
        code, out, err = run_cli(capsys, "decide", "--max-iterations", cap, str(path))
        assert code == 3
        assert out == ""
        assert "max_iterations must be at least 1" in err

    def test_undecided_exit_2_two_states(self, tmp_path, capsys):
        # two orthogonal 2x2 states whose relaxed point has no separability
        # evidence and whose relaxation is feasible, so no dual exists
        u = random_unitary(np.random.default_rng(0), 4)[:, :2]
        path = write_states(tmp_path, "pair.json", [(f"s{j}", PureState(QUBIT_PAIR, u[:, j])) for j in range(2)])
        code, out, _ = run_cli(capsys, "decide", path)
        assert code == 2
        report = json.loads(out)
        assert report["status"] == "undecided"
        assert report["reason"]["code"] == "ppt_feasible_relaxation"
        assert "dual_certificate" not in report


class TestConstruct:
    def test_family_out_of_range_names_bound(self, capsys):
        code, _, err = run_cli(capsys, "construct", "family", "0.3", "0.4", "0.5")
        assert code == 3
        assert "atan(sqrt(sin2a/sin2b))" in err

    def test_tetra_valid_point(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "tetra", "0.2", "0.2", "0.9")
        assert code == 0
        data = parse_statefile(out)
        assert len(data.states) == 3
        path = tmp_path / "t.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 1  # interior point: sum 1.3 > 1

    def test_tetra_invalid_point(self, capsys):
        code, _, err = run_cli(capsys, "construct", "tetra", "0.2", "0.2", "0.2")
        assert code == 3
        assert "x1+x2+x3" in err

    def test_targets_pipeline(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "construct", "targets", "0.5", "0.25", "0.25")
        assert code == 0
        path = tmp_path / "targets.json"
        path.write_text(out)
        code, out, _ = run_cli(capsys, "decide", str(path))
        assert code == 0

    def test_locc_basis_pipeline(self, tmp_path, capsys):
        s3 = __import__("sepdisc").StateSpace((2, 2, 2))
        from tests.conftest import ghz_theta

        phi = ghz_theta(s3, 0.7)
        path = write_states(tmp_path, "ghz.json", [("phi", phi)], ("phi", phi))
        code, out, _ = run_cli(capsys, "construct", "locc-basis", path)
        assert code == 0
        out_path = tmp_path / "basis.json"
        out_path.write_text(out)
        code, out, _ = run_cli(capsys, "decide", str(out_path))
        assert code == 0
        report = json.loads(out)
        assert report["theorem"] == "T5"

    def test_locc_basis_prints_the_parse_warnings(self, tmp_path, capsys):
        # 0.600000003|00> + 0.8|11> on 3x3: renormalized, with a warning,
        # as decide prints it for the same file
        amplitudes = [[0, 0]] * 9
        amplitudes[0], amplitudes[4] = [0.600000003, 0], [0.8, 0]
        path = tmp_path / "phi.json"
        path.write_text(json.dumps({"version": "1", "dims": [3, 3], "states": [{"name": "phi", "amplitudes": amplitudes}]}))
        warning = "warning: states[0]: norm deviated by 1.80e-09; renormalized"
        code, _, err = run_cli(capsys, "decide", str(path))
        assert warning in err
        code, out, err = run_cli(capsys, "construct", "locc-basis", str(path))
        assert code == 0 and warning in err
        assert len(parse_statefile(out).states) == 8


class TestSweep:
    def test_sweep_rows(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, out, _ = run_cli(capsys, "sweep", "--step", "0.25", "--output", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()
        header = rows[0].split(",")
        assert header == [
            "x1",
            "x2",
            "x3",
            "achieved1",
            "achieved2",
            "achieved3",
            "max_error",
            "decide_status",
        ]
        table = {tuple(r.split(",")[:3]): r.split(",") for r in rows[1:]}
        one_zero = table[("1.000000", "0.000000", "0.000000")]
        assert one_zero[-1] == "distinguishable"
        all_one = table[("1.000000", "1.000000", "1.000000")]
        assert all_one[-1] == "indistinguishable"
        half = table[("0.500000", "0.250000", "0.250000")]
        assert half[-1] == "distinguishable"
        assert all(float(r.split(",")[6]) < 1e-8 for r in rows[1:])

    def test_grid_is_walked_once(self, tmp_path, capsys, monkeypatch):
        import sepdisc.verify as verify
        from sepdisc.constructions import tetra_grid, tetra_unitary

        calls = []

        def counting(point):
            calls.append(point)
            return tetra_unitary(point)

        monkeypatch.setattr(verify, "tetra_unitary", counting)
        size = len(list(tetra_grid(0.25)))
        round_trip, decisions = verify.check_tetra(0.25)
        assert round_trip.passed and decisions.passed
        assert len(calls) == size
        calls.clear()
        run_cli(capsys, "sweep", "--step", "0.25", "--output", str(tmp_path / "sweep.csv"))
        assert len(calls) == size

    def test_step_validation(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "sweep", "--step", "0.5", "--output", str(tmp_path / "x.csv"))
        assert code == 3


class TestDeterminism:
    def test_reports_byte_identical_modulo_timestamp(self, tmp_path, capsys):
        path = write_states(
            tmp_path,
            "bell.json",
            [("m1", bell("phi-")), ("m2", bell("psi+")), ("m3", bell("psi-"))],
            ("phi", phi_plus()),
        )
        _, out1, _ = run_cli(capsys, "decide", path)
        _, out2, _ = run_cli(capsys, "decide", path)
        strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": null', s)
        assert strip(out1) == strip(out2)
        r1, r2 = json.loads(out1), json.loads(out2)
        assert r1["input_digest"] == r2["input_digest"]

    def test_statefile_round_trip_lossless(self, rng):
        from sepdisc.sampling import random_pure_state

        states = [(f"s{i}", random_pure_state(rng, QUBIT_PAIR)) for i in range(2)]
        text = serialize_statefile(QUBIT_PAIR, states)
        data = parse_statefile(text)
        for (_, original), (_, parsed) in zip(states, data.states):
            assert np.array_equal(original.amplitudes, parsed.amplitudes)


class TestVerifyCommand:
    def test_verify_lemmas_quick(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "lemmas", "--seed", "7")
        assert code == 0
        assert "lemma1_both_directions" in out
        assert "checks passed" in out

    @pytest.mark.parametrize("bases", ["0", "-3"])
    def test_bases_below_one_exit_3(self, capsys, monkeypatch, bases):
        import sepdisc.cli as cli

        monkeypatch.setitem(cli.SUITES, "theorem2", lambda **kwargs: pytest.fail("the suite ran"))
        code, out, err = run_cli(capsys, "verify", "theorem2", "--bases", bases)
        assert code == 3
        assert out == "" and "--bases" in err

    def test_negative_seed_exit_3(self, capsys, monkeypatch):
        import sepdisc.cli as cli

        monkeypatch.setitem(cli.SUITES, "lemmas", lambda **kwargs: pytest.fail("the suite ran"))
        code, out, err = run_cli(capsys, "verify", "lemmas", "--seed", "-1")
        assert code == 3
        assert out == "" and err == "error: --seed must be nonnegative\n"


def _bell_report(tmp_path, capsys):
    """A lambda certificate."""
    path = write_states(
        tmp_path,
        "bell.json",
        [("m1", bell("phi-")), ("m2", bell("psi+")), ("m3", bell("psi-"))],
        ("phi", phi_plus()),
    )
    return run_cli(capsys, "decide", path)[1]


def _product_3q_report(tmp_path, capsys):
    """Product factors of every member."""
    basis = random_product_basis(np.random.default_rng(5), StateSpace((2, 2, 2)))
    path = write_states(tmp_path, "product.json", [(f"m{k}", s) for k, s in enumerate(basis)])
    code, out, _ = run_cli(capsys, "decide", path)
    assert code == 0
    return out


def _dim7_report(tmp_path, capsys):
    """A PPT dual: 2-D Y and Z matrices."""
    path = tmp_path / "dim7.json"
    path.write_text(run_cli(capsys, "construct", "subspace", "dim7")[1])
    code, out, _ = run_cli(capsys, "decide", str(path))
    assert code == 1 and "dual_certificate" in json.loads(out)
    return out


def _family_statefile(tmp_path, capsys):
    """A state file with phi."""
    code, out, _ = run_cli(capsys, "construct", "family", "0.3", "0.4", "0.78")
    assert code == 0
    return out


class TestReportFormat:
    @pytest.mark.parametrize(
        "produce", [_bell_report, _product_3q_report, _dim7_report, _family_statefile], ids=lambda f: f.__name__[1:]
    )
    def test_report_round_trips_losslessly(self, tmp_path, capsys, produce):
        out = produce(tmp_path, capsys)
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) == out.rstrip("\n")


class TestEnvOverride:
    def test_tolerance_env_override(self, monkeypatch):
        from sepdisc import config

        monkeypatch.setenv(config.ENV_TOL, "1e-6")
        tol = config.from_env()
        assert tol.rank == 1e-6 and tol.psd == 1e-6
        for raw in ("not-a-number", "nan", "inf", "0", "-1e-6"):
            monkeypatch.setenv(config.ENV_TOL, raw)
            assert config.from_env() == config.DEFAULT, raw
        monkeypatch.delenv(config.ENV_TOL)
        assert config.from_env() == config.DEFAULT
