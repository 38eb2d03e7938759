import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qlang
from qlang import cli, experiments, protocols
from qlang.circuits import Circuit, Gate, circuit_unitary, swap_test_p0
from qlang.cli import main
from qlang.errors import CertificateError, FormatError
from qlang.experiments import ExperimentConfig
from qlang.files import (
    load_certificate,
    load_circuit,
    load_state,
    save_certificate,
    save_circuit,
    save_state,
    write_records,
)
from qlang.protocols import (
    Certificate,
    haar_unitary,
    merlin_L3_honest,
    merlin_L4_honest,
)
from qlang.states import (
    Bipartition,
    PureState,
    basis_state,
    bell_state,
    partial_trace,
    purity,
    random_density,
    random_pure_state,
    tensor_states,
)

BELL_CUT = Bipartition.from_subset(2, [0])
NAN = float("nan")


class TestStateFiles:
    def test_pure_roundtrip(self, tmp_path):
        phi = random_pure_state(3, 7)
        p = tmp_path / "phi.json"
        save_state(phi, p)
        got = load_state(p)
        assert isinstance(got, PureState)
        assert np.max(np.abs(got.amplitudes - phi.amplitudes)) < 1e-14

    def test_density_roundtrip(self, tmp_path):
        rho = random_density(2, 8)
        p = tmp_path / "rho.json"
        save_state(rho, p)
        assert np.max(np.abs(load_state(p).matrix - rho.matrix)) < 1e-14

    def test_bad_norm_reports_value(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": 1, "kind": "pure", "n": 1,
                                 "data": [[0.8, 0.0], [0.0, 0.0]]}))
        with pytest.raises(FormatError, match="0.8"):
            load_state(p)

    def test_near_unit_norm_renormalized(self, tmp_path):
        p = tmp_path / "near.json"
        eps = 1e-9
        p.write_text(json.dumps({"format": 1, "kind": "pure", "n": 1,
                                 "data": [[1.0 - eps, 0.0], [0.0, 0.0]]}))
        got = load_state(p)
        assert abs(np.linalg.norm(got.amplitudes) - 1.0) < 1e-14

    def test_bad_version_and_kind(self, tmp_path):
        p = tmp_path / "v.json"
        p.write_text(json.dumps({"format": 9, "kind": "pure", "n": 1,
                                 "data": [[1, 0], [0, 0]]}))
        with pytest.raises(FormatError, match="version"):
            load_state(p)
        p.write_text(json.dumps({"format": 1, "kind": "thing", "n": 1,
                                 "data": [[1, 0], [0, 0]]}))
        with pytest.raises(FormatError, match="kind"):
            load_state(p)

    def test_wrong_length(self, tmp_path):
        p = tmp_path / "short.json"
        p.write_text(json.dumps({"format": 1, "kind": "pure", "n": 2,
                                 "data": [[1, 0]]}))
        with pytest.raises(FormatError, match="expected 4"):
            load_state(p)

    def test_writes_are_deterministic(self, tmp_path):
        phi = random_pure_state(2, 9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_state(phi, a)
        save_state(phi, b)
        assert a.read_bytes() == b.read_bytes()


class TestCircuitFiles:
    def test_roundtrip_with_raw_unitary(self, tmp_path):
        c = Circuit(2, (Gate.h(0),
                        Gate.unitary(haar_unitary(4, 3), (0, 1)),
                        Gate.x(1)),
                    measured=(0,))
        p = tmp_path / "c.txt"
        save_circuit(c, p)
        assert (tmp_path / "c_u0.json").exists()
        got = load_circuit(p)
        assert np.max(np.abs(circuit_unitary(got) - circuit_unitary(c))) < 1e-12
        assert got.measured == c.measured

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_circuit(tmp_path / "nope.txt")


class TestCertificateFiles:
    def test_subset_detection(self, tmp_path):
        p = tmp_path / "cut.txt"
        save_certificate(Certificate.subset_string("100"), p)
        got = load_certificate(p)
        assert got.kind == "subset" and got.subset == "100"

    def test_witness_detection(self, tmp_path):
        cert = merlin_L3_honest(bell_state().density(), BELL_CUT)
        p = tmp_path / "w.json"
        save_certificate(cert, p)
        got = load_certificate(p)
        assert got.kind == "witness"
        assert np.max(np.abs(got.witness_matrix() - cert.witness_matrix())) < 1e-8

    def test_witness_with_state_path_references(self, tmp_path):
        save_state(bell_state().density(), tmp_path / "rho.json")
        p = tmp_path / "w.json"
        p.write_text(json.dumps({"coeffs": [1.0], "states": ["rho.json"]}))
        got = load_certificate(p)
        assert np.max(np.abs(got.witness_matrix()
                             - bell_state().density().matrix)) < 1e-8

    def test_circuit_detection(self, tmp_path):
        cert = merlin_L4_honest(random_pure_state(2, 4))
        p = tmp_path / "net.txt"
        save_certificate(cert, p)
        got = load_certificate(p)
        assert got.kind == "circuit"
        assert np.max(np.abs(circuit_unitary(got.circuit)
                             - circuit_unitary(cert.circuit))) < 1e-10

    def test_unrecognized_payload(self, tmp_path):
        p = tmp_path / "junk.txt"
        p.write_text("hello world\n")
        with pytest.raises(CertificateError):
            load_certificate(p)


class TestConfigAndRecords:
    def test_write_records(self, tmp_path):
        from qlang.experiments import run_experiment
        cfg = ExperimentConfig(protocol="L1",
                               instance={"name": "bell_prefix", "n": 3},
                               repetitions=3, prefix=1)
        write_records([run_experiment(cfg)], tmp_path / "out")
        data = json.loads((tmp_path / "out" / "records.json").read_text())
        assert len(data) == 1
        csv_lines = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert csv_lines[0].startswith("cell_index,protocol")
        assert len(csv_lines) == 2


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def bell_file(tmp_path):
    p = tmp_path / "bell.json"
    save_state(bell_state(), p)
    return str(p)


@pytest.fixture
def bell_prefix_file(tmp_path):
    p = tmp_path / "bp.json"
    save_state(tensor_states(bell_state(), basis_state(1, 0)), p)
    return str(p)


WERNER = {"name": "werner", "p": 0.5}
IDENTITY_4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]


def _cheat_config(variant, params):
    return {"protocol": "L4", "instance": {"name": "bell"},
            "certificate": {"type": "cheat", "variant": variant, "params": params}}


class TestCliExitCodes:
    def test_purity_reject(self, bell_prefix_file, capsys):
        rc = main(["purity", "--state", bell_prefix_file,
                   "--prefix", "1", "--reps", "20"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact_accept_prob"] == pytest.approx(0.75 ** 20)

    def test_purity_accept(self, bell_prefix_file, capsys):
        rc = main(["purity", "--state", bell_prefix_file,
                   "--prefix", "2", "--reps", "20"])
        assert rc == 0

    def test_separable_false_cut(self, bell_file, tmp_path, capsys):
        cert = tmp_path / "cut.txt"
        cert.write_text("10\n")
        rc = main(["separable", "--state", bell_file,
                   "--cert", str(cert), "--reps", "10"])
        assert rc == 1

    def test_witness_honest_accepts(self, bell_file, capsys):
        rc = main(["witness", "--state", bell_file, "--honest",
                   "--panel", "20"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accepted"] is True

    def test_reflect_honest_and_cheat(self, bell_file, capsys):
        assert main(["reflect", "--state", bell_file, "--honest",
                     "--probes", "6"]) == 0
        assert main(["reflect", "--state", bell_file, "--cheat", "identity",
                     "--probes", "8"]) == 1

    def test_check_honest(self, bell_file):
        assert main(["check", "--state", bell_file, "--honest"]) == 0

    def test_oracle(self, bell_file, capsys):
        rc = main(["oracle", "--state", bell_file, "--language", "L2",
                   "--epsilon", "0.1"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "reject"
        assert payload["margin"] == pytest.approx(1 - 2 ** -0.5, abs=1e-9)

    def test_format_error_is_2(self, tmp_path, capsys):
        p = tmp_path / "junk.json"
        p.write_text("not json")
        assert main(["purity", "--state", str(p),
                     "--prefix", "1", "--reps", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["purity", "--prefix", "1", "--reps", "3"],
                                         ["witness", "--honest"],
                                         ["reflect", "--honest", "--probes", "3"]])
    def test_nonpositive_shots_is_2(self, command, bell_file, capsys):
        argv = command[:1] + ["--state", bell_file] + command[1:]
        for shots in ("0", "-5"):
            assert main(argv + ["--shots", shots]) == 2
            assert "error: shots must be >= 1" in capsys.readouterr().err

    MALFORMED = {
        "state is not an object": ("state", [1]),
        "state without data": ("state", {"format": 1, "kind": "pure", "n": 1}),
        "instance is not an object": ("sweep", {"protocol": "L1", "instance": "bell"}),
        "trials is a string": ("sweep", {"protocol": "L1", "instance": {"name": "bell"},
                                         "trials": "2"}),
        "grid value is not a list": ("sweep", {"base": {"protocol": "L1",
                                                        "instance": {"name": "bell"}},
                                               "grid": {"shots": 5}}),
        "cheat without variant": ("sweep", {"protocol": "L4", "instance": {"name": "bell"},
                                            "certificate": {"type": "cheat"}}),
        "cheat params is a list": ("sweep", {"protocol": "L4", "instance": {"name": "bell"},
                                             "certificate": {"type": "cheat",
                                                             "variant": "identity",
                                                             "params": [1]}}),
        "instance n is a list": ("sweep", {"protocol": "L1",
                                           "instance": {"name": "ghz", "n": [1]}}),
        "werner p is a list": ("sweep", {"protocol": "L3",
                                         "instance": {"name": "werner", "p": [1]},
                                         "certificate": {"type": "honest"}}),
        "cut entry is a list": ("sweep", {"protocol": "L3", "instance": {"name": "bell"},
                                          "certificate": {"type": "honest"}, "cut": [[1]]}),
        "config is a string": ("sweep", "database"),
        "config is a number": ("sweep", 5),
        "config is null": ("sweep", None),
        "cheat overlap is a list": ("sweep", _cheat_config("reflect_other", {"overlap": [1]})),
        "cheat overlap is a string": ("sweep",
                                      _cheat_config("reflect_other", {"overlap": "0.5"})),
        "cheat theta is a string": ("sweep", _cheat_config("complement_phase", {"theta": "x"})),
        "instance n is a boolean": ("sweep", {"protocol": "L1",
                                              "instance": {"name": "ghz", "n": True}}),
        "werner p is a boolean": ("sweep", {"protocol": "L3",
                                            "instance": {"name": "werner", "p": True},
                                            "certificate": {"type": "honest"}}),
        "subset bits is a number": ("sweep", {"protocol": "L2", "instance": {"name": "bell"},
                                              "certificate": {"type": "subset", "bits": 10}}),
        "cheat under L3": ("sweep", {"protocol": "L3", "instance": WERNER,
                                     "certificate": {"type": "cheat",
                                                     "variant": "reflect_other"}}),
        "werner under L1": ("sweep", {"protocol": "L1", "instance": WERNER}),
        "werner under L2": ("sweep", {"protocol": "L2", "instance": WERNER,
                                      "certificate": {"type": "subset", "bits": "10"}}),
        "werner under L4": ("sweep", {"protocol": "L4", "instance": WERNER,
                                      "certificate": {"type": "honest"}}),
        "werner under L5": ("sweep", {"protocol": "L5", "instance": WERNER,
                                      "certificate": {"type": "cheat",
                                                      "variant": "identity"}}),
        "certificate path is a number": ("sweep", {"protocol": "L4",
                                                   "instance": {"name": "bell"},
                                                   "certificate": {"type": "file",
                                                                   "path": 5}}),
        "instance path is a list": ("sweep", {"protocol": "L1",
                                              "instance": {"type": "file", "path": [1]}}),
        "instance n is a float": ("sweep", {"protocol": "L1",
                                            "instance": {"name": "ghz", "n": 2.7}}),
        "plus_product n is 0": ("sweep", {"protocol": "L1",
                                          "instance": {"name": "plus_product", "n": 0}}),
        "bell_prefix n is 1": ("sweep", {"protocol": "L1",
                                         "instance": {"name": "bell_prefix", "n": 1}}),
        "epsilon is NaN": ("sweep", {"protocol": "L1", "instance": {"name": "bell"},
                                     "epsilon": NAN}),
        "cheat theta is NaN": ("sweep", _cheat_config("complement_phase", {"theta": NAN})),
        "state n is a boolean": ("state", {"format": 1, "kind": "pure", "n": True,
                                           "data": [[1, 0], [0, 0]]}),
        "witness states is null": ("witness", {"coeffs": [1.0], "states": None}),
        "unitary targets are strings": ("unitary", {"targets": ["q0", "q1"],
                                                    "matrix": IDENTITY_4}),
        "unitary targets are floats": ("unitary", {"targets": [0.0, 1.0],
                                                   "matrix": IDENTITY_4}),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_is_2(self, case, bell_file, tmp_path, capsys):
        """The input file is a state, a sweep config, a witness certificate,
        or the UNITARY payload of a two-qubit circuit."""
        kind, payload = self.MALFORMED[case]
        p = tmp_path / "input.json"
        p.write_text(json.dumps(payload))
        circuit = tmp_path / "circuit.txt"
        circuit.write_text("qubits 2\nUNITARY input.json\n")
        argvs = {
            "state": [["purity", "--state", str(p), "--prefix", "1", "--reps", "3"]],
            "sweep": [["sweep", "--config", str(p), "--out", str(tmp_path / "out")]],
            "witness": [["witness", "--state", bell_file, "--cert", str(p)]],
            "unitary": [["bridge", "--circuit", str(circuit)],
                        ["reflect", "--state", bell_file, "--cert", str(circuit),
                         "--probes", "2"]],
        }[kind]
        for argv in argvs:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err

    def test_verifier_looked_up_at_call_time(self, bell_file, tmp_path, monkeypatch):
        calls = []
        original = protocols.verify_L4

        def spy(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(protocols, "verify_L4", spy)
        assert main(["reflect", "--state", bell_file, "--honest", "--probes", "3"]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"protocol": "L4", "instance": {"name": "bell"},
                                      "certificate": {"type": "honest"},
                                      "repetitions": 5}))
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert calls == [3, 5]

    def test_oversized_generator_is_3_before_allocating(self, tmp_path, monkeypatch, capsys):
        def allocate(n):
            raise AssertionError(f"ghz_state({n}) called")

        monkeypatch.setattr(experiments, "ghz_state", allocate)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"protocol": "L1", "instance": {"name": "ghz", "n": 40}}))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_negative_panel_is_2(self, bell_file, capsys):
        assert main(["witness", "--state", bell_file, "--honest", "--panel", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "panel" in err

    def test_missing_cert_source_is_2(self, bell_file):
        assert main(["separable", "--state", bell_file, "--reps", "5"]) == 2

    def test_resource_error_is_3(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        save_state(basis_state(11, 0), p)
        assert main(["oracle", "--state", str(p), "--language", "L2"]) == 3

    def test_oversized_prefix_is_3_before_allocating(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("prefix state built before the size check")

        monkeypatch.setattr(protocols, "subset_extract", refuse)
        p = tmp_path / "fourteen.json"
        save_state(random_pure_state(14, 1), p)
        assert main(["purity", "--state", str(p), "--prefix", "13", "--reps", "3"]) == 3
        assert "estimation network size 13" in capsys.readouterr().err

    def test_sampled_seven_qubit_swap_test_is_3(self, tmp_path, capsys):
        p = tmp_path / "seven.json"
        save_state(random_pure_state(7, 1), p)
        assert main(["reflect", "--state", str(p), "--honest",
                     "--probes", "1", "--shots", "100"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_memory_error_is_3(self, monkeypatch, capsys):
        def exhausted(args):
            raise MemoryError("Unable to allocate 8.00 GiB")

        monkeypatch.setattr(cli, "_cmd_calib", exhausted)
        assert main(["calib", "--gap", "0.5", "--err", "0.1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_bridge(self, tmp_path, capsys):
        c = tmp_path / "c.txt"
        c.write_text("qubits 2\nH q0\n")
        assert main(["bridge", "--circuit", str(c)]) == 0
        assert json.loads(capsys.readouterr().out)["entangled"] is False

    @pytest.fixture
    def nan_circuit(self, tmp_path):
        """A one-qubit circuit whose UNITARY payload holds a NaN."""
        (tmp_path / "u.json").write_text(json.dumps(
            {"targets": [0], "matrix": [[[NAN, 0], [0, 0]], [[0, 0], [1, 0]]]}))
        c = tmp_path / "nan.txt"
        c.write_text("qubits 1\nUNITARY u.json\n")
        return str(c)

    def assert_error_is_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_nan_pure_state_is_2(self, tmp_path, capsys):
        p = tmp_path / "nan.json"
        p.write_text(json.dumps({"format": 1, "kind": "pure", "n": 1,
                                 "data": [[NAN, 0], [0, 0]]}))
        self.assert_error_is_2(["purity", "--state", str(p), "--prefix", "1",
                                "--reps", "3"], capsys)

    def test_nan_density_is_2(self, tmp_path, capsys):
        data = [[0.25, 0]] * 16
        data[1] = data[4] = [NAN, 0]
        p = tmp_path / "nan.json"
        p.write_text(json.dumps({"format": 1, "kind": "density", "n": 2, "data": data}))
        self.assert_error_is_2(["witness", "--state", str(p), "--honest"], capsys)

    def test_nan_unitary_certificate_is_2(self, tmp_path, nan_circuit, capsys):
        p = tmp_path / "zero.json"
        save_state(basis_state(1, 0), p)
        self.assert_error_is_2(["reflect", "--state", str(p), "--cert", nan_circuit,
                                "--probes", "2"], capsys)

    def test_nan_unitary_bridge_is_2(self, nan_circuit, capsys):
        self.assert_error_is_2(["bridge", "--circuit", nan_circuit], capsys)

    def test_calib(self, capsys):
        assert main(["calib", "--gap", "0.3333333333333333",
                     "--err", "0.001"]) == 0
        assert json.loads(capsys.readouterr().out)["repetitions"] == 125


class TestSixQubitSwapTest:
    """``purity --prefix 6`` runs the 13-qubit estimation network in a child
    process whose address space is capped at 2 GiB; the dense network input
    alone would take 1 GiB, and its evolution several more."""

    @staticmethod
    def _purity(state_file):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        src = str(Path(qlang.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run(
            [sys.executable, "-m", "qlang.cli", "purity", "--state", state_file,
             "--prefix", "6", "--reps", "3"],
            env=env, preexec_fn=cap, capture_output=True, text=True, timeout=300)

    def test_mixed_prefix_rejects_with_exact_p0(self, tmp_path):
        phi = random_pure_state(7, 13)
        p = tmp_path / "seven.json"
        save_state(phi, p)
        run = self._purity(str(p))
        assert run.returncode == 1, run.stderr
        p0 = json.loads(run.stdout)["transcript"][0]["p0_exact"]
        want = swap_test_p0([purity(partial_trace(phi.density(), range(6)))], 6)
        assert abs(p0 - want[0]) < 1e-12

    def test_pure_state_accepts(self, tmp_path):
        p = tmp_path / "six.json"
        save_state(random_pure_state(6, 13), p)
        run = self._purity(str(p))
        assert run.returncode == 0, run.stderr


class TestCliReplay:
    def test_sampled_run_is_byte_identical(self, bell_prefix_file, capsys):
        argv = ["purity", "--state", bell_prefix_file, "--prefix", "1",
                "--reps", "5", "--shots", "2000", "--seed", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["sampled_accept_freq"] is not None

    def test_sweep_outputs_replay(self, tmp_path, capsys):
        cfg = {"base": {"protocol": "L1",
                        "instance": {"name": "bell_prefix", "n": 3},
                        "prefix": 1, "shots": 500, "master_seed": 4},
               "grid": {"repetitions": [1, 3, 5]}}
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", "--config", str(cfile), "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(cfile), "--out", str(out2)]) == 0
        assert ((out1 / "records.json").read_bytes()
                == (out2 / "records.json").read_bytes())
        assert ((out1 / "records.csv").read_bytes()
                == (out2 / "records.csv").read_bytes())

    def test_sweep_workers_agree(self, tmp_path, capsys):
        cfg = {"base": {"protocol": "L1",
                        "instance": {"name": "bell_prefix", "n": 3},
                        "prefix": 1, "shots": 300},
               "grid": {"repetitions": [1, 2]}}
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep", "--config", str(cfile), "--out", str(serial)])
        main(["sweep", "--config", str(cfile), "--out", str(parallel), "--workers", "2"])
        assert ((serial / "records.json").read_bytes()
                == (parallel / "records.json").read_bytes())
