import json

import numpy as np
import pytest

from qlang import cli
from qlang.circuits import Circuit, Gate, circuit_unitary
from qlang.cli import main
from qlang.errors import CertificateError, FormatError
from qlang.experiments import ExperimentConfig
from qlang.files import (
    load_certificate,
    load_circuit,
    load_config,
    load_state,
    save_certificate,
    save_circuit,
    save_config,
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
    random_density,
    random_pure_state,
    tensor_states,
)

BELL_CUT = Bipartition.from_subset(2, [0])


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
    def test_config_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(protocol="L1",
                               instance={"name": "bell_prefix", "n": 3},
                               repetitions=4, prefix=1, shots=100)
        p = tmp_path / "cfg.json"
        save_config(cfg, p)
        assert load_config(p) == cfg

    def test_config_unknown_field(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"protocol": "L1", "instance": {"name": "bell"},
                                 "wrong": 1}))
        with pytest.raises(FormatError):
            load_config(p)

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
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_is_2(self, case, tmp_path, capsys):
        kind, payload = self.MALFORMED[case]
        p = tmp_path / "input.json"
        p.write_text(json.dumps(payload))
        if kind == "state":
            argv = ["purity", "--state", str(p), "--prefix", "1", "--reps", "3"]
        else:
            argv = ["sweep", "--config", str(p), "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_missing_cert_source_is_2(self, bell_file):
        assert main(["separable", "--state", bell_file, "--reps", "5"]) == 2

    def test_resource_error_is_3(self, tmp_path, capsys):
        p = tmp_path / "big.json"
        save_state(basis_state(11, 0), p)
        assert main(["oracle", "--state", str(p), "--language", "L2"]) == 3

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

    def test_calib(self, capsys):
        assert main(["calib", "--gap", "0.3333333333333333",
                     "--err", "0.001"]) == 0
        assert json.loads(capsys.readouterr().out)["repetitions"] == 125


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

    def test_sweep_workers_agree(self, tmp_path, capsys, monkeypatch):
        cfg = {"base": {"protocol": "L1",
                        "instance": {"name": "bell_prefix", "n": 3},
                        "prefix": 1, "shots": 300},
               "grid": {"repetitions": [1, 2]}}
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(cfg))
        serial, parallel = tmp_path / "s", tmp_path / "p"
        main(["sweep", "--config", str(cfile), "--out", str(serial)])
        monkeypatch.setenv("QLANG_WORKERS", "2")
        main(["sweep", "--config", str(cfile), "--out", str(parallel)])
        assert ((serial / "records.json").read_bytes()
                == (parallel / "records.json").read_bytes())
