"""End-to-end command line checks: workflows, determinism, and exit codes."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import povm_entangle
from povm_entangle import BasisMap, CoincidenceCounts, HermitianOperator, PovmSet, bell_povm
from povm_entangle import cli, witness
from povm_entangle.cli import main


def run(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def bell_csv(tmp_path, capsys):
    path = tmp_path / "counts.csv"
    rc = main(["simulate", "--seed", "0", "-o", str(path)])
    capsys.readouterr()
    assert rc == 0
    return path


def mixed_povm_file(tmp_path):
    # first element is a scaled product projector: its standard form cannot
    # converge, while the full-rank complement goes through fine
    p00 = np.zeros((4, 4))
    p00[0, 0] = 1.0
    povm = PovmSet(
        ("bad", "good"),
        (
            HermitianOperator(0.5 * p00, (2, 2)),
            HermitianOperator(np.eye(4) - 0.5 * p00, (2, 2)),
        ),
    )
    path = tmp_path / "mixed_povm.json"
    path.write_text(json.dumps(povm.to_dict()))
    return path


def nan_bell_povm_file(tmp_path):
    # json accepts NaN literals, so a corrupted record parses cleanly
    record = bell_povm().to_dict()
    record["elements"][0]["re"][1][1] = float("nan")
    path = tmp_path / "nan_povm.json"
    path.write_text(json.dumps(record))
    return path


def swapped_basis_map_file(tmp_path):
    # the default map with Bob's D and A swapped
    record = BasisMap.default().to_dict()
    bob = record["bob"]
    bob["D"], bob["A"] = bob["A"], bob["D"]
    path = tmp_path / "basis_map.json"
    path.write_text(json.dumps(record))
    return path


class TestWorkflow:
    def test_simulate_reconstruct_quasidist_chain(self, tmp_path, capsys, bell_csv):
        rec = tmp_path / "rec.json"
        rc, _, _ = run(["reconstruct", "--counts", str(bell_csv), "-o", str(rec)], capsys)
        assert rc == 0
        payload = json.loads(rec.read_text())
        assert set(payload) >= {
            "manifest",
            "raw_povm",
            "corrected_povm",
            "lambda",
            "p",
            "completeness_residual",
            "bell_match",
        }
        assert payload["completeness_residual"] < 1e-12
        match = {k: v["label"] for k, v in payload["bell_match"].items()}
        assert match == {"AA": "0", "AD": "x", "DA": "z", "DD": "y"}
        assert all(v["overlap"] > 0.9 for v in payload["bell_match"].values())

        qdir = tmp_path / "qdist"
        rc, _, _ = run(["quasidist", "--povm", str(rec), "-o", str(qdir)], capsys)
        assert rc == 0
        summary = json.loads((qdir / "summary.json").read_text())
        assert summary["failed"] == []
        assert set(summary["elements"]) == {"AA", "AD", "DA", "DD"}
        for label, entry in summary["elements"].items():
            assert entry["q"] == pytest.approx(-0.5, abs=0.05)
            assert entry["verdict"] == "entangled"
            assert (qdir / entry["file"]).exists()
            assert (qdir / f"element_{label}.svg").exists()

    def test_quasidist_writes_without_the_stdlib_encoder(self, tmp_path, capsys, bell_csv, monkeypatch):
        # a numpy scalar fails _encode's exact-type test and goes to json.dumps,
        # the stdlib's pure-Python encoder
        rec = tmp_path / "rec.json"
        assert run(["reconstruct", "--counts", str(bell_csv), "-o", str(rec)], capsys)[0] == 0
        handed = []
        dumps = json.dumps

        def spy(obj, *args, **kwargs):
            if sys._getframe(1).f_code is cli._encode.__code__:
                handed.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", spy)
        rc, _, err = run(["quasidist", "--povm", str(rec), "-o", str(tmp_path / "q")], capsys)
        assert rc == 0, err
        assert handed == []

    def test_witness_element_mode_on_reconstruction(self, tmp_path, capsys, bell_csv):
        rec = tmp_path / "rec.json"
        assert run(["reconstruct", "--counts", str(bell_csv), "-o", str(rec)], capsys)[0] == 0
        rc, out, _ = run(["witness", "--povm", str(rec), "--element", "DD"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["mode"] == "element"
        assert payload["verdict"] == "entangled"
        assert payload["lhs"] == pytest.approx(0.5, abs=0.05)

    def test_witness_manifests_record_restarts(self, tmp_path, capsys, bell_csv):
        # with --numeric the restart count sets the solver's value, so every
        # mode's manifest names it: here 2 restarts stop short of g_max and
        # 64 reach it, while the closed form keeps the verdict
        rec = tmp_path / "rec.json"
        assert run(["reconstruct", "--counts", str(bell_csv), "-o", str(rec)], capsys)[0] == 0
        modes = {
            "family": ["--family", "me", "-d", "3", "--eps", "0.2"],
            "element": ["--povm", str(rec), "--element", "DD"],
            "lambda": ["--lambda", "-n", "3", "-d", "2"],
        }
        payloads = {}
        for mode, args in modes.items():
            numeric = [] if mode == "lambda" else ["--numeric"]
            for restarts in ("2", "64"):
                rc, out, _ = run(["witness", *args, *numeric, "--restarts", restarts], capsys)
                assert rc == 0
                payloads[mode, restarts] = json.loads(out)
            assert payloads[mode, "2"]["manifest"]["parameters"]["restarts"] == 2, mode
            assert payloads[mode, "64"]["manifest"]["parameters"]["restarts"] == 64, mode
        assert payloads["family", "2"]["numeric_gmax"] < payloads["family", "64"]["numeric_gmax"]
        assert payloads["family", "2"]["verdict"] == payloads["family", "64"]["verdict"] == "inconclusive"

    def test_povm_bell_literal(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["simulate", "--seed", "4", "-o", str(a)], capsys)[0] == 0
        assert run(["simulate", "--povm", "BELL", "--seed", "4", "-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_model_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({"povm": "bell", "eps": 0.0, "counts_per_setting": 10000, "seed": 0}))
        out = tmp_path / "spec_counts.csv"
        assert run(["simulate", "--model", str(spec), "-o", str(out)], capsys)[0] == 0
        ref = tmp_path / "ref.csv"
        assert run(["simulate", "--seed", "0", "-o", str(ref)], capsys)[0] == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_errors_summary_manifest(self, tmp_path, capsys):
        counts = tmp_path / "small.csv"
        assert run(["simulate", "--counts", "400", "--seed", "1", "-o", str(counts)], capsys)[0] == 0
        rc, out, _ = run(
            ["errors", "--counts", str(counts), "--samples", "12", "--seed", "2", "--workers", "1"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["manifest"]["parameters"]["samples"] == 12
        assert payload["manifest"]["parameters"]["inflation"] == 1.05
        assert payload["sample_size"] == 12
        assert set(payload["elements"]) if isinstance(payload["elements"], dict) else True

    def test_witness_family_modes(self, capsys):
        rc, out, _ = run(["witness", "--family", "ghz", "-n", "2", "--eps", "0.1"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "entangled"
        assert payload["noise_threshold"] == pytest.approx(0.2, abs=1e-12)

        rc, out, _ = run(["witness", "--family", "me", "-d", "3", "--eps", "0.2"], capsys)
        assert rc == 0
        payload = json.loads(out)
        assert payload["verdict"] == "inconclusive"

    def test_witness_lambda_cross_check(self, capsys):
        rc, out, _ = run(
            ["witness", "--lambda", "-n", "3", "-d", "2", "--restarts", "8", "--seed", "1"],
            capsys,
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["analytic"] == pytest.approx(0.25, abs=1e-12)
        assert abs(payload["difference"]) < 1e-6
        assert payload["converged"] is True

    def test_combine_identity_grouping_round_trips(self, tmp_path, capsys, bell_csv):
        out = tmp_path / "merged.csv"
        rc, _, _ = run(
            ["combine", "--counts", str(bell_csv), "--groups", "AA,AD,DA,DD", "-o", str(out)],
            capsys,
        )
        assert rc == 0
        assert out.read_bytes() == bell_csv.read_bytes()

    def test_combine_pairwise_merge(self, tmp_path, capsys, bell_csv):
        rc, out, _ = run(
            ["combine", "--counts", str(bell_csv), "--groups", "AA+AD,DA+DD"], capsys
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "probe_a,probe_b,outcome,count"
        outcomes = {ln.split(",")[2] for ln in lines[1:]}
        assert outcomes == {"AA+AD", "DA+DD"}


class TestDeterminism:
    def test_simulate_rerun_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert run(["simulate", "--seed", "3", "-o", str(a)], capsys)[0] == 0
        assert run(["simulate", "--seed", "3", "-o", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        c = tmp_path / "c.json"
        assert run(["simulate", "--seed", "4", "-o", str(c)], capsys)[0] == 0
        assert a.read_bytes() != c.read_bytes()

    def test_json_counts_reload_matches_csv(self, tmp_path, capsys):
        as_csv = tmp_path / "counts.csv"
        as_json = tmp_path / "counts.json"
        assert run(["simulate", "--seed", "7", "-o", str(as_csv)], capsys)[0] == 0
        assert run(["simulate", "--seed", "7", "-o", str(as_json)], capsys)[0] == 0
        rec_a = tmp_path / "rec_a.json"
        rec_b = tmp_path / "rec_b.json"
        assert run(["reconstruct", "--counts", str(as_csv), "-o", str(rec_a)], capsys)[0] == 0
        assert run(["reconstruct", "--counts", str(as_json), "-o", str(rec_b)], capsys)[0] == 0
        a = json.loads(rec_a.read_text())
        b = json.loads(rec_b.read_text())
        assert a["corrected_povm"] == b["corrected_povm"]

    def test_seed_overrides_the_model_spec(self, tmp_path, capsys):
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({"counts_per_setting": 400, "seed": 9}))
        viaspec = tmp_path / "spec.csv"
        viaflag = tmp_path / "flag.csv"
        assert run(["simulate", "--model", str(spec), "--seed", "4", "-o", str(viaspec)], capsys)[0] == 0
        assert run(["simulate", "--counts", "400", "--seed", "4", "-o", str(viaflag)], capsys)[0] == 0
        assert viaspec.read_bytes() == viaflag.read_bytes()


class TestExitCodes:
    def test_version(self, capsys):
        rc, out, _ = run(["--version"], capsys)
        assert rc == 0
        assert "povm-entangle" in out

    def test_usage_error_is_one(self, capsys):
        rc, _, err = run(["reconstruct"], capsys)
        assert rc == 1
        assert "--counts" in err

    def test_witness_without_mode_is_one(self, capsys):
        rc, _, err = run(["witness"], capsys)
        assert rc == 1
        assert "mode" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--lambda", "-n", "3", "-d", "2", "--family", "ghz"],
            ["--lambda", "-n", "3", "-d", "2", "--povm", "rec.json"],
            ["--lambda", "-n", "3", "-d", "2", "--element", "DD"],
            ["--family", "ghz", "-n", "3", "-d", "7"],
            ["--family", "me", "-d", "3", "-n", "2"],
            ["--povm", "rec.json", "--element", "DD", "-n", "2"],
            ["--povm", "rec.json", "--element", "DD", "-d", "2"],
            ["--family", "ghz", "-n", "3", "--element", "DD"],
            ["--lambda", "-n", "2", "-d", "2", "--numeric"],
            ["--lambda", "-n", "2", "-d", "2", "--eps", "0.3"],
            ["--povm", "rec.json", "--element", "DD", "--eps", "0.3"],
        ],
        ids=[
            "lambda-family", "lambda-povm", "lambda-element", "ghz-d", "me-n", "element-n",
            "element-d", "element-without-povm", "lambda-numeric", "lambda-eps", "element-eps",
        ],
    )
    def test_witness_option_its_mode_ignores_is_one(self, capsys, args):
        # refused before any file is read: rec.json need not exist
        rc, out, err = run(["witness", *args], capsys)
        assert rc == 1
        assert out == ""
        assert "Usage:" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--povm", "rec.json"],
            ["--eps", "0.5"],
            ["--eps", "0.0"],
            ["--counts", "7"],
            ["--indefiniteness", "0.3"],
            ["--basis-map", "map.json"],
        ],
        ids=["povm", "eps", "eps-default", "counts", "indefiniteness", "basis-map"],
    )
    def test_simulate_option_model_ignores_is_one(self, tmp_path, capsys, args):
        # the spec carries these fields itself; rec.json and map.json need not exist
        spec = tmp_path / "model.json"
        spec.write_text(json.dumps({"counts_per_setting": 400}))
        out_csv = tmp_path / "c.csv"
        rc, out, err = run(["simulate", "--model", str(spec), *args, "-o", str(out_csv)], capsys)
        assert rc == 1
        assert out == ""
        assert "Usage:" in err and args[0] in err and "Traceback" not in err
        assert not out_csv.exists()

    def test_missing_file_is_two(self, capsys):
        rc, _, err = run(["reconstruct", "--counts", "/nonexistent/file.csv"], capsys)
        assert rc == 2
        assert "no such file" in err

    def test_malformed_json_is_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(["reconstruct", "--counts", str(bad)], capsys)
        assert rc == 2

    @staticmethod
    def assert_invalid_input(rc, err):
        assert rc == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("body", ["5", "null"])
    @pytest.mark.parametrize("command", ["errors", "reconstruct"])
    def test_non_object_counts_json_is_two(self, tmp_path, capsys, command, body):
        path = tmp_path / "counts.json"
        path.write_text(body)
        rc, _, err = run([command, "--counts", str(path)], capsys)
        self.assert_invalid_input(rc, err)
        assert "JSON object" in err

    @pytest.mark.parametrize("body", ["5", "null"])
    def test_non_object_povm_json_is_two(self, tmp_path, capsys, body):
        path = tmp_path / "povm.json"
        path.write_text(body)
        rc, _, err = run(["quasidist", "--povm", str(path), "-o", str(tmp_path / "q")], capsys)
        self.assert_invalid_input(rc, err)

    def test_wrapped_povm_record_is_two(self, tmp_path, capsys):
        # a POVM is read bare or as reconstruct's corrected_povm, nothing else
        path = tmp_path / "povm.json"
        path.write_text(json.dumps({"povm": bell_povm().to_dict()}))
        rc, _, err = run(["quasidist", "--povm", str(path), "-o", str(tmp_path / "q")], capsys)
        self.assert_invalid_input(rc, err)
        assert "malformed POVM record" in err

    @pytest.mark.parametrize("name", ["counts.csv", "counts.json"])
    def test_non_utf8_counts_is_two(self, tmp_path, capsys, name):
        path = tmp_path / name
        path.write_bytes(b"probe_a,probe_b,outcome,count\n\xff\xfe,H,AA,1\n")
        rc, _, err = run(["reconstruct", "--counts", str(path)], capsys)
        self.assert_invalid_input(rc, err)
        assert "UTF-8" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_inflation_is_two(self, capsys, bell_csv, value):
        rc, _, err = run(["errors", "--counts", str(bell_csv), "--samples", "10", "--inflation", value], capsys)
        self.assert_invalid_input(rc, err)
        assert "inflation" in err

    def test_more_samples_than_draw_keys_is_two(self, capsys, bell_csv, monkeypatch):
        # sample 2^32 would draw sample 0's stream again; refused before any draw
        from povm_entangle import montecarlo

        def no_draws(*args):
            raise AssertionError("drew samples")

        monkeypatch.setattr(montecarlo, "keyed_normals", no_draws)
        rc, out, err = run(["errors", "--counts", str(bell_csv), "--samples", "4294967297"], capsys)
        self.assert_invalid_input(rc, err)
        assert "2^32" in err
        assert out == ""

    @pytest.mark.parametrize("restarts", [witness.MAX_RESTARTS + 1, 10**11], ids=["cap+1", "1e11"])
    def test_restarts_above_the_cap_is_two(self, capsys, monkeypatch, restarts):
        # refused before the starts are drawn, which would hold every restart's state at once
        def no_draws(*args):
            raise AssertionError("drew starts")

        monkeypatch.setattr(witness, "keyed_normals", no_draws)
        t0 = time.perf_counter()
        rc, out, err = run(["witness", "--family", "ghz", "-n", "3", "--numeric", "--restarts", str(restarts)], capsys)
        assert time.perf_counter() - t0 < 1.0
        self.assert_invalid_input(rc, err)
        assert err.count("\n") == 1 and f"at most {witness.MAX_RESTARTS} restarts" in err
        assert out == ""

    @pytest.mark.parametrize("noisy", [False, True], ids=["criterion8", "noisy"])
    @pytest.mark.parametrize("command", ["reconstruct", "errors"])
    def test_nan_margin_is_two(self, tmp_path, capsys, command, noisy):
        # the repair fires on criterion 8's data and not on the noisy set;
        # the margin is rejected either way
        counts = tmp_path / "counts.csv"
        sim = ["--eps", "0.1", "--counts", "1000", "--seed", "600658849"] if noisy else ["--seed", "0"]
        assert main(["simulate", *sim, "-o", str(counts)]) == 0
        extra = ["--samples", "10"] if command == "errors" else []
        rc, out, err = run([command, "--counts", str(counts), *extra, "--margin", "nan"], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "margin" in err

    def test_simulate_counts_beyond_int64_is_two(self, capsys):
        rc, out, err = run(["simulate", "--counts", str(10**20)], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "counts_per_setting" in err

    @pytest.mark.parametrize(
        "body, field",
        [
            ('{"counts_per_setting": "abc"}', "counts_per_setting"),
            ('{"eps": [1]}', "eps"),
            ('{"seed": 1.5e400}', "seed"),
            ('{"counts_per_setting": null}', "counts_per_setting"),
            ('{"counts_per_setting": 2.5}', "counts_per_setting"),
            ('{"seed": true}', "seed"),
            ('{"eps": "0.1"}', "eps"),
        ],
    )
    def test_malformed_model_spec_is_two(self, tmp_path, capsys, body, field):
        spec = tmp_path / "model.json"
        spec.write_text(body)
        rc, out, err = run(["simulate", "--model", str(spec), "-o", str(tmp_path / "c.csv")], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert field in err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "command",
        [["reconstruct"], ["errors", "--samples", "20"], ["combine", "--groups", "AA+AD,DA,DD"]],
        ids=["reconstruct", "errors", "combine"],
    )
    def test_basis_map_with_json_counts_is_two(self, tmp_path, capsys, command):
        counts = tmp_path / "counts.json"
        assert run(["simulate", "--seed", "0", "-o", str(counts)], capsys)[0] == 0
        bm = swapped_basis_map_file(tmp_path)
        argv = [command[0], "--counts", str(counts), "--basis-map", str(bm), *command[1:]]
        rc, out, err = run(argv, capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "--basis-map applies only to CSV counts" in err

    def test_basis_map_applies_to_csv_counts(self, tmp_path, capsys, bell_csv):
        rc, plain, _ = run(["reconstruct", "--counts", str(bell_csv)], capsys)
        assert rc == 0
        bm = swapped_basis_map_file(tmp_path)
        rc, mapped, _ = run(["reconstruct", "--counts", str(bell_csv), "--basis-map", str(bm)], capsys)
        assert rc == 0
        assert mapped != plain

    @pytest.mark.parametrize("assignment", [["z", "x"], ["z", 1, 2], ["z", 1.5], ["z", True]])
    def test_basis_map_assignment_must_be_a_string(self, tmp_path, capsys, bell_csv, assignment):
        record = BasisMap.default().to_dict()
        record["alice"]["H"] = assignment
        bm = tmp_path / "basis_map.json"
        bm.write_text(json.dumps(record))
        rc, out, err = run(["reconstruct", "--counts", str(bell_csv), "--basis-map", str(bm)], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "'z+'" in err

    @pytest.mark.parametrize("command", ["quasidist", "errors"])
    def test_labels_sharing_a_file_name_are_two(self, tmp_path, capsys, command):
        # "/" is written "_", so "A/B" would overwrite the files of "A_B"
        labels = ("A/B", "A_B", "C", "D")
        if command == "quasidist":
            path = tmp_path / "povm.json"
            path.write_text(json.dumps(PovmSet(labels, bell_povm().elements).to_dict()))
            argv = ["quasidist", "--povm", str(path)]
        else:
            path = tmp_path / "counts.json"
            path.write_text(json.dumps(CoincidenceCounts(labels, VALID.counts, VALID.basis_map).to_json_dict()))
            argv = ["errors", "--counts", str(path), "--samples", "10"]
        out_dir = tmp_path / "out"
        rc, out, err = run([*argv, "-o", str(out_dir)], capsys)
        self.assert_invalid_input(rc, err)
        assert "'A/B'" in err and "'A_B'" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--family", "ghz", "-n", "13", "--eps", "0.1"],
            ["--family", "ghz", "-n", "40", "--eps", "0.1"],
            ["--family", "me", "-d", "70", "--eps", "0.1"],
            ["--family", "me", "-d", "1000", "--eps", "0.1"],
            ["--family", "ghz", "-n", "14300"],
            ["--family", "ghz", "-n", "1000000"],
            ["--lambda", "-n", "14300", "-d", "2"],
        ],
        ids=["ghz13", "ghz40", "me70", "me1000", "ghz14300", "ghz1e6", "lambda14300"],
    )
    def test_witness_family_beyond_guard_is_two(self, capsys, args):
        # 2^14300 has more digits than int-to-str writes by default: the
        # message names the dimension by its factors
        start = time.monotonic()
        rc, out, err = run(["witness", *args], capsys)
        assert time.monotonic() - start < 1
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "exceeds the 4096 guard" in err
        assert len(err) < 100

    def test_povm_parties_beyond_guard_is_two(self, tmp_path, capsys):
        big = 10**2999 + 7
        path = tmp_path / "povm.json"
        path.write_text(json.dumps({"labels": ["one"], "elements": [{"parties": [big, big], "re": [[1.0]], "im": [[0.0]]}]}))
        rc, out, err = run(["quasidist", "--povm", str(path), "-o", str(tmp_path / "qd")], capsys)
        self.assert_invalid_input(rc, err)
        assert f"total dimension {big}^2 exceeds the 4096 guard" in err
        assert not (tmp_path / "qd").exists()

    @pytest.mark.parametrize(
        "family, message",
        [
            (["--family", "ghz"], "ghz probe needs qubit parties"),
            ([], "me probe needs two equal-dimension parties"),
        ],
        ids=["ghz", "me"],
    )
    def test_witness_element_probe_refusals_are_two(self, tmp_path, capsys, family, message):
        # a qubit and a qutrit fit neither probe
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(PovmSet(("one",), (HermitianOperator(np.eye(6), (2, 3)),)).to_dict()))
        rc, out, err = run(["witness", "--povm", str(path), "--element", "one", *family], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert message in err

    def test_directory_as_counts_is_two(self, tmp_path, capsys):
        rc, _, err = run(["errors", "--counts", str(tmp_path)], capsys)
        self.assert_invalid_input(rc, err)

    def test_witness_non_finite_povm_is_two(self, tmp_path, capsys):
        povm_path = nan_bell_povm_file(tmp_path)
        rc, out, err = run(
            ["witness", "--povm", str(povm_path), "--element", "0", "--numeric"], capsys
        )
        assert rc == 2
        assert out == ""
        assert "non-finite" in err

    def test_quasidist_non_finite_povm_is_two(self, tmp_path, capsys):
        povm_path = nan_bell_povm_file(tmp_path)
        qdir = tmp_path / "qout"
        rc, _, err = run(["quasidist", "--povm", str(povm_path), "-o", str(qdir)], capsys)
        assert rc == 2
        assert "non-finite" in err

    def test_overlapping_groups_is_two(self, tmp_path, capsys, bell_csv):
        rc, _, err = run(
            ["combine", "--counts", str(bell_csv), "--groups", "AA+AD,AD+DA"], capsys
        )
        assert rc == 2

    def test_quasidist_convergence_failure_is_three(self, tmp_path, capsys):
        povm_path = mixed_povm_file(tmp_path)
        qdir = tmp_path / "qout"
        rc, _, err = run(
            ["quasidist", "--povm", str(povm_path), "-o", str(qdir)],
            capsys,
        )
        assert rc == 3
        assert "bad" in err
        summary = json.loads((qdir / "summary.json").read_text())
        assert summary["failed"] == ["bad"]
        assert "error" in summary["elements"]["bad"]
        # the healthy element still went all the way through
        assert "q" in summary["elements"]["good"]
        assert (qdir / summary["elements"]["good"]["file"]).exists()
        assert not (qdir / "element_bad.json").exists()


# every option each command lists in its help, and the defaults it shows, in order
HELP = {
    None: (["--version", "--help"], []),
    "simulate": (
        ["--model", "--povm", "--eps", "--counts", "--indefiniteness", "--seed", "--basis-map", "--out", "-o", "--help"],
        ["0.0", "10000", "0.0"],
    ),
    "reconstruct": (["--counts", "--basis-map", "--margin", "--out", "-o", "--help"], ["1e-05"]),
    "quasidist": (["--povm", "--out", "-o", "--help"], []),
    "errors": (
        ["--counts", "--basis-map", "--samples", "--inflation", "--seed", "--workers", "--margin", "--out", "-o", "--help"],
        ["10000", "1.05", "0", "1", "1e-05"],
    ),
    "witness": (
        ["--family", "-n", "-d", "--eps", "--povm", "--element", "--lambda", "--numeric", "--restarts", "--seed",
         "--out", "-o", "--help"],
        ["0.0", "64", "0"],
    ),
    "combine": (["--counts", "--basis-map", "--groups", "--out", "-o", "--help"], []),
}


class TestUsage:
    @pytest.mark.parametrize(
        "argv, named, usage_line",
        [
            (["--bogus"], "--bogus", True),
            (["errors", "--counts", "c.csv", "--bogus"], "--bogus", True),
            (["errors", "--counts", "c.csv", "--samp", "3"], "--samp", True),
            (["errors"], "--counts", True),
            (["errors", "--counts", "c.csv", "--samples", "abc"], "abc", True),
            (["witness", "--family", "xyz"], "xyz", True),
            # an option left without its value need only name itself
            (["reconstruct", "--counts", "c.csv", "-o"], "-o", False),
            (["nosuch"], "nosuch", True),
            ([], "Usage:", True),
        ],
        ids=["unknown-top", "unknown", "abbreviation", "missing-counts", "not-an-int", "bad-choice",
             "trailing-o", "unknown-command", "no-arguments"],
    )
    def test_usage_error_is_one(self, capsys, argv, named, usage_line):
        # refused before any file is read: c.csv need not exist
        rc, out, err = run(argv, capsys)
        assert rc == 1
        assert out == ""
        assert named in err
        assert "Traceback" not in err
        if usage_line:
            assert "Usage:" in err

    @pytest.mark.parametrize("command", list(HELP), ids=[c or "top" for c in HELP])
    def test_help_lists_every_option_and_default(self, monkeypatch, capsys, command):
        # a wide terminal, so no line break falls inside a "[default: ...]"
        monkeypatch.setenv("COLUMNS", "200")
        rc, out, err = run([command, "--help"] if command else ["--help"], capsys)
        assert rc == 0, err
        text = " ".join(out.split())
        flags, defaults = HELP[command]
        for flag in flags:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), flag
        assert re.findall(r"\[default: ([^\]]+)\]", text) == defaults
        if command is None:
            for name in HELP:
                assert name is None or re.search(rf"\b{name}\b", text), name

    def test_version_is_zero(self, capsys):
        rc, out, _ = run(["--version"], capsys)
        assert rc == 0
        assert out == "povm-entangle, version 0.1.0\n"


class TestArguments:
    def test_option_without_its_value_shows_the_usage_line(self, capsys):
        rc, out, err = run(["reconstruct", "--counts", "c.csv", "-o"], capsys)
        assert rc == 1
        assert out == ""
        assert err.startswith("Usage: povm-entangle reconstruct [OPTIONS]\n")

    def test_unknown_option_is_named_before_a_missing_one(self, capsys):
        rc, _, err = run(["errors", "--samp", "3"], capsys)
        assert rc == 1
        assert "--samp" in err and "--counts" not in err

    @pytest.mark.parametrize("value", ["-1e-3", "-inf", "-0.5"])
    def test_value_starting_with_a_dash_is_the_value(self, capsys, value):
        # the option takes it as is, so the model's own check refuses it
        rc, out, err = run(["simulate", "--indefiniteness", value, "--counts", "10"], capsys)
        assert rc == 2, err
        assert out == ""
        assert "indefiniteness" in err

    def test_repeated_runs_in_one_process_agree(self, capsys):
        runs = [run(["witness", "--lambda", "-n", "2", "-d", "2", "--restarts", "1"], capsys) for _ in range(3)]
        assert runs[0][0] == 0, runs[0][2]
        assert runs == [runs[0]] * 3


# Each command line, read in a directory holding counts.csv, against its exit
# code, whether stdout stays empty, a part of stderr, and the file it writes.
# All as the argparse reader gave them, but for "-- -o x", which argparse's
# reader quoted as "-- -o=x".
PARSED = {
    "short-attached": (["witness", "--lambda", "-n3", "-d2", "--restarts", "1"], 0, False, "", None),
    "long-equals": (["witness", "--lambda", "-n", "2", "-d", "2", "--restarts=2"], 0, False, "", None),
    "short-equals": (["reconstruct", "--counts", "counts.csv", "-o=r.json"], 0, True, "", "r.json"),
    "short-path-attached": (["reconstruct", "--counts", "counts.csv", "-or.json"], 0, True, "", "r.json"),
    "repeated-last-wins": (["reconstruct", "--counts", "missing.csv", "--counts", "counts.csv"], 0, False, "", None),
    "repeated-last-missing": (
        ["reconstruct", "--counts", "counts.csv", "--counts", "missing.csv"], 2, True, "no such file: missing.csv", None
    ),
    "flag-with-value": (
        ["witness", "--lambda=1", "-n", "2", "-d", "2"], 1, True, "argument --lambda: ignored explicit argument '1'", None
    ),
    "help-with-value": (["errors", "--help=1"], 1, True, "argument --help: ignored explicit argument '1'", None),
    "double-dash": (["reconstruct", "--counts", "counts.csv", "--"], 1, True, "unrecognized arguments: --\n", None),
    "after-double-dash": (
        ["reconstruct", "--counts", "counts.csv", "--", "-o", "x"], 1, True, "unrecognized arguments: -- -o x\n", None
    ),
    "empty-argument": (["reconstruct", "--counts", "counts.csv", ""], 1, True, "unrecognized arguments: \n", None),
    "prefix": (["simulate", "--count", "10"], 1, True, "unrecognized arguments: --count 10\n", None),
    "unknowns-together": (
        ["errors", "--counts", "missing.csv", "--bogus", "--other"], 1, True, "unrecognized arguments: --bogus --other\n",
        None,
    ),
    "bad-choice": (
        ["witness", "--family", "GHZ", "-n", "2"], 1, True,
        "argument --family: invalid choice: 'GHZ' (choose from 'ghz', 'me')", None,
    ),
    "not-an-int": (
        ["errors", "--counts", "counts.csv", "--samples", "abc"], 1, True,
        "argument --samples: invalid int value: 'abc'", None,
    ),
    "negative-int-value": (["simulate", "--counts", "10", "--seed", "-3", "-o", "s.csv"], 0, True, "", "s.csv"),
    "negative-float-value": (
        ["reconstruct", "--counts", "counts.csv", "--margin", "-1e-3"], 2, True,
        "margin must be finite and nonnegative, got -0.001", None,
    ),
    "option-as-value": (["witness", "-n", "--lambda"], 1, True, "argument -n: invalid int value: '--lambda'", None),
    "help-after-unknown": (["errors", "--bogus", "--help"], 0, False, "", None),
    "help-after-bad-value": (
        ["errors", "--samples", "x", "--help"], 1, True, "argument --samples: invalid int value: 'x'", None
    ),
    "trailing-short": (["reconstruct", "-o"], 1, True, "argument --out/-o: expected one argument", None),
}


class TestParsing:
    @pytest.mark.parametrize("argv, code, quiet, err_part, wrote", list(PARSED.values()), ids=list(PARSED))
    def test_command_line(self, monkeypatch, tmp_path, capsys, bell_csv, argv, code, quiet, err_part, wrote):
        monkeypatch.chdir(bell_csv.parent)
        rc, out, err = run(argv, capsys)
        assert rc == code, err
        assert (out == "") == quiet
        assert err_part in err
        assert "Traceback" not in err
        if wrote is not None:
            assert (tmp_path / wrote).is_file()

    @pytest.mark.parametrize(
        "spelled, spaced",
        [
            (["-n3", "-d2", "--restarts=2"], ["-n", "3", "-d", "2", "--restarts", "2"]),
            (["-n=3", "-d=2", "--restarts", "2", "--restarts", "1"], ["-n", "3", "-d", "2", "--restarts", "1"]),
        ],
        ids=["attached", "equals-and-repeated"],
    )
    def test_spellings_read_alike(self, capsys, spelled, spaced):
        first = run(["witness", "--lambda", *spelled], capsys)
        assert first[0] == 0, first[2]
        assert first == run(["witness", "--lambda", *spaced], capsys)

    def test_help_lines_are_not_wrapped(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "40")
        rc, out, _ = run(["errors", "--help"], capsys)
        assert rc == 0
        [line] = [line for line in out.splitlines() if "--workers" in line]
        assert line.endswith("one forked process per usable CPU at most. [default: 1]")


# Output paths that cannot be written, each read in a directory holding
# counts.csv and povm.json, against the part of stderr that names it
UNWRITABLE = {
    "empty": (["reconstruct", "--counts", "counts.csv", "-o", ""], "error: --out/-o is an empty path"),
    "empty-input": (["reconstruct", "--counts="], "error: --counts is an empty path"),
    "root": (["reconstruct", "--counts", "counts.csv", "-o", "/"], "error: cannot write /: Is a directory"),
    "missing-parent": (
        ["reconstruct", "--counts", "counts.csv", "-o", "no/r.json"],
        "error: cannot write no/r.json: No such file or directory",
    ),
    "under-a-file": (
        ["reconstruct", "--counts", "counts.csv", "-o", "counts.csv/r.json"],
        "error: cannot write counts.csv/r.json: Not a directory",
    ),
    "counts-under-a-file": (
        ["simulate", "--counts", "10", "-o", "counts.csv/s.csv"], "error: cannot write counts.csv/s.csv: Not a directory"
    ),
    "witness-missing-parent": (
        ["witness", "--lambda", "-n", "2", "-d", "2", "--restarts", "1", "-o", "no/w.json"],
        "error: cannot write no/w.json: No such file or directory",
    ),
    "errors-dir-is-a-file": (
        ["errors", "--counts", "counts.csv", "--samples", "4", "-o", "counts.csv"],
        "error: cannot write counts.csv: File exists",
    ),
    "errors-dir-under-a-file": (
        ["errors", "--counts", "counts.csv", "--samples", "4", "-o", "counts.csv/e"],
        "error: cannot write counts.csv/e: Not a directory",
    ),
    "quasidist-dir-is-a-file": (
        ["quasidist", "--povm", "povm.json", "-o", "counts.csv"], "error: cannot write counts.csv: File exists"
    ),
    "quasidist-empty": (["quasidist", "--povm", "povm.json", "-o", ""], "error: --out/-o is an empty path"),
}


class TestUnwritableOutput:
    @pytest.fixture()
    def workdir(self, monkeypatch, bell_csv):
        (bell_csv.parent / "povm.json").write_text(json.dumps(bell_povm().to_dict()), encoding="utf-8")
        monkeypatch.chdir(bell_csv.parent)
        return bell_csv.parent

    @pytest.mark.parametrize("argv, message", list(UNWRITABLE.values()), ids=list(UNWRITABLE))
    def test_is_two_and_named(self, workdir, capsys, argv, message):
        before = sorted(p.name for p in workdir.iterdir())
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "")
        assert message in err and "Traceback" not in err
        assert sorted(p.name for p in workdir.iterdir()) == before

    def test_process_exit_is_two_without_traceback(self, workdir):
        argv = ["reconstruct", "--counts", "counts.csv", "-o", "counts.csv/r.json"]
        assert run_process(argv, workdir) == (2, "", "error: cannot write counts.csv/r.json: Not a directory\n")


# A valid dataset (25 counts in every cell) and its malformed variants; each
# must exit 2 with "error:" from both commands that read counts.
VALID = CoincidenceCounts(("AA", "AD", "DA", "DD"), np.full((4, 6, 6), 25), BasisMap.default())
CSV_LINES = VALID.to_csv().splitlines()  # header, then "H,H,AA,25", ...


def csv_with(first_row: str) -> list[str]:
    return [CSV_LINES[0], first_row, *CSV_LINES[2:]]


def json_with(value) -> dict:
    body = VALID.to_json_dict()
    body["counts"]["H,V"]["AD"] = value
    return body


def json_with_key(key: str, cell: dict) -> dict:
    body = VALID.to_json_dict()
    body["counts"][key] = cell
    return body


MALFORMED_CSV = {
    "empty": [],
    "bad-header": ["probe_a,probe_b,result,count", *CSV_LINES[1:]],
    "header-only": CSV_LINES[:1],
    "short-row": csv_with("H,H,AA"),
    "extra-field": csv_with("H,H,AA,25,1"),
    "duplicate-row": [*CSV_LINES, CSV_LINES[1]],
    "missing-row": [CSV_LINES[0], *CSV_LINES[2:]],
    "unknown-probe": csv_with("Q,H,AA,25"),
    "negative": csv_with("H,H,AA,-1"),
    "nan": csv_with("H,H,AA,nan"),
    "fractional": csv_with("H,H,AA,2.5"),
    "huge": csv_with(f"H,H,AA,{10**30}"),
    "empty-outcome": [line.replace(",AA,", ", ,") for line in CSV_LINES],
}
# JSON values that are not counts; the error names the probe pair
BAD_JSON_COUNTS = {
    "nan": float("nan"),
    "fractional": 2.5,
    "whole-float": 25.0,
    "bool": True,
    "string": "23",
    "null": None,
    "huge": 10**30,
}
MALFORMED_JSON = {
    "counts-list": {"counts": [25, 25]},
    "counts-string": {"counts": "H,H"},
    "cell-not-object": {"counts": {**VALID.to_json_dict()["counts"], "H,H": 25}},
    "missing-pair": {"counts": {k: v for k, v in VALID.to_json_dict()["counts"].items() if k != "H,H"}},
    "unknown-probe": {"counts": {**VALID.to_json_dict()["counts"], "Q,H": {"AA": 25}}},
    "negative": json_with(-1),
    **{name: json_with(value) for name, value in BAD_JSON_COUNTS.items()},
    # keys that differ only in case name the same pair or outcome
    "duplicate-pair": json_with_key("h,v", VALID.to_json_dict()["counts"]["H,V"]),
    "duplicate-outcome": json_with_key("H,V", {**VALID.to_json_dict()["counts"]["H,V"], "aa": 7}),
    "empty-outcome": {
        "counts": {key: {(" " if out == "AA" else out): n for out, n in cell.items()}
                   for key, cell in VALID.to_json_dict()["counts"].items()}
    },
    # only an absent or null basis map means the default one
    **{f"basis-map-{name}": {**VALID.to_json_dict(), "basis_map": value}
       for name, value in [("list", []), ("string", ""), ("zero", 0), ("object", {}), ("false", False)]},
}
# the keys each duplicate case's message names
DUPLICATE_KEYS = {"duplicate-pair": ("'H,V'", "'h,v'"), "duplicate-outcome": ("'AA'", "'aa'")}

COUNTS_COMMANDS = [["reconstruct"], ["errors", "--samples", "20"]]


def exits_two(argv, capsys) -> str:
    rc, _, err = run(argv, capsys)
    assert rc == 2, err
    assert err.startswith("error:")
    assert "Traceback" not in err
    return err


def reconstruct_of(counts: CoincidenceCounts, tmp_path, capsys) -> str:
    path = tmp_path / "plain.csv"
    path.write_text(counts.to_csv())
    rc, out, _ = run(["reconstruct", "--counts", str(path)], capsys)
    assert rc == 0
    return out


def not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


class TestMalformedCounts:
    @pytest.mark.parametrize("command", COUNTS_COMMANDS, ids=["reconstruct", "errors"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_csv(self, tmp_path, capsys, command, case):
        path = tmp_path / "counts.csv"
        path.write_text("".join(line + "\n" for line in MALFORMED_CSV[case]))
        exits_two([command[0], "--counts", str(path), *command[1:]], capsys)

    @pytest.mark.parametrize("command", COUNTS_COMMANDS, ids=["reconstruct", "errors"])
    @pytest.mark.parametrize("case", sorted(MALFORMED_JSON))
    def test_json(self, tmp_path, capsys, command, case):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(MALFORMED_JSON[case]))
        err = exits_two([command[0], "--counts", str(path), *command[1:]], capsys)
        if case in BAD_JSON_COUNTS or case == "negative":
            assert "key H,V: count" in err
        for key in DUPLICATE_KEYS.get(case, ()):
            assert key in err

    # int() takes these, but they are not ASCII decimal integers
    @pytest.mark.parametrize("count", ["2_5", "\u0662\u0665", "\uff12\uff15", "25\u00a0"])
    def test_csv_count_is_an_ascii_decimal_integer(self, tmp_path, capsys, count):
        path = tmp_path / "counts.csv"
        path.write_text("".join(line + "\n" for line in csv_with(f"H,H,AA,{count}")), encoding="utf-8")
        err = exits_two(["reconstruct", "--counts", str(path)], capsys)
        assert f"line 2: count {count!r} is not an integer" in err

    @pytest.mark.parametrize("count", ["-1", "-5"])
    def test_csv_negative_count_is_reported_on_its_line(self, tmp_path, capsys, count):
        # -1 is also the reader's marker for a row not given; it must not read as missing
        path = tmp_path / "counts.csv"
        path.write_text("".join(line + "\n" for line in csv_with(f"H,H,AA,{count}")))
        err = exits_two(["reconstruct", "--counts", str(path)], capsys)
        assert "line 2:" in err and "nonnegative" in err
        assert "missing" not in err

    @pytest.mark.parametrize("command", COUNTS_COMMANDS, ids=["reconstruct", "errors"])
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_total_beyond_int64_is_named(self, tmp_path, capsys, command, suffix):
        # 2^63 - 1 fits one cell, but the (H,H) total with 75 more does not
        path = tmp_path / ("huge" + suffix)
        if suffix == ".csv":
            path.write_text("".join(line + "\n" for line in csv_with(f"H,H,AA,{2**63 - 1}")))
        else:
            body = VALID.to_json_dict()
            body["counts"]["H,H"]["AA"] = 2**63 - 1
            path.write_text(json.dumps(body))
        err = exits_two([command[0], "--counts", str(path), *command[1:]], capsys)
        assert "('H', 'H')" in err and "2^63 - 1" in err
        assert "zero total" not in err

    @pytest.mark.parametrize("count", ["25", " 25 ", "+25", "\t25", "0025"])
    def test_csv_count_spellings(self, tmp_path, capsys, count):
        # optional sign, leading zeros and ASCII whitespace read as the same count
        path = tmp_path / "counts.csv"
        path.write_text("".join(line + "\n" for line in csv_with(f"H,H,AA,{count}")))
        rc, out, _ = run(["reconstruct", "--counts", str(path)], capsys)
        assert rc == 0
        assert json.loads(out)["raw_povm"] == json.loads(reconstruct_of(VALID, tmp_path, capsys))["raw_povm"]

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, suffix):
        text = VALID.to_csv() if suffix == ".csv" else json.dumps(VALID.to_json_dict())
        path = tmp_path / ("bom" + suffix)
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        rc, out, err = run(["reconstruct", "--counts", str(path)], capsys)
        assert rc == 0, err
        assert json.loads(out)["raw_povm"] == json.loads(reconstruct_of(VALID, tmp_path, capsys))["raw_povm"]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        row=st.integers(1, len(CSV_LINES) - 1),
        count=st.one_of(
            st.integers(max_value=-1).map(str),
            st.integers(min_value=2**63).map(str),
            st.floats().map(repr),
            # no quotes, commas or line breaks: the reader sees the text as is
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters='",\r\n')).filter(not_an_int),
        ),
    )
    def test_fuzzed_csv_count(self, tmp_path, capsys, row, count):
        lines = list(CSV_LINES)
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + count
        path = tmp_path / "counts.csv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for command in COUNTS_COMMANDS:
            exits_two([command[0], "--counts", str(path), *command[1:]], capsys)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pair=st.sampled_from(sorted(VALID.to_json_dict()["counts"])),
        outcome=st.sampled_from(VALID.outcomes),
        count=st.one_of(
            st.integers(max_value=-1),
            st.integers(min_value=2**63),
            st.floats(),
            st.booleans(),
            st.none(),
            st.text(),
            st.lists(st.integers(0, 9), max_size=2),
        ),
    )
    def test_fuzzed_json_count(self, tmp_path, capsys, pair, outcome, count):
        body = VALID.to_json_dict()
        body["counts"][pair][outcome] = count
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(body))
        for command in COUNTS_COMMANDS:
            exits_two([command[0], "--counts", str(path), *command[1:]], capsys)


@pytest.mark.parametrize("command", ["reconstruct", "quasidist"])
def test_an_integer_past_the_digit_limit_is_invalid_json(tmp_path, capsys, command):
    # json.loads refuses an integer literal of more than 4300 digits with a
    # plain ValueError, not a JSONDecodeError
    if command == "reconstruct":
        record, argv = json_with(123456789), ["reconstruct", "--counts"]
    else:
        record, argv = bell_povm().to_dict(), ["quasidist", "-o", str(tmp_path / "q"), "--povm"]
        record["elements"][0]["parties"] = [123456789, 2]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(record).replace("123456789", "9" * 5000))
    assert "is not valid JSON" in exits_two([*argv, str(path)], capsys)


# file names in the C locale with UTF-8 mode and locale coercion off: the
# file system encoding is then ASCII
C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
SRC = str(Path(povm_entangle.__file__).parents[1])


def run_process(argv, cwd, env=None):
    """The CLI in a fresh interpreter: its exit code, stdout and stderr."""
    full = {**os.environ, "PYTHONPATH": SRC, **(env or {})}
    done = subprocess.run(
        [sys.executable, "-m", "povm_entangle.cli", *argv], capture_output=True, cwd=cwd, env=full, timeout=120
    )
    return done.returncode, done.stdout.decode("utf-8", "replace"), done.stderr.decode("utf-8", "replace")


def labelled_input(tmp_path, command, label):
    """The input file of `command` with outcome labels (label, AD, DA, DD)."""
    labels = (label, "AD", "DA", "DD")
    if command == "quasidist":
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(PovmSet(labels, bell_povm().elements).to_dict()), encoding="utf-8")
        return ["quasidist", "--povm", str(path)]
    path = tmp_path / "counts.json"
    path.write_text(json.dumps(CoincidenceCounts(labels, VALID.counts, VALID.basis_map).to_json_dict()), encoding="utf-8")
    return [command, "--counts", str(path)] + (["--samples", "10"] if command == "errors" else [])


class TestFileNames:
    @pytest.mark.parametrize("command", ["quasidist", "errors"])
    @pytest.mark.parametrize(
        "label, env", [("A\x00A", None), ("\u00c4A", C_LOCALE)], ids=["nul-byte", "not-in-the-fs-encoding"]
    )
    def test_a_label_that_cannot_name_a_file_is_two(self, tmp_path, command, label, env):
        out_dir = tmp_path / "out"
        rc, out, err = run_process([*labelled_input(tmp_path, command, label), "-o", str(out_dir)], tmp_path, env)
        assert rc == 2, err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "label, env", [("A\x00A", None), ("\u00c4A", C_LOCALE)], ids=["nul-byte", "not-in-the-fs-encoding"]
    )
    def test_reconstruct_keeps_such_labels(self, tmp_path, label, env):
        out = tmp_path / "rec.json"
        rc, _, err = run_process([*labelled_input(tmp_path, "reconstruct", label), "-o", str(out)], tmp_path, env)
        assert rc == 0, err
        assert json.loads(out.read_text(encoding="utf-8"))["corrected_povm"]["labels"][0] == label

    def test_files_are_utf8_whatever_the_locale(self, tmp_path):
        povm = labelled_input(tmp_path, "quasidist", "\u00c4A")[2]
        out = tmp_path / "counts.csv"
        rc, _, err = run_process(["simulate", "--povm", povm, "--counts", "100", "-o", str(out)], tmp_path, C_LOCALE)
        assert rc == 0, err
        assert out.read_bytes().decode("utf-8").count("\u00c4A") == 36


# launches the CLI module as `python -m` does, or calls main in process, and
# reports the freeze count an exit handler sees
_FREEZE_PROBE = """
import atexit, gc, runpy, sys
atexit.register(lambda: sys.stderr.write(f"frozen {gc.get_freeze_count()}\\n"))
how = sys.argv.pop(1)
if how == "runpy":
    runpy.run_module("povm_entangle.cli", run_name="__main__", alter_sys=True)
from povm_entangle import cli
sys.exit(cli.main(sys.argv[1:]))
"""

# runs the CLI module as `python -m` does, with an exit handler that prints
# how many times cli.py's module code ran
_ENTRY_PROBE = """
import atexit, os, runpy, sys
cli_py = os.path.join("povm_entangle", "cli.py")
runs = []
sys.addaudithook(lambda event, args: event == "exec" and args[0].co_filename.endswith(cli_py) and runs.append(1))
atexit.register(lambda: print(f"exit handler: cli.py ran {len(runs)} time(s)"))
runpy.run_module("povm_entangle.cli", run_name="__main__", alter_sys=True)
"""

# the same launch with a stdout whose flush fails, as on a closed pipe
_CLOSED_STDOUT_PROBE = """
import atexit, io, runpy, sys

class Closed(io.RawIOBase):
    def writable(self):
        return True

    def write(self, b):
        raise BrokenPipeError(32, "Broken pipe")

sys.stdout = io.TextIOWrapper(io.BufferedWriter(Closed()))
atexit.register(lambda: sys.stderr.write("exit handler\\n"))
runpy.run_module("povm_entangle.cli", run_name="__main__", alter_sys=True)
"""


def run_probe(code, argv, cwd, env=None):
    full = {**(os.environ if env is None else env), "PYTHONPATH": SRC}
    return subprocess.run(
        [sys.executable, *code, *argv], capture_output=True, text=True, cwd=cwd, env=full, timeout=120
    )


class TestProcessEntry:
    @pytest.mark.parametrize("code", [0, 1, 2, 3])
    def test_exit_code_and_stderr_are_mains(self, tmp_path, capsys, code):
        argv = {
            0: ["simulate", "--counts", "100", "-o", str(tmp_path / "c.csv")],
            1: ["reconstruct", "--no-such-option"],
            2: ["reconstruct", "--counts", str(tmp_path / "missing.csv")],
            3: ["quasidist", "--povm", str(mixed_povm_file(tmp_path)), "-o", str(tmp_path / "q")],
        }[code]
        rc, _, err = run(argv, capsys)
        assert rc == code
        proc_rc, _, proc_err = run_process(argv, tmp_path)
        assert (proc_rc, proc_err) == (rc, err)
        assert "Traceback" not in proc_err

    @pytest.mark.parametrize("command", [["reconstruct"], ["errors", "--samples", "20"]], ids=["reconstruct", "errors"])
    def test_stdout_to_a_pipe_is_mains(self, tmp_path, capsys, bell_csv, command):
        argv = [*command, "--counts", str(bell_csv)]
        rc, out, err = run(argv, capsys)
        assert rc == 0, err
        assert run_process(argv, tmp_path)[:2] == (0, out)

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv",
        [["reconstruct", "--counts", "counts.csv"], ["simulate", "--counts", "100"], ["--help"], ["errors", "--help"]],
        ids=["reconstruct", "simulate-csv", "help", "errors-help"],
    )
    def test_a_reader_gone_is_a_quiet_141(self, bell_csv, argv, unbuffered):
        # stdout is a pipe whose read end is already closed: buffered, the
        # final flush fails; unbuffered, the write inside main does
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "povm_entangle.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, cwd=bell_csv.parent, env=env, timeout=120,
            )
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (141, b"")

    @pytest.mark.parametrize("how, frozen", [("runpy", True), ("main", False)])
    def test_only_the_process_entry_freezes_the_heap(self, tmp_path, how, frozen):
        full = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run(
            [sys.executable, "-c", _FREEZE_PROBE, how, "--version"],
            capture_output=True, text=True, cwd=tmp_path, env=full, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        count = int(re.fullmatch(r"frozen (\d+)\n", done.stderr)[1])
        assert (count > 0) == frozen

    def test_exit_handlers_run_and_cli_runs_once(self, tmp_path, bell_csv):
        # stdout block-buffered, so the handler's line shows only if the
        # entry flushes after the exit handlers have run
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        done = run_probe(["-c", _ENTRY_PROBE], ["reconstruct", "--counts", str(bell_csv)], tmp_path, env)
        assert done.returncode == 0, done.stderr
        body, last = done.stdout.rstrip("\n").rsplit("\n", 1)
        assert json.loads(body)["manifest"]["command"] == "reconstruct"
        # the handler module's `from ..cli import` finds the running module
        assert last == "exit handler: cli.py ran 1 time(s)"

    def test_a_failed_flush_exits_through_the_interpreter(self, tmp_path):
        # --version leaves its line in stdout's buffer; finalization reports
        # the failed flush and exits with 120, as a bare sys.exit does
        done = run_probe(["-c", _CLOSED_STDOUT_PROBE], ["--version"], tmp_path)
        assert done.returncode == 120
        assert done.stderr.count("exit handler\n") == 1
        assert "BrokenPipeError" in done.stderr

    @pytest.mark.parametrize("argv", [["--version"], ["witness"]], ids=["version", "usage-error"])
    def test_a_profiled_run_prints_its_statistics(self, tmp_path, argv):
        # cProfile runs the module in a bare namespace and prints its
        # statistics once the module's code has raised SystemExit
        done = run_probe(["-m", "cProfile", "-m", "povm_entangle.cli"], argv, tmp_path)
        assert done.returncode == 0, done.stderr
        assert "function calls" in done.stdout
        assert "Traceback" not in done.stderr
        if argv == ["witness"]:
            assert done.stderr.endswith("Error: pick a mode: --family, --povm/--element, or --lambda\n")

    def test_the_script_is_the_main_blocks_entry(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        root = Path(__file__).resolve().parents[1]
        scripts = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
        module = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        [block] = [n for n in module.body if isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'"]
        [call] = [n.value for n in block.body if isinstance(n, ast.Expr)]
        assert scripts == {"povm-entangle": f"povm_entangle.cli:{call.func.id}"}
        assert callable(getattr(cli, call.func.id))


# The malformed-input campaign: command lines built from the option table,
# each numeric option at an ordinary value or an edge, each file option at a
# valid or mutated input file.  Whatever the line, main returns an exit code
# of the documented set and raises nothing.
NUMERIC_EDGES = ("nan", "inf", "-inf", "0", "-1", str(2**63))
# ordinary values of the options whose default would make a run slow, or
# that have none
ORDINARY = {"samples": "12", "restarts": "2", "n": "2", "d": "2", "seed": "0"}
# the values of the text options that name neither a file nor an output
TEXT_VALUES = {
    "element_label": ("AA", "DD", "", "nope"),
    "groups": ("AA+AD,DA+DD", "AA,AD,DA,DD", "AA+AA", "AA+XX", "", ",", "+"),
}
# output paths relative to the run's directory; never "/" or any other
# existing directory outside it, which errors and quasidist would write into
OUTPUTS = ("out.csv", "out.json", "outdir", "", "counts.csv", "counts.csv/x", "missing/x.json")
# each input file's valid text; a run reads it as is or mutated
CAMPAIGN_INPUTS = {
    "counts.csv": VALID.to_csv(),
    "counts.json": json.dumps(VALID.to_json_dict()),
    "povm.json": json.dumps(bell_povm().to_dict()),
    "rec.json": json.dumps({"corrected_povm": bell_povm().to_dict()}),
    "model.json": json.dumps({"povm": "bell", "eps": 0.1, "counts_per_setting": 100, "seed": 1}),
    "basis.json": json.dumps(BasisMap.default().to_dict()),
}
# the inputs each file option is meant to read
PROPER_INPUTS = {
    "counts_path": ("counts.csv", "counts.json"),
    "povm_path": ("povm.json", "rec.json", "bell"),
    "model_path": ("model.json",),
    "basis_map_path": ("basis.json",),
}
# what a mutation puts in place of one of the text's numbers
LITERALS = ("nan", "NaN", "Infinity", "-Infinity", "-1", "0", "2.5", "1e309", str(2**63), "9" * 30,
            "true", "null", '"x"', "[]", "{}", "")


def option_values(o):
    """A strategy for the value of an option of `cli._COMMANDS`: half the
    time one it is meant to take, else any of the campaign's."""
    if o.choices:
        return st.sampled_from((*o.choices, "bogus"))
    if o.parse in (int, float):
        return st.one_of(st.just(ORDINARY.get(o.dest, str(o.default))), st.sampled_from(NUMERIC_EDGES))
    if o.dest.startswith("out"):
        return st.sampled_from(OUTPUTS)
    if o.dest.endswith("_path"):
        return st.one_of(st.sampled_from(PROPER_INPUTS[o.dest]), st.sampled_from((*CAMPAIGN_INPUTS, "absent.csv")))
    return st.sampled_from(TEXT_VALUES[o.dest])


@st.composite
def mutated(draw, text: str) -> str:
    """text as is, with one number replaced, a slice cut out, text put in, or cut short."""
    kind = draw(st.sampled_from(("none", "none", "number", "cut", "insert", "truncate")))
    numbers = [m.span() for m in re.finditer(r"-?\d+(\.\d+)?([eE][-+]?\d+)?", text)]
    if kind == "number" and numbers:
        i, j = draw(st.sampled_from(numbers))
        return text[:i] + draw(st.sampled_from(LITERALS)) + text[j:]
    if kind in ("cut", "insert", "truncate"):
        i = draw(st.integers(0, len(text)))
        if kind == "truncate":
            return text[:i]
        if kind == "cut":
            return text[:i] + text[draw(st.integers(i, min(len(text), i + 40))):]
        return text[:i] + draw(st.text(max_size=8)) + text[i:]
    return text


@st.composite
def command_lines(draw, workdir: Path) -> list[str]:
    """A command, its required options, each other one a third of the time,
    and their values; --samples always, and the inputs it names written into
    workdir, mutated or not."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for o in cli._COMMANDS[command]:
        if not (o.required or o.dest == "samples" or draw(st.integers(0, 2)) == 0):
            continue
        if o.parse is None:
            argv.append(o.flags[0])
            continue
        value = draw(option_values(o))
        if value in CAMPAIGN_INPUTS:
            (workdir / value).write_text(draw(mutated(CAMPAIGN_INPUTS[value])), encoding="utf-8")
        argv += [draw(st.sampled_from(o.flags)), value]
    return argv


@pytest.fixture()
def campaign_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestMalformedInputCampaign:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_main_returns_a_documented_exit_code(self, campaign_dir, capsys, data):
        argv = data.draw(command_lines(campaign_dir))
        rc, _, err = run(argv, capsys)
        assert rc in (0, 1, 2, 3), (argv, rc, err)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, model",
        [
            (["witness", "--family", "me", "-d", str(2**63)], None),
            (["simulate", "--model", "model.json"], CAMPAIGN_INPUTS["model.json"].replace("100", "1e309")),
        ],
        ids=["edge-option", "mutated-model"],
    )
    def test_process_exit_is_two_without_traceback(self, campaign_dir, capsys, argv, model):
        if model is not None:
            (campaign_dir / "model.json").write_text(model, encoding="utf-8")
        rc, out, err = run(argv, capsys)
        assert (rc, out) == (2, "") and err.startswith("error:")
        assert run_process(argv, campaign_dir) == (2, "", err)
        assert "Traceback" not in err
