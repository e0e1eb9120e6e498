"""End-to-end command line checks: workflows, determinism, and exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import povm_entangle
from povm_entangle import BasisMap, CoincidenceCounts, HermitianOperator, PovmSet, bell_povm
from povm_entangle import cli
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
        # with --numeric the restart count can decide the verdict, so every
        # mode's manifest names it: here 2 restarts read entangled, 64 do not
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
        assert payloads["family", "2"]["verdict"] == "entangled"
        assert payloads["family", "64"]["verdict"] == "inconclusive"

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
        "family",
        [["ghz", "-n", "13"], ["ghz", "-n", "40"], ["me", "-d", "70"], ["me", "-d", "1000"]],
        ids=["ghz13", "ghz40", "me70", "me1000"],
    )
    def test_witness_family_beyond_guard_is_two(self, capsys, family):
        rc, out, err = run(["witness", "--family", *family, "--eps", "0.1"], capsys)
        self.assert_invalid_input(rc, err)
        assert out == ""
        assert "exceeds the 4096 guard" in err

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

    def test_each_parser_is_built_once(self, capsys):
        cli._parser.cache_clear()
        for _ in range(3):
            assert run(["witness", "--lambda", "-n", "2", "-d", "2", "--restarts", "1"], capsys)[0] == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)


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
