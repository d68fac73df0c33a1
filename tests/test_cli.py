"""Command-line interface: exit codes, output shapes, and determinism."""

import json

import pytest

from soapsim.cli import EXIT_EXPECTATION, EXIT_OK, EXIT_USAGE, main
from soapsim.scenarios import builtin, script_to_dict


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("SOAP_SIM_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_script(tmp_path, script, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(script_to_dict(script)))
    return str(path)


class TestRun:
    """Scenario execution against scripted expectations."""

    def test_builtin_pass(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--builtin", "benign", "--seed", "0")
        assert code == EXIT_OK
        assert "scenario: benign (seed 0)" in out
        assert "[pass]" in out
        assert "[FAIL]" not in out
        assert out.rstrip().endswith("result: pass")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--builtin", "benign", "--seed", "0", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["passed"] is True
        assert data["scenario"] == "benign"
        assert all(c["ok"] for c in data["checks"])

    def test_scenario_file(self, capsys, tmp_path):
        path = write_script(tmp_path, builtin("benign"))
        code, out, _ = run_cli(capsys, "run", path)
        assert code == EXIT_OK
        assert "result: pass" in out

    def test_failed_expectation_exits_one(self, capsys, tmp_path):
        script = builtin("benign")
        script.expectations.append(
            {"check": "station-state", "station": "client1", "equals": "halted"}
        )
        code, out, _ = run_cli(capsys, "run", write_script(tmp_path, script))
        assert code == EXIT_EXPECTATION
        assert "[FAIL]" in out
        assert "result: FAIL" in out

    def test_no_expectations_passes(self, capsys, tmp_path):
        script = builtin("benign")
        script.expectations.clear()
        code, out, _ = run_cli(capsys, "run", write_script(tmp_path, script))
        assert code == EXIT_OK
        assert out.splitlines()[1:] == ["no expectations scripted", "result: pass"]

    def test_invalid_json_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error:")
        assert "not valid JSON" in err

    def test_schema_error_carries_location(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": 7, "stations": []}))
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE
        assert "script.name" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "ghost.json"))
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_no_scenario_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == EXIT_USAGE
        assert "--builtin" in err

    def test_unknown_builtin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--builtin", "ghost"])
        assert err.value.code == EXIT_USAGE

    def test_transcript_written(self, capsys, tmp_path):
        out_path = tmp_path / "transcript.json"
        code, _, _ = run_cli(
            capsys,
            "run",
            "--builtin",
            "benign",
            "--seed",
            "4",
            "--transcript",
            str(out_path),
        )
        assert code == EXIT_OK
        data = json.loads(out_path.read_text())
        assert data["scenario"] == "benign"
        assert data["seed"] == 4
        assert data["records"]


class TestSeedResolution:
    """Explicit flag beats the environment beats the default."""

    def test_env_seed_used(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SOAP_SIM_SEED", "123")
        out_path = tmp_path / "t.json"
        run_cli(capsys, "run", "--builtin", "benign", "--transcript", str(out_path))
        assert json.loads(out_path.read_text())["seed"] == 123

    def test_flag_beats_env(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SOAP_SIM_SEED", "123")
        out_path = tmp_path / "t.json"
        run_cli(
            capsys, "run", "--builtin", "benign", "--seed", "5",
            "--transcript", str(out_path),
        )
        assert json.loads(out_path.read_text())["seed"] == 5

    def test_hex_env_seed(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("SOAP_SIM_SEED", "0x10")
        out_path = tmp_path / "t.json"
        run_cli(capsys, "run", "--builtin", "benign", "--transcript", str(out_path))
        assert json.loads(out_path.read_text())["seed"] == 16

    def test_invalid_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SOAP_SIM_SEED", "xyz")
        code, _, err = run_cli(capsys, "run", "--builtin", "benign")
        assert code == EXIT_USAGE
        assert "SOAP_SIM_SEED" in err


class TestWideSeeds:
    """A seed of 2^128 or more runs like any other, at every entry point."""

    def test_run_seed_flag(self, capsys, tmp_path):
        out_path = tmp_path / "t.json"
        code, out, _ = run_cli(
            capsys, "run", "--builtin", "benign", "--seed", str(2**128),
            "--transcript", str(out_path),
        )
        assert code == EXIT_OK
        assert "result: pass" in out
        assert json.loads(out_path.read_text())["seed"] == 2**128

    def test_attack_suite_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("SOAP_SIM_SEED", "0x1000000000000000000000000000000000")
        code, out, _ = run_cli(capsys, "attack-suite")
        assert code == EXIT_OK
        assert f"attack suite (seed {2**132})" in out
        assert "overall: pass" in out

    def test_scenario_identity_seed(self, capsys, tmp_path):
        data = script_to_dict(builtin("benign"))
        data["identity_seed"] = 2**128
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == EXIT_OK
        assert "result: pass" in out


class TestFrames:
    """Worked wire-format walkthrough."""

    def test_default_group(self, capsys):
        code, out, _ = run_cli(capsys, "frames")
        assert code == EXIT_OK
        assert "advertisement element (33 octets)" in out
        assert "frame sizes: group 26" in out

    def test_strict_shows_canonical_message(self, capsys):
        code, out, _ = run_cli(capsys, "frames", "--strict")
        assert code == EXIT_OK
        assert "116 octet packet, 148 on air" in out
        assert "key-agreement message: 148 octets on the wire" in out

    def test_group_selects_widths(self, capsys):
        code, out, _ = run_cli(capsys, "frames", "--group", "19", "--strict")
        assert code == EXIT_OK
        assert "advertisement element (37 octets)" in out
        assert "164 on air" in out

    def test_multi_group_element(self, capsys):
        code, out, _ = run_cli(capsys, "frames", "--m", "2")
        assert code == EXIT_OK
        # the demo advertises two real groups and keys on the stronger one
        assert "advertisement element (38 octets)" in out
        # the size table accounts for the requested group with two id slots
        assert "advertisement element: 34 octets" in out

    @pytest.mark.parametrize("argv", [("--group", "26", "--m", "2"), ("--group", "26")])
    def test_note_names_the_signer_curve(self, capsys, argv):
        # only an AP that signs on another group than the table's gets a note
        _, out, _ = run_cli(capsys, "frames", *argv)
        note = "note: the dumped AP signs on group 19 (P-256)"
        assert (note in out.splitlines()[-1]) == ("--m" in argv)
        assert ("note:" in out) == ("--m" in argv)

    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_no_advertised_group_exits_two_before_output(self, capsys, m):
        code, out, err = run_cli(capsys, "frames", "--m", m)
        assert code == EXIT_USAGE
        assert out == ""
        assert "at least one advertised group is required" in err

    def test_unknown_group_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "frames", "--group", "0")
        assert code == EXIT_USAGE
        assert "unknown ECDH group id 0" in err

    def test_key_handshake_sections(self, capsys):
        _, out, _ = run_cli(capsys, "frames")
        for i in (1, 2, 3, 4):
            assert f"key handshake message {i}" in out
        assert "195 on air" in out


class TestBench:
    """Benchmark subcommand."""

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--group", "26")
        assert code == EXIT_OK
        assert "crypto benchmark: group 26" in out
        assert "agreement-pair-total" in out
        assert "extra frames before the key handshake: 2" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--group", "26", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["message_count_delta"] == 2
        assert len(data["rows"]) == 6

    def test_too_few_iterations_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "bench", "--iterations", "50")
        assert code == EXIT_USAGE
        assert "at least 100" in err


class TestAttackSuite:
    """Suite subcommand."""

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "attack-suite", "--seed", "7")
        assert code == EXIT_OK
        assert "attack suite (seed 7)" in out
        assert "overall: pass" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "attack-suite", "--seed", "7", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["passed"] is True
        assert len(data["rows"]) == 12


class TestDeterminism:
    """Identical invocations produce identical bytes."""

    def test_run_repeats_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "run", "--builtin", "benign", "--seed", "3")
        _, second, _ = run_cli(capsys, "run", "--builtin", "benign", "--seed", "3")
        assert first == second

    def test_attack_suite_repeats_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "attack-suite", "--seed", "3")
        _, second, _ = run_cli(capsys, "attack-suite", "--seed", "3")
        assert first == second

    def test_transcript_repeats_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "run", "--builtin", "ephemeral", "--seed", "9",
                "--transcript", str(a))
        run_cli(capsys, "run", "--builtin", "ephemeral", "--seed", "9",
                "--transcript", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestParser:
    """Top-level argument handling."""

    def test_no_subcommand_exits_two(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == EXIT_USAGE

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
        assert "soapsim" in capsys.readouterr().out
