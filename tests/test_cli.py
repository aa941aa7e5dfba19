"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("E1", "E4", "E7"):
            assert experiment_id in output


class TestRun:
    def test_run_single_experiment(self, capsys):
        assert main(["run", "E1"]) == 0
        output = capsys.readouterr().out
        assert "Fig 1" in output
        assert "[PASS]" in output

    def test_run_markdown(self, capsys):
        assert main(["run", "E1", "--markdown"]) == 0
        output = capsys.readouterr().out
        assert "### E1" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "E99"])

    def test_bad_env_workers_is_one_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "zero")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "E1", "E2"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # Once, before any experiment, and no hint at a sweep-only flag.
        assert err.count("$REPRO_SWEEP_WORKERS") == 1
        assert "--on-error" not in err

    def test_custom_seed(self, capsys):
        assert main(["run", "E1", "--seed", "5"]) == 0


class TestSweep:
    def test_sweep_single_experiment(self, capsys):
        assert main(["sweep", "E4"]) == 0
        output = capsys.readouterr().out
        assert "Virtual QPUs" in output
        assert "[PASS]" in output
        assert "[sweep] E4" in output

    def test_sweep_with_workers_and_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert (
            main(
                [
                    "sweep",
                    "E7",
                    "--workers",
                    "2",
                    "--cache-dir",
                    str(cache_dir),
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert (cache_dir / "store.sqlite3").exists()
        # Warm re-run: every point served from the cache, same output.
        assert (
            main(["sweep", "E7", "--cache-dir", str(cache_dir)]) == 0
        )
        second = capsys.readouterr().out

        def tables(text):
            return [
                line
                for line in text.splitlines()
                if not line.startswith("[sweep]")
            ]

        assert tables(first) == tables(second)

    def test_sweep_footer_names_the_env_cache_dir(
        self, capsys, tmp_path, monkeypatch
    ):
        cache_dir = tmp_path / "env-cache"
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(cache_dir))
        assert main(["sweep", "E1"]) == 0
        footer = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[sweep] E1:")
        ]
        assert footer and footer[0].endswith(f"cache={cache_dir})")
        assert (cache_dir / "store.sqlite3").exists()

    def test_sweep_runs_every_experiment_id(self, capsys):
        assert main(["sweep", "E1"]) == 0
        assert "[sweep] E1:" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["sweep", "E99"])
        assert "unknown experiment(s): ['E99']" in capsys.readouterr().err

    def test_sweep_retries_absorb_first_attempt_chaos(self, capsys):
        # Every point's first attempt raises; --retries 1 recovers all
        # of them, so the run is indistinguishable from a clean one.
        assert (
            main(
                [
                    "sweep",
                    "E7",
                    "--retries",
                    "1",
                    "--chaos",
                    '{"seed": 7, "raise_rate": 1.0}',
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "[PASS]" in output
        assert "sweep failures" not in output

    def test_sweep_collect_prints_failure_table_and_fails(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "E7",
                    "--on-error",
                    "collect",
                    "--chaos",
                    '{"plan": {"0": ["raise"]}}',
                ]
            )
            == 1
        )
        output = capsys.readouterr().out
        assert "sweep failures (1 of 6 points)" in output
        assert "ChaosError" in output
        assert "[FAIL] all sweep points completed" in output

    def test_sweep_raise_mode_reports_and_exits_nonzero(self, capsys):
        assert (
            main(
                ["sweep", "E7", "--chaos", '{"plan": {"0": ["raise"]}}']
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "error: E7:" in err
        assert "--on-error collect" in err

    def test_sweep_resume_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "E7", "--resume"])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_sweep_rejects_negative_retries(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "E7", "--retries", "-1"])
        assert excinfo.value.code == 2

    def test_sweep_rejects_zero_workers(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "E1", "--workers", "0"])
        assert excinfo.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err

    def test_sweep_rejects_malformed_chaos(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "E7", "--chaos", '{"rais_rate": 1.0}'])
        assert excinfo.value.code == 2
        assert "--chaos" in capsys.readouterr().err

    def test_sweep_resume_skips_journaled_points(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        args = ["sweep", "E7", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert (cache_dir / "store.sqlite3").exists()
        assert main(args + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "[PASS]" in output


class TestScenario:
    def test_list_shows_presets(self, capsys):
        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in (
            "baseline-32",
            "multitenant-vqpu",
            "failure-storm",
            "bursty-campaign",
            "large-1k",
        ):
            assert name in output

    def test_describe_prints_pure_json_with_table_on_stderr(
        self, capsys
    ):
        import json

        assert main(["scenario", "describe", "failure-storm"]) == 0
        captured = capsys.readouterr()
        data = json.loads(captured.out)  # stdout must stay parseable
        assert data["name"] == "failure-storm"
        assert data["faults"]["events"]
        assert "superconducting-0" in captured.err
        assert "routing=fastest_completion" in captured.err

    def test_describe_mixed_fleet_lists_every_device(self, capsys):
        assert main(["scenario", "describe", "mixed-fleet"]) == 0
        table = capsys.readouterr().err
        for device in (
            "superconducting-0",
            "superconducting-1",
            "trapped_ion-0",
            "neutral_atom-0",
        ):
            assert device in table

    def test_describe_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "describe", "no-such-preset"])


class TestFleet:
    def test_policies_lists_all_routing_policies(self, capsys):
        from repro.quantum.fleet import ROUTING_POLICIES

        assert main(["fleet", "policies"]) == 0
        output = capsys.readouterr().out
        for policy in ROUTING_POLICIES:
            assert policy in output

    def test_devices_renders_preset_fleet(self, capsys):
        assert main(["fleet", "devices", "large-1k"]) == 0
        output = capsys.readouterr().out
        assert "superconducting-3" in output
        assert "vqpus" in output

    def test_devices_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            main(["fleet", "devices", "no-such-preset"])

    def test_fleet_without_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main(["fleet"])

    def test_run_preset(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "--preset",
                    "baseline-32",
                    "--horizon",
                    "600",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert '"utilisation_classical"' in output
        assert "[scenario] baseline-32" in output

    def test_run_json_file(self, capsys, tmp_path):
        from repro.scenarios import get_scenario

        path = tmp_path / "facility.json"
        path.write_text(get_scenario("baseline-32").to_json())
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "--json",
                    str(path),
                    "--horizon",
                    "600",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert '"seed": 3' in capsys.readouterr().out

    def test_run_missing_file_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "--json", "/no/such/file.json"])

    def test_run_needs_a_source(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run"])

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-5", "0"])
    def test_run_rejects_a_horizon_that_is_not_finite_and_positive(
        self, horizon, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main([
                "scenario", "run", "--preset", "baseline-32",
                "--horizon", horizon,
            ])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "horizon must be a finite number" in captured.err
        assert "simulated" not in captured.out


class TestTrace:
    def test_info_summarises_packaged_sample(self, capsys):
        import json

        assert main(["trace", "info", "sample-32n.swf"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["jobs"] == 64
        assert data["nodes_max"] == 8
        assert data["offered_load_32_nodes"] > 0.5
        assert 1 <= data["busiest_hour_jobs"] <= 64

    def test_info_missing_file_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "info", "no-such.swf"])

    def test_replay_packaged_sample(self, capsys):
        import json

        assert (
            main(
                [
                    "trace",
                    "replay",
                    "sample-32n.swf",
                    "--horizon",
                    "1800",
                    "--limit",
                    "10",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        data = json.loads(output[: output.rindex("}") + 1])
        assert data["trace_jobs"] > 0
        assert "[trace] sample-32n.swf" in output

    def test_replay_scales_and_routes(self, capsys):
        import json

        assert (
            main(
                [
                    "trace",
                    "replay",
                    "sample-32n.swf",
                    "--time-scale",
                    "0.5",
                    "--qpu-fraction",
                    "1.0",
                    "--horizon",
                    "1800",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        data = json.loads(output[: output.rindex("}") + 1])
        assert data["utilisation_quantum"] > 0.0

    def test_replay_preserves_preset_replay_rules(self, capsys):
        """Flags left unset keep the preset trace's own settings."""
        import json

        from repro.scenarios import (
            ScenarioSpec,
            TopologySpec,
            TraceSpec,
            WorkloadSpec,
            register_scenario,
        )

        from repro.scenarios import registry

        register_scenario(
            ScenarioSpec(
                name="cli-trace-merge",
                description="preset with its own replay rules",
                topology=TopologySpec(classical_nodes=4),
                workload=WorkloadSpec(
                    horizon=3600.0,
                    trace=TraceSpec(path="sample-32n.swf", limit=5),
                ),
            ),
            replace=True,
        )
        try:
            assert (
                main(
                    [
                        "trace",
                        "replay",
                        "sample-32n.swf",
                        "--preset",
                        "cli-trace-merge",
                        "--horizon",
                        "1800",
                    ]
                )
                == 0
            )
            output = capsys.readouterr().out
            data = json.loads(output[: output.rindex("}") + 1])
            # The preset's limit=5 survives because --limit was not
            # given (the sample has 8 arrivals inside 1800 s without
            # it).
            assert data["trace_jobs"] == 5
        finally:
            registry._REGISTRY.pop("cli-trace-merge", None)

    def test_replay_needs_known_preset(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "trace",
                    "replay",
                    "sample-32n.swf",
                    "--preset",
                    "no-such-preset",
                ]
            )

    def test_trace_needs_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


#: A minimal two-stage campaign over simulation-free built-in steps —
#: fast enough for CLI round trips, real enough to journal and resume.
_TINY_CAMPAIGN = """
name = "cli-tiny"
description = "facility summary plus report"
seed = 3

[[stages]]
name = "shape"
step = "workload.summary"
[stages.params]
preset = "baseline-32"

[[stages]]
name = "report"
step = "report.render"
after = ["shape"]
"""


class TestCampaign:
    @pytest.fixture
    def tiny_spec(self, tmp_path):
        path = tmp_path / "tiny.toml"
        path.write_text(_TINY_CAMPAIGN)
        return path

    def test_list_names_packaged_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        assert "e3-workflow" in capsys.readouterr().out

    def test_describe_prints_spec_json_and_order(self, capsys, tiny_spec):
        assert main(["campaign", "describe", str(tiny_spec)]) == 0
        captured = capsys.readouterr()
        import json

        spec = json.loads(captured.out)
        assert spec["name"] == "cli-tiny"
        assert "shape -> report" in captured.err

    def test_run_renders_table_and_digest(self, capsys, tmp_path, tiny_spec):
        state = tmp_path / "state"
        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(tiny_spec),
                    "--state-dir",
                    str(state),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "campaign 'cli-tiny'" in output
        assert "shape" in output and "report" in output
        assert "ok=2" in output
        assert "digest" in output

    def test_run_json_prints_canonical_result(
        self, capsys, tmp_path, tiny_spec
    ):
        import json

        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(tiny_spec),
                    "--state-dir",
                    str(tmp_path / "state"),
                    "--json",
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        payload = json.loads(stdout[: stdout.rindex("}") + 1])
        assert payload["campaign"] == "cli-tiny"
        assert payload["stages"]["shape"]["status"] == "ok"

    def test_resume_replays_completed_stages(
        self, capsys, tmp_path, tiny_spec
    ):
        state = tmp_path / "state"
        argv = ["campaign", "run", str(tiny_spec), "--state-dir", str(state)]
        assert main(argv) == 0
        capsys.readouterr()
        argv[1] = "resume"
        assert main(argv) == 0
        output = capsys.readouterr().out
        # Both stages come back from the journal, not re-execution.
        assert output.count("yes") == 2

    def test_status_reports_progress_json(self, capsys, tmp_path, tiny_spec):
        import json

        state = tmp_path / "state"
        argv = [
            "campaign",
            "status",
            str(tiny_spec),
            "--state-dir",
            str(state),
        ]
        assert main(argv) == 0
        before = json.loads(capsys.readouterr().out)
        assert before["completed"] == 0 and before["total"] == 2
        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(tiny_spec),
                    "--state-dir",
                    str(state),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(argv) == 0
        after = json.loads(capsys.readouterr().out)
        assert after["completed"] == 2

    def test_seed_override_changes_the_digest(
        self, capsys, tmp_path, tiny_spec
    ):
        digests = []
        for seed in ("3", "4"):
            argv = [
                "campaign",
                "run",
                str(tiny_spec),
                "--state-dir",
                str(tmp_path / f"state-{seed}"),
                "--seed",
                seed,
            ]
            assert main(argv) == 0
            output = capsys.readouterr().out
            digests.append(output.rsplit("digest", 1)[1])
        assert digests[0] != digests[1]

    def test_failing_campaign_exits_nonzero(self, capsys, tmp_path):
        spec = tmp_path / "bad.toml"
        spec.write_text(
            'name = "bad"\n[[stages]]\nname = "a"\nstep = "no.such.step"\n'
        )
        assert (
            main(
                [
                    "campaign",
                    "run",
                    str(spec),
                    "--state-dir",
                    str(tmp_path / "state"),
                ]
            )
            == 1
        )
        assert "campaign failed" in capsys.readouterr().err

    def test_malformed_chaos_rejected(self, tmp_path, tiny_spec):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "run",
                    str(tiny_spec),
                    "--state-dir",
                    str(tmp_path / "state"),
                    "--chaos",
                    "{not json",
                ]
            )

    def test_workers_below_one_rejected(self, capsys, tmp_path, tiny_spec):
        state = tmp_path / "state"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "campaign",
                    "run",
                    str(tiny_spec),
                    "--state-dir",
                    str(state),
                    "--workers",
                    "-3",
                ]
            )
        assert excinfo.value.code == 2
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not state.exists()

    def test_unknown_spec_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "campaign",
                    "describe",
                    "no-such-campaign",
                ]
            )

    def test_campaign_needs_subcommand(self):
        with pytest.raises(SystemExit):
            main(["campaign"])


class TestMisc:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
