"""The command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig6", "--reps", "5", "--seed", "3"])
        assert args.exp_id == "fig6"
        assert args.reps == 5
        assert args.seed == 3


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out and "fig13" in out

    def test_list_shows_compiled_sweep_sizes(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        fig6_line = next(line for line in out.splitlines() if line.startswith("fig6"))
        # 2 scenarios x 8 stripe counts x 100 default repetitions.
        assert "1600" in fig6_line
        fig3_line = next(line for line in out.splitlines() if line.startswith("fig3"))
        assert " - " in fig3_line

    def test_run_cache_flags(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "fig9", "--quiet", "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "2 miss(es)" in err
        assert main(["run", "fig9", "--quiet", "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "2 hit(s)" in err and "0 miss(es)" in err

    def test_run_no_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["run", "fig9", "--quiet", "--no-cache", "--cache-dir", str(cache)]) == 0
        err = capsys.readouterr().err
        assert "2 uncached" in err
        assert not cache.exists()

    def test_calibration(self, capsys):
        assert main(["calibration"]) == 0
        out = capsys.readouterr().out
        assert "scenario1" in out and "anchors" in out
        assert "880.0 MiB/s" in out

    def test_placements(self, capsys):
        assert main(["placements", "--stripe-count", "4", "--samples", "40"]) == 0
        out = capsys.readouterr().out
        assert "roundrobin" in out
        assert "(1,3): 100%" in out
        assert "hypergeometric" in out

    def test_run_analytic_experiment(self, capsys):
        assert main(["run", "fig3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "min(N, M)" in out

    def test_run_with_csv_output(self, tmp_path, capsys):
        assert main(["run", "fig4", "--reps", "2", "--quiet", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig4.csv").exists()
        out = capsys.readouterr().out
        assert "records written" in out

    def test_run_unknown_experiment_structured_error(self, capsys):
        assert main(["run", "fig99", "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[ExperimentError]:")
        assert "fig99" in err
        assert "\n" not in err.rstrip("\n")  # one line, no traceback

    def test_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestSystemCommands:
    def test_system_export_and_recommend(self, tmp_path, capsys):
        path = tmp_path / "sys.json"
        assert main(["system", "export", str(path), "--scenario", "scenario2"]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["recommend", "--system", str(path), "--nodes", "2", "--ppn", "4"]) == 0
        out = capsys.readouterr().out
        assert "recommendation: stripe count 8" in out
        assert "scenario2" in out

    def test_recommend_builtin_scenario(self, capsys):
        assert main(["recommend", "--scenario", "scenario1", "--nodes", "2", "--ppn", "2"]) == 0
        out = capsys.readouterr().out
        assert "rationale" in out


class TestExplainCommand:
    def test_explain_prints_attribution(self, capsys):
        assert main([
            "explain", "--scenario", "scenario2", "--nodes", "8",
            "--stripe-count", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "Bottleneck attribution" in out
        assert "by class:" in out
        assert "MiB/s" in out


class TestResilienceFlags:
    def test_parser_accepts_resilience_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "run", "faults",
                "--on-error", "skip",
                "--checkpoint", str(tmp_path / "c.json"),
                "--resume",
            ]
        )
        assert args.on_error == "skip"
        assert args.resume is True

    def test_on_error_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "faults", "--on-error", "retry"])

    def test_resume_requires_checkpoint(self, capsys):
        assert main(["run", "faults", "--resume", "--quiet"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_per_experiment_checkpoint_names(self, tmp_path):
        from repro.cli import _checkpoint_path_for

        base = tmp_path / "campaign.json"
        assert _checkpoint_path_for(None, "fig4", multiple=True) is None
        assert _checkpoint_path_for(base, "fig4", multiple=False) == base
        assert _checkpoint_path_for(base, "fig4", multiple=True).name == "campaign.fig4.json"

    def test_quarantined_runs_summarised_and_nonzero_exit(self, capsys, monkeypatch):
        from repro.experiments.common import ExperimentOutput
        from repro.experiments.registry import EXPERIMENTS, ExperimentInfo
        from repro.methodology.records import FailedRunRecord, RecordStore

        def fake_run(repetitions=1, seed=0, progress=None):
            records = RecordStore()
            records.failures.append(
                FailedRunRecord(
                    exp_id="fake",
                    scenario="s1",
                    rep=3,
                    factors={},
                    error_type="RuntimeError",
                    message="boom",
                )
            )
            return ExperimentOutput("fake", "t", records, figure="fig")

        monkeypatch.setitem(
            EXPERIMENTS, "fake", ExperimentInfo("fake", "t", "ref", fake_run, 1)
        )
        assert main(["run", "fake", "--quiet", "--on-error", "skip"]) == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "RuntimeError: boom" in err
        assert "--resume" in err


class TestVerifyCommand:
    def test_parser_accepts_verify_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "verify", "--suite", "conformance", "--level", "basic",
                "--golden", str(tmp_path / "g.json"), "--update-golden",
                "--inject", "byte-loss",
            ]
        )
        assert args.suite == "conformance"
        assert args.level == "basic"
        assert args.update_golden is True
        assert args.inject == "byte-loss"

    def test_run_accepts_verify_level(self):
        args = build_parser().parse_args(["run", "fig6", "--verify", "paranoid"])
        assert args.verify == "paranoid"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--verify", "extreme"])

    def test_verify_rejects_unknown_suite(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--suite", "vibes"])

    def test_verify_replay_suite_passes(self, capsys):
        assert main(["verify", "--suite", "replay", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "replay:fluid+noise" in out
        assert "replay:des" in out
        assert "FAIL" not in out

    def test_verify_injection_detected_exits_1(self, capsys):
        code = main(["verify", "--suite", "replay", "--quiet", "--inject", "rng-perturb"])
        assert code == 1
        captured = capsys.readouterr()
        assert "detected" in captured.out
        assert "injection detected" in captured.err


class TestTelemetryCommands:
    def _run_with_telemetry(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        assert main([
            "run", "fig4", "--reps", "2", "--quiet", "--telemetry", str(stream),
        ]) == 0
        return stream

    def test_run_writes_schema_valid_stream(self, tmp_path, capsys):
        from repro.telemetry import validate_jsonl

        stream = self._run_with_telemetry(tmp_path)
        assert validate_jsonl(stream) == []
        assert "telemetry stream appended" in capsys.readouterr().err

    def test_tail_validate_and_render(self, tmp_path, capsys):
        stream = self._run_with_telemetry(tmp_path)
        capsys.readouterr()
        assert main(["tail", str(stream), "--validate"]) == 0
        captured = capsys.readouterr()
        assert "run.end" in captured.out
        assert "schema-valid" in captured.err

    def test_tail_validate_rejects_bad_line(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        stream.write_text('{"schema": 1, "seq": 0, "event": "nope", "t": null}\n')
        assert main(["tail", str(stream), "--validate", "--quiet"]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_tail_missing_stream_structured_error(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "missing.jsonl")]) == 1
        assert "error[TelemetryError]:" in capsys.readouterr().err

    def test_stats_renders_dashboard(self, tmp_path, capsys):
        stream = self._run_with_telemetry(tmp_path)
        capsys.readouterr()
        assert main(["stats", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "campaign dashboard" in out
        assert "fig4" in out
        assert "metrics:" in out

    def test_stats_flags_seeded_bimodal_distribution(self, tmp_path, capsys):
        import json

        stream = tmp_path / "bimodal.jsonl"
        lows = [880.0, 885.0, 890.0, 882.0, 887.0]
        highs = [1740.0, 1745.0, 1750.0, 1742.0, 1747.0]
        with stream.open("w") as fh:
            for rep, bw in enumerate(lows + highs):
                fh.write(json.dumps({
                    "schema": 1, "seq": rep, "event": "run.end", "t": float(rep),
                    "exp_id": "fig6", "scenario": "scenario1",
                    "spec": "fig6[scenario1](chooser=random)", "rep": rep,
                    "block": 0, "status": "ok", "bw_mib_s": bw,
                    "makespan_s": 30.0, "retries": 0, "complete": True,
                    "error_type": None,
                }) + "\n")
        assert main(["stats", str(stream)]) == 0
        assert "BIMODAL" in capsys.readouterr().out

    def test_profile_flag_reports_spans(self, tmp_path, capsys):
        # --no-cache: a warm cache would replay without any engine spans.
        assert main(["run", "fig4", "--reps", "2", "--quiet", "--profile", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "profile (wall clock)" in err
        assert "executor.run" in err
        assert "fluid.solve" in err


class TestProtocolOptions:
    def test_overrides_apply_and_restore(self):
        from repro.experiments.common import _RUNNER_OVERRIDES, protocol_options

        assert "on_error" not in _RUNNER_OVERRIDES
        with protocol_options(on_error="skip", checkpoint="c.json"):
            assert _RUNNER_OVERRIDES["on_error"] == "skip"
            assert _RUNNER_OVERRIDES["checkpoint"] == "c.json"
            with protocol_options(on_error="fail"):
                assert _RUNNER_OVERRIDES["on_error"] == "fail"
                assert _RUNNER_OVERRIDES["checkpoint"] == "c.json"
            assert _RUNNER_OVERRIDES["on_error"] == "skip"
        assert "on_error" not in _RUNNER_OVERRIDES

    def test_overrides_survive_exceptions(self):
        from repro.experiments.common import _RUNNER_OVERRIDES, protocol_options

        with pytest.raises(RuntimeError):
            with protocol_options(on_error="skip"):
                raise RuntimeError("boom")
        assert "on_error" not in _RUNNER_OVERRIDES


class TestShortCampaigns:
    @pytest.mark.parametrize("reps", [1, 2])
    def test_fig13_renders_and_archives_too_few_runs_per_group(self, tmp_path, capsys, reps):
        out = tmp_path / "out"
        args = ["run", "fig13", "--reps", str(reps), "--seed", "0", "--no-cache"]
        assert main([*args, "--out", str(out), "--quiet"]) == 0
        assert "too few runs for a Welch t-test" in capsys.readouterr().out
        assert len((out / "fig13.csv").read_text().splitlines()) == 1 + reps


class TestRunAll:
    """``run all`` reports a failing experiment and runs the rest."""

    @staticmethod
    def _registry(monkeypatch, middle_raises):
        """Three cheap experiments a, b, c; b raises ``middle_raises``."""
        from repro.experiments import registry
        from repro.experiments.common import ExperimentOutput
        from repro.methodology.records import RecordStore

        ran = []

        def fake(exp_id, raises=None):
            def run(repetitions, seed=0, progress=None):
                ran.append(exp_id)
                if raises is not None:
                    raise raises
                return ExperimentOutput(exp_id, "t", RecordStore(), figure=f"figure {exp_id}")

            return registry.ExperimentInfo(exp_id, "t", "ref", run, 1)

        registry.list_experiments()  # import the real modules before the swap
        table = {"a": fake("a"), "b": fake("b", middle_raises), "c": fake("c")}
        monkeypatch.setattr(registry, "EXPERIMENTS", table)
        return ran

    def test_a_failing_experiment_does_not_stop_the_rest(self, monkeypatch, capsys):
        from repro.errors import AnalysisError

        ran = self._registry(monkeypatch, AnalysisError("needs >= 10 reps"))
        assert main(["run", "all", "--quiet", "--no-cache"]) == 1
        assert ran == ["a", "b", "c"]
        out, err = capsys.readouterr()
        assert "figure a" in out and "figure c" in out
        assert "error[AnalysisError]: needs >= 10 reps" in err
        assert "1 of 3 experiments failed: b" in err

    def test_one_failing_experiment_exits_as_before(self, monkeypatch, capsys):
        from repro.errors import AnalysisError

        ran = self._registry(monkeypatch, AnalysisError("needs >= 10 reps"))
        assert main(["run", "b", "--quiet", "--no-cache"]) == 1
        assert ran == ["b"]
        err = capsys.readouterr().err
        assert err.strip() == "error[AnalysisError]: needs >= 10 reps"

    def test_an_interrupt_still_stops_the_loop(self, monkeypatch, capsys, tmp_path):
        from repro.errors import CampaignInterrupted
        from repro.orchestrator.interrupts import EXIT_INTERRUPTED

        ran = self._registry(monkeypatch, CampaignInterrupted("SIGINT", tmp_path / "ck.b.json"))
        args = ["run", "all", "--quiet", "--no-cache", "--checkpoint", str(tmp_path / "ck.json")]
        assert main(args) == EXIT_INTERRUPTED
        assert ran == ["a", "b"]
        assert f"run b --checkpoint {tmp_path / 'ck.b.json'} --resume" in capsys.readouterr().err


class TestLessonsCheckpoint:
    def test_resumed_lessons_audit_matches_an_unchecked_run(self, tmp_path, capsys):
        # Each sub-campaign of the audit keeps its own checkpoint, so a
        # resume serves every one of them from its own store.
        common = ["run", "lessons", "--reps", "10", "--seed", "0", "--no-cache", "--quiet"]
        checkpoint = ["--checkpoint", str(tmp_path / "ck.json")]
        figures, csvs = [], []
        for name, extra in (
            ("plain", []),
            ("checkpointed", checkpoint),
            ("resumed", [*checkpoint, "--resume"]),
        ):
            assert main([*common, *extra, "--out", str(tmp_path / name)]) == 0, name
            out = capsys.readouterr().out
            figures.append(out[: out.index("records written to")])
            csvs.append((tmp_path / name / "lessons.csv").read_bytes())
        assert csvs[0] == csvs[1] == csvs[2]
        assert figures[0] == figures[1] == figures[2]
        assert sorted(p.name for p in tmp_path.glob("ck*.json")) == [
            f"ck.{exp_id}.json" for exp_id in ("fig11", "fig13", "fig4", "fig5", "fig6")
        ]


class TestSubmitCommand:
    """A submitted campaign is the registered one ``run`` executes."""

    @staticmethod
    def _submit_and_run(tmp_path, exp_id, reps):
        from repro.server import ServerConfig
        from repro.server.netchaos import serve_in_thread

        common = ["--reps", str(reps), "--seed", "0", "--quiet"]
        with serve_in_thread(ServerConfig(state_dir=tmp_path / "state", workers=2)) as server:
            remote = ["submit", exp_id, "--remote", f"127.0.0.1:{server.port}", "--no-fallback"]
            assert main([*remote, *common, "--out", str(tmp_path / "remote")]) == 0
        assert main(["run", exp_id, *common, "--no-cache", "--out", str(tmp_path / "local")]) == 0
        return (
            (tmp_path / "remote" / f"{exp_id}.csv").read_bytes(),
            (tmp_path / "local" / f"{exp_id}.csv").read_bytes(),
        )

    @pytest.mark.parametrize("exp_id,reps", [("fig13", 6), ("scaleout", 1)])
    def test_submit_writes_the_run_csv(self, tmp_path, exp_id, reps):
        remote, local = self._submit_and_run(tmp_path, exp_id, reps)
        assert remote == local

    def test_faults_submit_is_the_run_csv_without_the_timeline(self, tmp_path):
        remote, local = self._submit_and_run(tmp_path, "faults", 2)
        local_lines = local.splitlines(keepends=True)
        # run's store starts with the healthy and outage timeline runs.
        assert all(b'""stage"": ""timeline""' in line for line in local_lines[1:3])
        assert remote == b"".join(local_lines[:1] + local_lines[3:])


class TestCacheCommands:
    """``cache gc`` and ``cache stats`` over a disk tier filled by hand."""

    SIZE = 400  # bytes per entry file

    def _fill(self, root, count):
        """``count`` entries of SIZE bytes, oldest mtime first."""
        import json
        import os

        from repro.cache import CACHE_SCHEMA, ResultCache
        from repro.scenario import MODEL_REVISION

        paths = []
        for i in range(count):
            entry = {
                "schema": CACHE_SCHEMA,
                "fingerprint": f"{i:02x}" * 8,
                "model_revision": MODEL_REVISION,
                "engine": "fluid",
                "rep": 0,
                "result": {"pad": ""},
            }
            entry["result"]["pad"] = "x" * (self.SIZE - len(json.dumps(entry)))
            path = ResultCache(root).store_entry(entry)
            assert path.stat().st_size == self.SIZE
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
            paths.append(path)
        return paths

    def test_gc_evicts_oldest_first_down_to_the_bound(self, tmp_path, capsys):
        paths = self._fill(tmp_path, 5)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path), "--max-bytes", "1KiB"]) == 0
        assert [p.exists() for p in paths] == [False, False, False, True, True]
        out = capsys.readouterr().out
        assert "5 entr(y/ies) scanned, 3 evicted (1200 bytes freed), 800 bytes remain" in out

    def test_gc_dry_run_deletes_nothing(self, tmp_path, capsys):
        paths = self._fill(tmp_path, 5)
        args = ["cache", "gc", "--cache-dir", str(tmp_path), "--max-bytes", "1KiB", "--dry-run"]
        assert main(args) == 0
        assert all(p.exists() for p in paths)
        out = capsys.readouterr().out
        assert "(dry run)" in out
        assert "3 would be evicted (1200 bytes would be freed), 800 bytes would remain" in out

    def test_stats_reports_disk_occupancy_and_quarantine(self, tmp_path, capsys):
        paths = self._fill(tmp_path, 3)
        paths[0].rename(paths[0].with_name(paths[0].name + ".corrupt"))
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        disk = next(
            line for line in capsys.readouterr().out.splitlines() if line.startswith("disk:")
        )
        assert "entries=2, bytes=1200, corrupt=1" in disk

    def test_stats_names_the_disk_tier_and_the_remote_only_when_given(self, tmp_path, capsys):
        self._fill(tmp_path, 1)
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        tiers = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert tiers == ["disk"]
        # Nothing listens on port 9: the tier is still listed, the
        # server's own tally is reported unreachable.
        args = ["cache", "stats", "--cache-dir", str(tmp_path), "--remote", "127.0.0.1:9"]
        assert main(args) == 0
        out, err = capsys.readouterr()
        assert [line.split(":")[0] for line in out.splitlines()] == ["disk", "remote"]
        assert "unreachable" in err
