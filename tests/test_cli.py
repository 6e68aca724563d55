"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_artifact_cache(tmp_path, monkeypatch):
    """Keep the CLI's default-on artifact cache inside the test tmpdir."""
    monkeypatch.setenv("REPRO_ARTIFACT_CACHE", str(tmp_path / "artifacts"))
    return tmp_path / "artifacts"


class TestParser:
    def test_experiment_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig8"])
        assert args.experiment == "fig8"
        assert args.duration == 120
        assert args.users == 2

    def test_custom_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["fig9", "--duration", "30", "--users", "1", "--device", "galaxys20"]
        )
        assert args.duration == 30
        assert args.device == "galaxys20"

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["fig99"])

    def test_artifact_cache_flags(self):
        parser = build_parser()
        args = parser.parse_args(["fig9", "--artifact-cache", "/tmp/x"])
        assert args.artifact_cache == "/tmp/x"
        assert not args.no_artifact_cache
        args = parser.parse_args(["fig9", "--no-artifact-cache"])
        assert args.no_artifact_cache

    def test_results_store_defaults_to_sharded(self, tmp_path, capsys):
        from repro.cli import _results_store
        from repro.experiments.artifacts import ArtifactStore

        parser = build_parser()
        args = parser.parse_args(
            ["fig9", "--results-cache", str(tmp_path)]
        )
        store = _results_store(args)
        assert type(store) is ArtifactStore
        assert store.root == tmp_path

        args = parser.parse_args(["fig9", "--no-results-cache"])
        assert _results_store(args) is None

        # Session results have a single (sharded) layout.
        with pytest.raises(SystemExit):
            parser.parse_args(["fig9", "--legacy-results-cache"])
        assert "--legacy-results-cache" in capsys.readouterr().err

    def test_shared_cache_flag_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["shared-cache"])
        assert args.cache_capacities == "0,500,2000,8000"
        assert args.cache_policy == "lru"
        assert args.tenant_videos == "5,8"
        assert args.tenant_viewers == 8

    def test_shared_cache_flag_parsing(self):
        parser = build_parser()
        args = parser.parse_args([
            "shared-cache", "--cache-capacities", "0,300.5",
            "--cache-policy", "lfu", "--tenant-videos", "2,8",
            "--tenant-viewers", "4",
        ])
        assert args.cache_capacities == "0,300.5"
        assert args.cache_policy == "lfu"
        assert args.tenant_videos == "2,8"
        assert args.tenant_viewers == 4

    def test_invalid_cache_policy_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["shared-cache", "--cache-policy", "fifo"])


class TestMain:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "1429.08" in out

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        assert "Freestyle Skiing" in capsys.readouterr().out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2(a)" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--duration", "15"]) == 0
        assert "switching speed" in capsys.readouterr().out

    def test_fig9_tiny(self, capsys, isolated_artifact_cache):
        assert main(["fig9", "--duration", "12", "--users", "1"]) == 0
        out = capsys.readouterr().out
        assert "normalized by Ctile" in out
        # The default-on artifact cache populated the store...
        assert list(isolated_artifact_cache.rglob("*.pkl"))
        # ...and a warm rerun reproduces the same output.
        assert main(["fig9", "--duration", "12", "--users", "1"]) == 0
        assert capsys.readouterr().out == out

    def test_fig9_no_artifact_cache(self, capsys, isolated_artifact_cache):
        assert main(["fig9", "--duration", "12", "--users", "1",
                     "--no-artifact-cache"]) == 0
        assert "normalized by Ctile" in capsys.readouterr().out
        assert not list(isolated_artifact_cache.rglob("*.pkl"))

    def test_fig9_explicit_cache_dir(self, capsys, tmp_path):
        cache = tmp_path / "explicit"
        assert main(["fig9", "--duration", "12", "--users", "1",
                     "--artifact-cache", str(cache)]) == 0
        assert list(cache.rglob("*.pkl"))

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "oversized-cluster" in out
        assert "with bound: 2" in out

    def test_shared_cache_tiny(self, capsys):
        assert main([
            "shared-cache", "--duration", "12", "--users", "1",
            "--tenant-viewers", "3", "--cache-capacities", "0,300",
            "--tenant-videos", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "shared edge cache (lru, 1 tenant video(s))" in out
        assert "no edge cache" in out
        assert "shared=300Mb" in out

    def test_shared_cache_bad_capacities(self):
        with pytest.raises(SystemExit):
            main(["shared-cache", "--cache-capacities", "abc"])
        with pytest.raises(SystemExit):
            main(["shared-cache", "--cache-capacities", "-5"])
        with pytest.raises(SystemExit):
            main(["shared-cache", "--cache-capacities", ","])

    def test_shared_cache_bad_tenants(self):
        with pytest.raises(SystemExit):
            main(["shared-cache", "--tenant-videos", "2.5"])
        with pytest.raises(SystemExit):
            main(["shared-cache", "--tenant-viewers", "0"])


class TestLadderCli:
    def test_flag_defaults(self):
        args = build_parser().parse_args(["ladder"])
        assert args.quality_targets is None
        assert args.ladder_cache is None
        assert args.movable_levels == 1

    def test_flag_parsing(self):
        args = build_parser().parse_args([
            "ladder", "--quality-targets", "40,50,60,70,80",
            "--ladder-cache", "/tmp/ladders", "--movable-levels", "0",
        ])
        assert args.quality_targets == "40,50,60,70,80"
        assert args.ladder_cache == "/tmp/ladders"
        assert args.movable_levels == 0

    def test_bad_targets_rejected(self):
        with pytest.raises(SystemExit):
            main(["ladder", "--quality-targets", "abc"])
        with pytest.raises(SystemExit):
            main(["ladder", "--quality-targets", "50,200"])
        with pytest.raises(SystemExit):
            main(["ladder", "--movable-levels", "-1"])

    def test_ladder_tiny_run(self, capsys):
        rc = main([
            "ladder", "--duration", "12", "--users", "1",
            "--no-artifact-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "encoding ladder (q25 catalog targets, lowest 1 rung(s))" in out
        assert "v8:fixed" in out
        assert "v8:opt" in out
        assert "frontier" in out
        assert "improved=" in out


class TestResilienceCli:
    def test_flag_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["resilience"])
        assert args.fault_profile == "none,outages,collapse,lossy,stress"
        assert args.fault_seed == 7
        assert args.retry_budget == 2
        assert args.timeout_slack == 0.75

    def test_flag_parsing(self):
        parser = build_parser()
        args = parser.parse_args([
            "resilience", "--fault-profile", "lossy,stress",
            "--fault-seed", "42", "--retry-budget", "1",
            "--timeout-slack", "1.5",
        ])
        assert args.fault_profile == "lossy,stress"
        assert args.fault_seed == 42
        assert args.retry_budget == 1
        assert args.timeout_slack == 1.5

    def test_negative_workers_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--workers", "-2"])
        err = capsys.readouterr().err
        assert "worker count" in err and "auto-detect" in err

    def test_non_integer_workers_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9", "--workers", "two"])

    def test_unknown_fault_profile_lists_available(self, capsys):
        with pytest.raises(SystemExit):
            main(["resilience", "--fault-profile", "wat"])
        err = capsys.readouterr().err
        assert "unknown fault profile" in err
        assert "lossy" in err  # actionable: the valid names are listed

    def test_bad_policy_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["resilience", "--retry-budget", "-1"])
        with pytest.raises(SystemExit):
            main(["resilience", "--timeout-slack", "-0.5"])

    def test_resilience_tiny_run(self, capsys):
        rc = main([
            "resilience", "--duration", "12", "--users", "1",
            "--fault-profile", "none,lossy", "--no-artifact-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "none:ptile" in out
        assert "lossy:ptile" in out
        assert "retries=" in out


class TestRobustCommand:
    def test_bad_uncertainty_flags_rejected(self):
        with pytest.raises(SystemExit):
            main(["robust", "--uncertainty", "-1"])
        with pytest.raises(SystemExit):
            main(["robust", "--uncertainty-growth", "-0.5"])

    def test_robust_scheme_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["robust", "--robust-scheme", "wat"])
        args = build_parser().parse_args(["robust", "--robust-scheme", "pano"])
        assert args.robust_scheme == "pano"

    def test_robust_tiny_run(self, capsys):
        rc = main([
            "robust", "--duration", "12", "--users", "1",
            "--fault-profile", "none,lossy", "--no-artifact-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "none:ours" in out
        assert "none:robust" in out
        assert "lossy:robust" in out
        assert "sigma=" in out and "expcov=" in out


class TestPopulationCli:
    def test_population_tiny_run(self, capsys):
        rc = main([
            "population", "--duration", "12", "--arrival-window", "30",
            "--arrival-rate", "0.2", "--no-artifact-cache",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-- population (ours, rate 0.2/s" in out
        line = next(l for l in out.splitlines() if l.strip().startswith("ours"))
        sessions = int(line.split("sessions")[1].split()[0])
        assert sessions > 0
        assert "E/seg" in line and "QoE" in line
