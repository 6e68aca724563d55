"""Tests for the command-line interface."""

import ast
import importlib.util
import re
import shlex
import sys
import types
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


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
        args = parser.parse_args(["fig9"])
        assert args.experiment == "fig9"
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
        assert args.cache_capacities == (0.0, 500.0, 2000.0, 8000.0)
        assert args.cache_policy == "lru"
        assert args.tenant_videos == (5, 8)
        assert args.tenant_viewers == 8

    def test_shared_cache_flag_parsing(self):
        parser = build_parser()
        args = parser.parse_args([
            "shared-cache", "--cache-capacities", "0,300.5",
            "--cache-policy", "lfu", "--tenant-videos", "2,8",
            "--tenant-viewers", "4",
        ])
        assert args.cache_capacities == (0.0, 300.5)
        assert args.cache_policy == "lfu"
        assert args.tenant_videos == (2, 8)
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


class TestAblationCli:
    """All of ``ablation``'s sessions go through one runner call: one
    session pool, and a results store that runs each session once."""

    def _out(self, capsys, *flags):
        assert main(["ablation", "--duration", "10", "--users", "1",
                     *flags]) == 0
        return capsys.readouterr().out

    def test_one_session_pool_and_identical_bytes(self, capsys,
                                                  monkeypatch):
        from repro.experiments import runner

        session_pools = []

        class CountingPool(runner.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                execute, _ = kwargs["initargs"][0]
                session_pools.append(execute)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", CountingPool)
        serial = self._out(capsys, "--workers", "1", "--no-artifact-cache")
        assert not session_pools
        pooled = self._out(capsys, "--workers", "2", "--no-artifact-cache")
        assert len(session_pools) == 1
        assert pooled == serial
        assert "-- viewport predictor --" in serial

    def test_each_distinct_session_runs_once_without_a_store(
        self, capsys, monkeypatch
    ):
        # Slots are keyed by (shard key, job digest) with or without a
        # results store: at this scale the sweeps declare 58 session
        # slots, of which 34 are distinct (video 8's default ``ours``
        # session alone fills six).
        from repro.experiments import SweepContext

        jobs = []
        run_jobs = SweepContext.run_jobs

        def counting(self, batch):
            jobs.extend(batch)
            return run_jobs(self, batch)

        monkeypatch.setattr(SweepContext, "run_jobs", counting)
        assert main(["ablation", "--duration", "30", "--users", "2",
                     "--workers", "1", "--no-artifact-cache"]) == 0
        assert "-- viewport predictor --" in capsys.readouterr().out
        assert len(jobs) == 34

    def test_warm_rerun_runs_no_session(self, capsys, monkeypatch,
                                        tmp_path):
        from repro.experiments import SweepContext

        cache = ("--artifact-cache", str(tmp_path / "cache"))
        cold = self._out(capsys, *cache)

        def boom(self, jobs):  # pragma: no cover - must not run
            raise AssertionError("a session ran on a warm results cache")

        monkeypatch.setattr(SweepContext, "run_jobs", boom)
        assert self._out(capsys, *cache) == cold


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
        assert args.quality_targets == (40.0, 50.0, 60.0, 70.0, 80.0)
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
        assert args.fault_profile == (
            "none", "outages", "collapse", "lossy", "stress"
        )
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
        assert args.fault_profile == ("lossy", "stress")
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


# Each command's flags: exactly what its handler reads.
DATASET = {"--duration", "--seed"}
ARTIFACTS = {"--artifact-cache", "--no-artifact-cache"}
SESSIONS = DATASET | ARTIFACTS | {
    "--users", "--workers", "--results-cache", "--no-results-cache",
}
FAULTS = {"--fault-profile", "--fault-seed", "--retry-budget",
          "--timeout-slack"}
TENANTS = {"--tenant-viewers", "--cache-policy"}
COMMAND_FLAGS = {
    "table1": set(), "table2": set(), "table3": set(), "fig4": set(),
    "fig6": set(), "fig8": set(),
    "fig2": {"--workers"},
    "fig5": DATASET,
    "fig7": DATASET | ARTIFACTS,
    "fig9": SESSIONS | {"--device"},
    "fig10": SESSIONS,
    "fig11": SESSIONS | {"--device"},
    "all": SESSIONS | {"--device"},
    "report": SESSIONS | {"--device", "--output"},
    "ablation": DATASET | ARTIFACTS | TENANTS | {"--users", "--workers"},
    "shared-cache": SESSIONS | TENANTS | {"--cache-capacities",
                                          "--tenant-videos"},
    "resilience": SESSIONS | FAULTS,
    "robust": SESSIONS | FAULTS | {"--device", "--uncertainty",
                                   "--uncertainty-growth",
                                   "--robust-scheme"},
    "population": DATASET | ARTIFACTS | {
        "--device", "--arrival-rate", "--diurnal-amplitude",
        "--arrival-window", "--population-scheme",
    },
    "serve": DATASET | ARTIFACTS | {
        "--device", "--workers", "--videos", "--max-batch",
        "--batch-wait-us", "--port",
    },
    "ladder": SESSIONS | {"--device", "--quality-targets", "--ladder-cache",
                          "--movable-levels"},
}


def _subparsers():
    parser = build_parser()
    (action,) = [a for a in parser._actions
                 if a.dest == "experiment" and a.choices]
    return action.choices


class TestCommandShape:
    def test_each_command_takes_only_the_flags_it_reads(self):
        accepted = {
            name: {o for a in sub._actions for o in a.option_strings
                   if o.startswith("--") and o != "--help"}
            for name, sub in _subparsers().items()
        }
        assert accepted == COMMAND_FLAGS
        assert sum(map(len, accepted.values())) == 131

    def test_flag_of_another_command_rejected(self, capsys):
        for argv in (["table1", "--duration", "30"],
                     ["fig8", "--users", "1"],
                     ["serve", "--users", "1"],
                     ["fig10", "--device", "pixel3"]):
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args(argv)
            assert exit_.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig9", "--users", "0"],
        ["fig9", "--users", "-1"],
        ["fig5", "--duration", "0"],
        ["fig9", "--device", "bogus"],
        ["shared-cache", "--tenant-videos", "99"],
        ["serve", "--videos", "99"],
        ["serve", "--port", "70000"],
        ["serve", "--max-batch", "0"],
        ["serve", "--batch-wait-us", "-1"],
        ["population", "--arrival-rate", "0"],
        ["population", "--diurnal-amplitude", "1"],
        ["population", "--arrival-window", "-5"],
        ["robust", "--uncertainty", "nan"],
    ])
    def test_bad_value_is_a_usage_error(self, argv, capsys):
        # These used to reach a traceback, or the wrong experiment
        # (--users -1 ran 7 of the 8 test users).
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}" in err
        assert "Traceback" not in err


# The documents whose command lines must parse; the last is the
# repository's build-and-verify recipe.
DOCS = ("README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")


def _code_snippets(text: str):
    """Fenced code lines (comments dropped) and inline code spans."""
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            yield line.split("#", 1)[0]
        else:
            yield from re.findall(r"`([^`]+)`", line)


def _documented_invocations():
    """Every concrete ``repro-360``/``python -m repro.cli`` command line
    in the docs, as ``(source, argv)``; placeholders are skipped."""
    for doc in DOCS:
        for snippet in _code_snippets((ROOT / doc).read_text()):
            match = re.match(
                r"\s*(?:\w+=\S+\s+)*(?:repro-360|python -m repro\.cli)\s+(.*)$",
                snippet,
            )
            if match is None:
                continue
            argv = shlex.split(re.split(r"[|>&;\\]", match.group(1))[0])
            if argv and not any(a[0] in "<[" for a in argv):
                yield doc, argv


def _e2e_serve_argvs():
    """The ``serve`` arguments the end-to-end benchmark sends, read from
    its ``Server`` class for every benchmark scale."""
    path = ROOT / "benchmarks" / "e2e" / "run.py"
    spec = importlib.util.spec_from_file_location("_e2e_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    (args_node,) = [
        node.value for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["args"]
        and isinstance(node.value, ast.List)
        and isinstance(node.value.elts[0], ast.Constant)
        and node.value.elts[0].value == "serve"
    ]
    code = compile(ast.Expression(args_node), str(path), "eval")
    for scale in module.SCALES.values():
        run = types.SimpleNamespace(scale=scale)
        yield eval(code, {**vars(module), "run": run})


class TestDocumentedInvocations:
    def test_docs_name_commands(self):
        found = list(_documented_invocations())
        assert len(found) >= 20
        assert {doc for doc, _ in found} == set(DOCS)

    @pytest.mark.parametrize(
        "doc,argv", list(_documented_invocations()),
        ids=lambda value: (" ".join(value) if isinstance(value, list)
                           else Path(value).name),
    )
    def test_documented_invocation_parses(self, doc, argv, capsys):
        try:
            build_parser().parse_args(argv)
        except SystemExit as exit_:  # --help exits 0; a usage error, 2
            assert exit_.code == 0, capsys.readouterr().err

    def test_e2e_benchmark_serve_arguments_parse(self):
        argvs = list(_e2e_serve_argvs())
        assert argvs
        for argv in argvs:
            args = build_parser().parse_args(argv)
            assert args.experiment == "serve" and args.port == 0
