"""End-to-end tests for the ``repro`` CLI.

Covers the acceptance path of the CLI PR: ``repro sweep`` on the
scenario-matrix spec with a 2-worker pool, interrupted (emulated by
truncating the run store) and re-invoked, resumes from the store without
re-simulating completed tasks, and ``repro report`` renders identical
Markdown/CSV tables from the store alone.
"""

import errno
import json
import os
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.analysis.artifacts import load_document, load_spec, strict_config_from_dict
from repro.sim import resolve_backend

ROOT = Path(__file__).resolve().parents[2]
SPECS_DIR = ROOT / "specs"

try:
    import yaml  # noqa: F401 - availability probe for the checked-in specs
    HAVE_YAML = True
except ImportError:  # pragma: no cover
    HAVE_YAML = False

needs_yaml = pytest.mark.skipif(not HAVE_YAML, reason="PyYAML not installed")


def tiny_spec_path(tmp_path, tries=1, extra_metrics=()) -> Path:
    """Write a minimal JSON sweep spec and return its path."""
    spec = {
        "name": "tiny",
        "schemes": ["Baseline", "Route-only"],
        "tries": tries,
        "reference": "Baseline",
        "base": {"num_coflows": 2, "coflow_width": 2, "topology": "fat_tree(k=4)"},
        "sweep": {"parameter": "coflow_width", "values": [2, 3], "label": "{value}f"},
    }
    if extra_metrics:
        spec["extra_metrics"] = list(extra_metrics)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(spec))
    return path


def run_metadata(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name / "run.json").read_text())


def assert_every_table_lists_every_scheme(text_report: str) -> None:
    """Each table of a text report of :func:`tiny_spec_path` with the
    ``makespan`` extra metric has a column per spec scheme."""
    blocks = [block for block in text_report.split("\n\n") if block.strip()]
    assert [block.splitlines()[0].split(" — ")[1] for block in blocks] == [
        "avg weighted completion time",
        "ratio w.r.t. Baseline",
        "avg makespan",
    ]
    for block in blocks:
        assert block.splitlines()[1].split() == ["point", "Baseline", "Route-only"]


class TestTopLevel:
    def test_version_prints_provenance(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert "HiGHS" in out
        assert "deviations" in out

    def test_version_names_the_compiled_cores(self, capsys):
        from repro.core.network import PATH_CORE
        from repro.sim.kernel_jit import CORE

        assert main(["--version"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for label, core in (("simulator kernel", CORE), ("path core (Yen's)", PATH_CORE)):
            (line,) = [line for line in lines if line.startswith(f"{label}: ")]
            if core.load() is None:
                assert line.startswith(f"{label}: unavailable (could not build")
            else:
                assert line == f"{label}: compiled, loaded from {core.path}"
                assert core.path.name.startswith(core.name + "_")

    @pytest.mark.parametrize(
        "command",
        [
            pytest.param(["sweep", str(SPECS_DIR / "fig3.yaml"), "--smoke", "--out"],
                         marks=needs_yaml, id="sweep"),
            pytest.param(["run", "--scheme", "Baseline", "--output"], id="run"),
        ],
    )
    def test_a_bad_tier_name_stops_every_command_before_any_work(
        self, command, tmp_path, monkeypatch
    ):
        """A bad ``REPRO_SIM_BACKEND`` exits 1 with one line naming the
        variable, its value and the accepted names; nothing runs, nothing
        is written, and the check loads no C core."""
        from repro.sim import kernel_jit

        monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
        monkeypatch.setattr(
            kernel_jit, "available", lambda: pytest.fail("the C core was probed")
        )
        with pytest.raises(SystemExit) as exit_info:
            main([*command, str(tmp_path / "out")])
        assert exit_info.value.code == (
            "repro: REPRO_SIM_BACKEND='turbo' names no simulator backend "
            "(expected one of: array, jit, auto)"
        )
        assert list(tmp_path.iterdir()) == []

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "sweep" in capsys.readouterr().out

    def test_parser_knows_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("run", "sweep", "report", "bench"):
            assert command in text

    @pytest.mark.parametrize(
        "command,flag,bad,smallest",
        [
            ("sweep", "--workers", "-2", "0"),
            ("sweep", "--tries", "0", "1"),
            ("sweep", "--max-retries", "-1", "0"),
            ("sweep", "--task-timeout", "-5", "0.5"),
            ("sweep", "--task-timeout", "nan", "0.5"),
            ("sweep", "--lp-time-limit", "-1", "0.5"),
            ("sweep", "--lp-time-limit", "0", "0.5"),
            ("sweep", "--steal-after", "-1", "0"),
            ("report", "--tries", "0", "1"),
            ("bench", "--workers", "-3", "0"),
            ("bench", "--tries", "0", "1"),
        ],
    )
    def test_count_and_limit_flags_reject_out_of_range_values(
        self, command, flag, bad, smallest, tmp_path, capsys
    ):
        """A bad count or limit is a usage error naming the flag (exit 2)
        before anything runs; the smallest valid value parses."""
        target = "fig3" if command == "bench" else str(tiny_spec_path(tmp_path))
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as exit_info:
            main([command, target, "--out", str(out), flag, bad])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be" in capsys.readouterr().err
        assert not out.exists()
        args = build_parser().parse_args([command, target, flag, smallest])
        assert getattr(args, flag[2:].replace("-", "_")) == float(smallest)


class TestRun:
    def test_json_document_on_stdout(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--scheme",
                    "Baseline",
                    "--num-coflows",
                    "2",
                    "--coflow-width",
                    "2",
                    "--seed",
                    "1",
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["scheme"]["name"] == "Baseline"
        assert document["config"]["seed"] == 1
        assert document["topology"]["spec"] == "fat_tree(k=4)"
        assert document["metrics"]["weighted_completion_time"] > 0
        assert document["provenance"]["version"]

    @staticmethod
    def _tier_document(capsys, scheme):
        args = ["run", "--scheme", scheme, "--num-coflows", "2",
                "--coflow-width", "2", "--seed", "1"]
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)

    def test_records_the_tier_that_ran_and_never_changes_results(
        self, capsys, monkeypatch
    ):
        """``REPRO_SIM_BACKEND`` picks the kernel tier, and the document
        records the tier that ran, but the tier never changes the results."""
        from repro.sim import kernel_jit

        documents = {}
        for backend in ("array", ""):
            monkeypatch.setenv("REPRO_SIM_BACKEND", backend)
            documents[backend] = self._tier_document(capsys, "SEBF")
        assert documents["array"]["simulator"]["backend"] == "array"
        expected = "jit" if kernel_jit.available() else "array"
        assert documents[""]["simulator"]["backend"] == expected
        # Bit-identity contract: the tier is a speed knob, not a parameter.
        assert documents["array"]["metrics"] == documents[""]["metrics"]

    def test_a_non_greedy_scheme_records_the_python_tier(self, capsys, monkeypatch):
        """Every allocator but the greedy one runs on the Python tier."""
        monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
        document = self._tier_document(capsys, "SEBF-MaxMin")
        assert document["simulator"]["backend"] == "array"

    def test_jit_without_the_c_core_records_the_python_tier(
        self, capsys, monkeypatch
    ):
        from repro.sim import kernel_jit, simulator

        monkeypatch.setenv("REPRO_SIM_BACKEND", "jit")
        monkeypatch.setattr(kernel_jit, "available", lambda: False)
        monkeypatch.setattr(simulator, "_fallback_warned", True)
        document = self._tier_document(capsys, "SEBF")
        assert document["simulator"]["backend"] == "array"

    def test_online_scheme_runs_its_replanning_loop(self, capsys):
        # Regression: `repro run` must dispatch through Scheme.simulate(),
        # not plan()+run() — otherwise Online-* schemes silently simulate
        # their static inner plan under the online label.
        args = [
            "run",
            "--scheme", "Online-SEBF",
            "--topology", "leaf_spine(num_leaves=2, num_spines=2, hosts_per_leaf=4)",
            "--num-coflows", "3",
            "--coflow-width", "3",
            "--coflow-arrival-rate", "0.5",
            "--seed", "3",
        ]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scheme"]["name"] == "Online-SEBF"
        assert document["config"]["coflow_arrival_rate"] == 0.5

        from repro.analysis.artifacts import build_schemes, strict_config_from_dict
        from repro.workloads import CoflowGenerator

        config = strict_config_from_dict(document["config"])
        network = config.build_network()
        instance = CoflowGenerator(network, config).instance()
        expected = build_schemes(["Online-SEBF"])[0].simulate(instance, network)
        assert document["metrics"] == pytest.approx(expected.metrics())

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        assert (
            main(
                [
                    "run",
                    "--scheme",
                    "Baseline",
                    "--num-coflows",
                    "2",
                    "--coflow-width",
                    "2",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert json.loads(target.read_text())["scheme"]["name"] == "Baseline"

    def test_composed_pipeline_spec_as_scheme(self, capsys):
        args = [
            "run",
            "--scheme", "pipeline(router=balanced, order=sebf, alloc=max-min)",
            "--num-coflows", "2",
            "--coflow-width", "2",
            "--seed", "2",
        ]
        assert main(args) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["scheme"]["name"] == (
            "pipeline(router=balanced, order=sebf, alloc=max-min)"
        )
        assert "alloc=max-min" in document["scheme"]["signature"]
        assert document["metrics"]["weighted_completion_time"] > 0

    def test_unknown_scheme_name_exits_cleanly_listing_choices(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "nope", "--num-coflows", "2"])
        message = str(excinfo.value)
        assert message.startswith("repro run:")
        assert "unknown scheme 'nope'" in message
        assert "Baseline" in message and "pipeline(router=" in message

    def test_malformed_pipeline_spec_names_the_bad_stage(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "pipeline(router=xlp, order=sebf)"])
        message = str(excinfo.value)
        assert "unknown router 'xlp'" in message
        assert "valid routers: balanced, given, lp, random" in message

    def test_plan_time_contract_violation_exits_cleanly(self):
        # The 'given' router cannot route a freshly generated (pathless)
        # instance; that must be a clean CLI error, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "LP-Based (given paths)", "--num-coflows", "2"])
        message = str(excinfo.value)
        assert message.startswith("repro run:")
        assert "router 'given'" in message

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"num_coflows": 2, "coflow_width": 2, "seed": 9})
        )
        assert (
            main(["run", "--scheme", "Baseline", "--config", str(config), "--seed", "3"])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["config"]["seed"] == 3  # flag wins
        assert document["config"]["num_coflows"] == 2  # file survives

    @pytest.mark.parametrize("problem", ["missing file", "malformed", "no PyYAML"])
    def test_unusable_config_exits_with_a_named_reason(
        self, problem, tmp_path, monkeypatch
    ):
        """One line naming the file and the reason, exit status 1, no
        traceback."""
        config = tmp_path / "config.yaml"
        if problem == "missing file":
            expected = f"cannot read config {config}: No such file or directory"
        elif problem == "malformed":
            if not HAVE_YAML:
                pytest.skip("PyYAML not installed")
            config.write_text("num_coflows: [unclosed\n")
            expected = (
                f"invalid config {config}: "
                "malformed YAML: while parsing a flow sequence"
            )
        else:
            config.write_text("num_coflows: 2\n")
            monkeypatch.setattr("repro.analysis.artifacts._yaml", None)
            expected = f"cannot read config {config}: PyYAML is not installed"
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scheme", "Baseline", "--config", str(config)])
        message = excinfo.value.code
        assert message.startswith(f"repro run: {expected}")
        assert "\n" not in message

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "topology, reason",
        [
            ("bogus", "unknown topology 'bogus' (known: fat_tree, "),
            (
                "fat_tree(q=4)",
                "topology 'fat_tree' got unknown argument(s) ['q'] "
                "(parameters: k, link_capacity, oversubscription)",
            ),
        ],
    )
    def test_bad_topology_exits_with_a_named_reason(
        self, topology, reason, source, tmp_path
    ):
        """One line naming the topology and the reason, exit status 1, no
        traceback, whether the spec comes from ``--topology`` or a config
        file."""
        if source == "flag":
            argv = ["run", "--topology", topology]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"topology": topology}))
            argv = ["run", "--config", str(config)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--scheme", "SEBF"])
        message = excinfo.value.code
        assert message.startswith(f"repro run: topology {topology!r}: {reason}")
        assert "\n" not in message


class TestSweepAndReport:
    def test_sweep_writes_artifacts_and_resumes(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        capsys.readouterr()
        metadata = run_metadata(out, "tiny")
        assert metadata["engine"]["executed"] == 4  # 2 points x 1 try x 2 schemes
        for name in ("runstore.jsonl", "report.txt", "report.md", "report.csv"):
            assert (out / "tiny" / name).exists(), name

        # Second invocation: resume-by-default, nothing re-simulated.
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        assert "resuming" in capsys.readouterr().out
        assert run_metadata(out, "tiny")["engine"]["executed"] == 0

    def test_interrupted_sweep_resumes_only_the_missing_tasks(
        self, tmp_path, capsys
    ):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        store_path = out / "tiny" / "runstore.jsonl"
        lines = store_path.read_text().splitlines()
        # Emulate an interruption: keep only half the completed tasks.
        store_path.write_text("\n".join(lines[:2]) + "\n")
        capsys.readouterr()
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        metadata = run_metadata(out, "tiny")
        assert metadata["engine"]["cached"] == 2
        assert metadata["engine"]["executed"] == 2

    def test_fresh_forces_a_cold_run(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        main(["sweep", str(spec), "--out", str(out), "--fresh"])
        capsys.readouterr()
        assert run_metadata(out, "tiny")["engine"]["executed"] == 4

    def test_report_renders_identical_tables_from_the_store_alone(
        self, tmp_path, capsys
    ):
        """Every format prints byte for byte as the sweep wrote its file:
        the CSV, which ends in a newline already, gets no second one."""
        spec = tiny_spec_path(tmp_path, extra_metrics=["makespan"])
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        capsys.readouterr()

        for fmt, filename in (
            ("text", "report.txt"),
            ("markdown", "report.md"),
            ("csv", "report.csv"),
        ):
            assert (
                main(["report", str(spec), "--out", str(out), "--format", fmt]) == 0
            )
            stdout = capsys.readouterr().out
            assert stdout == (out / "tiny" / filename).read_text(), fmt

    def test_report_without_store_fails_cleanly(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        assert main(["report", str(spec), "--out", str(tmp_path / "nowhere")]) == 1
        assert "no run store" in capsys.readouterr().err

    def test_report_on_empty_store_fails_cleanly(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        store = out / "tiny" / "runstore.jsonl"
        store.parent.mkdir(parents=True)
        store.write_text("")  # sweep killed before its first task persisted
        assert main(["report", str(spec), "--out", str(out)]) == 1
        assert "is empty" in capsys.readouterr().err

    def test_report_warns_on_partial_store(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        store_path = out / "tiny" / "runstore.jsonl"
        store_path.write_text(store_path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        assert main(["report", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "store covers 1/4 tasks" in captured.err
        assert "nan" in captured.out

    @pytest.mark.parametrize("command", ["report", "sweep"])
    @pytest.mark.parametrize("malformed", ["key not a string", "record not an object"])
    def test_malformed_lines_that_parse_are_skipped_with_a_warning(
        self, command, malformed, tmp_path, capsys
    ):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        store_path = out / "tiny" / "runstore.jsonl"
        key = json.loads(store_path.read_text().splitlines()[0])["key"]
        line = {
            "key not a string": {"key": ["a"], "record": {}},
            "record not an object": {"key": key, "record": [1, 2]},
        }[malformed]
        with store_path.open("a") as handle:
            handle.write(json.dumps(line) + "\n")
        report = (out / "tiny" / "report.txt").read_text()
        capsys.readouterr()
        assert main([command, str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "skipped 1 torn/corrupt line(s)" in captured.err
        if command == "report":
            assert captured.out == report
        else:  # the resumed sweep re-runs nothing and renders the same
            assert (out / "tiny" / "report.txt").read_text() == report
            assert run_metadata(out, "tiny")["engine"]["executed"] == 0

    def test_sweep_and_report_name_an_error_less_failure_alike(
        self, tmp_path, capsys
    ):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        store_path = out / "tiny" / "runstore.jsonl"
        key = json.loads(store_path.read_text().splitlines()[0])["key"]
        store_path.write_text(json.dumps({"key": key, "record": {"failed": True}}) + "\n")
        assert main(["sweep", str(spec), "--out", str(out)]) == 3
        report = (out / "tiny" / "report.txt").read_text()
        assert "UnknownError" in report
        capsys.readouterr()
        assert main(["report", str(spec), "--out", str(out)]) == 0
        assert capsys.readouterr().out == report

    def test_report_export_rewrites_artifacts(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(["sweep", str(spec), "--out", str(out)])
        markdown = (out / "tiny" / "report.md").read_text()
        engine_stats = run_metadata(out, "tiny")["engine"]
        (out / "tiny" / "report.md").unlink()
        capsys.readouterr()
        assert main(["report", str(spec), "--out", str(out), "--export"]) == 0
        assert (out / "tiny" / "report.md").read_text() == markdown
        # The rewritten run.json keeps the sweep's execution accounting.
        assert run_metadata(out, "tiny")["engine"] == engine_stats


class TestUnwritableOutputs:
    """An output path the CLI cannot write ends the command with status 1
    and one line, ``repro <command>: cannot write <path>: <reason>``, not a
    traceback.  ``blocker`` is a regular file standing where a directory
    would have to be."""

    @pytest.fixture
    def blocker(self, tmp_path):
        path = tmp_path / "file"
        path.write_text("")
        return path

    @pytest.fixture
    def store(self, tmp_path, capsys):
        """A tiny sweep's run store (and its spec) to report and merge."""
        spec = tiny_spec_path(tmp_path)
        assert main(["sweep", str(spec), "--out", str(tmp_path / "artifacts")]) == 0
        capsys.readouterr()
        return spec, tmp_path / "artifacts" / "tiny" / "runstore.jsonl"

    @staticmethod
    def exit_line(argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        return excinfo.value.code

    RUN = ["run", "--scheme", "SEBF", "--num-coflows", "2", "--output"]

    def test_run_output_under_a_file(self, blocker):
        out = blocker / "x.json"
        assert self.exit_line([*self.RUN, str(out)]) == (
            f"repro run: cannot write {out}: {os.strerror(errno.EEXIST)} ({blocker})"
        )

    def test_run_output_that_is_a_directory(self, tmp_path):
        assert self.exit_line([*self.RUN, str(tmp_path)]) == (
            f"repro run: cannot write {tmp_path}: {os.strerror(errno.EISDIR)}"
        )

    @pytest.mark.parametrize(
        "flags", [[], ["--shards", "2"], ["--shards", "2", "--shard-id", "0"]],
        ids=["serial", "fleet", "shard"],
    )
    def test_sweep_out_under_a_file(self, tmp_path, blocker, flags):
        spec = tiny_spec_path(tmp_path)
        line = self.exit_line(["sweep", str(spec), "--out", str(blocker), *flags])
        if flags:
            written = blocker / "tiny" / "shards"
            assert line == f"repro sweep: cannot write {written}: {os.strerror(errno.ENOTDIR)}"
        else:
            written = blocker / "tiny" / "runstore.jsonl"
            assert line == (
                f"repro sweep: cannot write {written}: "
                f"{os.strerror(errno.ENOTDIR)} ({blocker / 'tiny'})"
            )

    def test_report_export_under_a_file(self, store, blocker, capsys):
        spec, runstore = store
        argv = ["report", str(spec), "--store", str(runstore), "--export", "--out", str(blocker)]
        assert self.exit_line(argv) == (
            f"repro report: cannot write {blocker}: "
            f"{os.strerror(errno.ENOTDIR)} ({blocker / 'tiny'})"
        )
        # The directory is made before rendering: no report on stdout.
        assert capsys.readouterr().out == ""

    def test_merge_output_under_a_file(self, store, blocker):
        _, runstore = store
        out = blocker / "m.jsonl"
        assert self.exit_line(["merge", str(runstore), "--output", str(out)]) == (
            f"repro merge: cannot write {out}: {os.strerror(errno.EEXIST)} ({blocker})"
        )

    def test_merge_output_that_is_a_directory_leaves_no_temp_file(self, store, tmp_path):
        _, runstore = store
        out = tmp_path / "merged"
        out.mkdir()
        assert self.exit_line(["merge", str(runstore), "--output", str(out)]) == (
            f"repro merge: cannot write {out}: {os.strerror(errno.EISDIR)}"
        )
        assert not (tmp_path / "merged.tmp").exists()


#: The bench instances under ``specs/``; every other file there is a sweep spec.
INSTANCE_FILES = ("simulator-100k.yaml", "streaming.yaml", "streaming-100k.yaml")


class TestSpecFiles:
    """``specs/`` is the one definition of every bench suite's experiment."""

    @needs_yaml
    @pytest.mark.parametrize(
        "path",
        sorted(path for path in SPECS_DIR.rglob("*") if path.is_file()),
        ids=lambda path: str(path.relative_to(SPECS_DIR)),
    )
    def test_every_checked_in_spec_parses(self, path):
        if str(path.relative_to(SPECS_DIR)) in INSTANCE_FILES:
            strict_config_from_dict(load_document(path), str(path))
        else:
            load_spec(path)

    @pytest.mark.parametrize("command", ["sweep", "report", "bench"])
    @pytest.mark.parametrize("problem", ["missing file", "no PyYAML"])
    def test_unreadable_spec_exits_with_a_named_reason(
        self, command, problem, tmp_path, monkeypatch
    ):
        """One line naming the file and the reason, exit status 1, no
        traceback; ``bench fig3`` reads the file the others are given."""
        if problem == "missing file":
            specs_dir, reason = tmp_path, "No such file or directory"
        else:
            specs_dir, reason = SPECS_DIR, "PyYAML is not installed"
            monkeypatch.setattr("repro.analysis.artifacts._yaml", None)
        spec = specs_dir / "fig3.yaml"
        if command == "bench":
            monkeypatch.setattr("repro.cli.bench.SPECS_DIR", specs_dir)
        target = "fig3" if command == "bench" else str(spec)
        with pytest.raises(SystemExit) as excinfo:
            main([command, target, "--out", str(tmp_path / "artifacts")])
        message = excinfo.value.code
        assert message.startswith(f"repro: cannot read sweep spec {spec}: {reason}")
        assert "\n" not in message

    @pytest.mark.parametrize("command", ["sweep", "report"])
    def test_bad_topology_in_spec_exits_with_a_named_reason(self, command, tmp_path):
        """A point whose topology spec names no builder makes the spec
        invalid: one line naming the file, the point and the reason, before
        the engine starts."""
        document = json.loads(tiny_spec_path(tmp_path).read_text())
        document["base"]["topology"] = "bogus(k=4)"
        spec = tmp_path / "bogus.json"
        spec.write_text(json.dumps(document))
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(spec), "--out", str(out)])
        message = excinfo.value.code
        assert message.startswith(
            f"repro: invalid sweep spec {spec}: point '2f' of spec 'tiny': "
            "unknown topology 'bogus' (known: fat_tree, "
        )
        assert "\n" not in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize("where", ["base", "second point"])
    def test_topology_the_builder_rejects_exits_with_a_named_reason(
        self, command, where, tmp_path
    ):
        """``fat_tree(k=3)`` parses, but the builder rejects it: the same one
        line as any invalid spec, naming the point, before the engine
        starts, so no point runs, not even one with a good topology."""
        document = json.loads(tiny_spec_path(tmp_path).read_text())
        del document["sweep"]
        good = {"coflow_width": 2, "topology": "fat_tree(k=4)"}
        bad = {"coflow_width": 3, "topology": "fat_tree(k=3)"}
        if where == "base":
            document["base"]["topology"] = "fat_tree(k=3)"
            document["points"] = [{"label": "2f", "config": {"coflow_width": 2}}]
        else:
            document["points"] = [
                {"label": "2f", "config": good},
                {"label": "3f", "config": bad},
            ]
        spec = tmp_path / "k3.json"
        spec.write_text(json.dumps(document))
        out = tmp_path / "artifacts"
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(spec), "--out", str(out)])
        label = "2f" if where == "base" else "3f"
        assert excinfo.value.code == (
            f"repro: invalid sweep spec {spec}: point {label!r} of spec 'tiny': "
            "fat-tree arity k must be an even integer >= 2, got 3"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "report"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("metric", "weighted_completion_tim"),
            ("extra_metrics", ["makespan", "mean_slowdwn"]),
        ],
    )
    def test_unknown_metric_exits_with_a_named_reason(
        self, command, key, value, tmp_path
    ):
        """A metric no run records makes the spec invalid: one line naming
        it and listing the recorded ones, before any task runs (``sweep``
        writes nothing) and whatever the store holds (``report`` finds
        every record of the spec's grid here)."""
        good = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        if command == "report":
            assert main(["sweep", str(good), "--out", str(out)]) == 0
        document = json.loads(good.read_text())
        document[key] = value
        spec = tmp_path / "bad-metric.json"
        spec.write_text(json.dumps(document))
        bad = value if isinstance(value, str) else value[-1]
        with pytest.raises(SystemExit) as excinfo:
            main([command, str(spec), "--out", str(out)])
        assert excinfo.value.code == (
            f"repro: invalid sweep spec {spec}: unknown metric "
            f"{bad!r}; a run records weighted_completion_time, "
            "total_completion_time, average_completion_time, makespan, "
            "mean_slowdown, max_slowdown"
        )
        if command == "sweep":
            assert not out.exists()

    @needs_yaml
    @pytest.mark.parametrize("command", ["sweep", "report", "bench"])
    def test_malformed_yaml_spec_exits_with_one_line(
        self, command, tmp_path, monkeypatch
    ):
        """A spec PyYAML cannot parse names the file and the first line of
        the parser's message; ``bench fig3`` reads the file the others are
        given."""
        spec = tmp_path / "fig3.yaml"
        spec.write_text("name: [unclosed\n")
        if command == "bench":
            monkeypatch.setattr("repro.cli.bench.SPECS_DIR", tmp_path)
        target = "fig3" if command == "bench" else str(spec)
        with pytest.raises(SystemExit) as excinfo:
            main([command, target, "--out", str(tmp_path / "artifacts")])
        assert excinfo.value.code == (
            f"repro: invalid sweep spec {spec}: "
            "malformed YAML: while parsing a flow sequence"
        )


@needs_yaml
class TestScenarioMatrixAcceptance:
    """The PR's acceptance criterion, against the checked-in spec."""

    def test_smoke_sweep_two_workers_resume_and_report(self, tmp_path, capsys):
        spec = str(SPECS_DIR / "scenario-matrix.yaml")
        out = tmp_path / "artifacts"
        args = ["sweep", spec, "--smoke", "--workers", "2", "--out", str(out)]
        assert main(args) == 0
        capsys.readouterr()
        metadata = run_metadata(out, "scenario-matrix-smoke")
        assert metadata["engine"]["executed"] == 16  # 4 points x 1 try x 4 schemes
        assert metadata["engine"]["workers"] == 2

        # Re-invoked: resumes from the store, re-simulates nothing.
        assert main(args) == 0
        capsys.readouterr()
        assert run_metadata(out, "scenario-matrix-smoke")["engine"]["executed"] == 0

        # Report renders identical tables from the store alone.
        for fmt, filename in (("markdown", "report.md"), ("csv", "report.csv")):
            assert (
                main(
                    [
                        "report",
                        spec,
                        "--smoke",
                        "--out",
                        str(out),
                        "--format",
                        fmt,
                    ]
                )
                == 0
            )
            stdout = capsys.readouterr().out
            artifact = (out / "scenario-matrix-smoke" / filename).read_text()
            assert stdout.rstrip("\n") == artifact.rstrip("\n"), fmt


@needs_yaml
class TestOnlineAcceptance:
    """Online-vs-static end-to-end, with per-coflow slowdown columns."""

    def test_smoke_sweep_renders_slowdown_columns(self, tmp_path, capsys):
        spec = str(SPECS_DIR / "online.yaml")
        out = tmp_path / "artifacts"
        assert main(["sweep", spec, "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        # The rendered report carries the slowdown tables next to the
        # completion-time panels, for static and online schemes alike.
        assert "avg mean_slowdown" in stdout
        assert "avg max_slowdown" in stdout
        assert "Online-SEBF" in stdout and "SEBF" in stdout
        csv_text = (out / "online-smoke" / "report.csv").read_text()
        assert "mean_mean_slowdown" in csv_text.splitlines()[0]
        assert "mean_max_slowdown" in csv_text.splitlines()[0]

        # `repro report` re-renders the identical artifacts from the store.
        for fmt, filename in (("markdown", "report.md"), ("csv", "report.csv")):
            assert main(["report", spec, "--smoke", "--out", str(out), "--format", fmt]) == 0
            stdout = capsys.readouterr().out
            artifact = (out / "online-smoke" / filename).read_text()
            assert stdout.rstrip("\n") == artifact.rstrip("\n"), fmt


@needs_yaml
class TestPipelineMatrixAcceptance:
    """The pipeline-API acceptance: the composed-spec cross-product sweeps
    end-to-end and every composition gets its own report column."""

    def test_smoke_sweep_renders_one_column_per_composition(self, tmp_path, capsys):
        spec_path = str(SPECS_DIR / "pipeline-matrix.yaml")
        out = tmp_path / "artifacts"
        assert main(["sweep", spec_path, "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        spec = load_spec(SPECS_DIR / "pipeline-matrix.yaml")
        assert len(spec.schemes) >= 9  # Baseline + >= 8 composed pipelines

        import csv

        rows = list(
            csv.DictReader(
                (out / "pipeline-matrix-smoke" / "report.csv").open()
            )
        )
        assert {row["scheme"] for row in rows} == set(spec.schemes)
        markdown = (out / "pipeline-matrix-smoke" / "report.md").read_text()
        header = markdown.splitlines()[:6]
        for scheme in spec.schemes:
            assert any(scheme in line for line in header), scheme
            assert scheme in stdout

    def test_sweep_spec_with_bad_scheme_exits_cleanly(self, tmp_path):
        bad = {
            "name": "bad",
            "schemes": ["Baseline", "pipeline(router=lp, order=zebra)"],
            "base": {"num_coflows": 2, "coflow_width": 2, "topology": "fat_tree(k=4)"},
            "sweep": {"parameter": "coflow_width", "values": [2]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", str(path), "--out", str(tmp_path / "a")])
        message = str(excinfo.value)
        assert "invalid sweep spec" in message
        assert "unknown orderer 'zebra'" in message


class TestBench:
    def test_pipeline_stage_breakdown_smoke(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "pipeline", "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "per-stage plan time" in stdout
        assert "route (hinted order)" in stdout
        metadata = run_metadata(out, "pipeline-smoke")
        timings = metadata["timings"]
        assert "pipeline(router=lp, order=lp)" in timings
        for breakdown in timings.values():
            assert set(breakdown) == {
                "route_cold_ms", "route_ms", "order_ms", "plan_ms",
            }

    @needs_yaml
    def test_fig3_smoke_suite(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "fig3", "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "Figure 3" in stdout
        assert "Average improvement of LP-Based" in stdout
        metadata = run_metadata(out, "fig3-smoke")
        assert metadata["engine"]["executed"] == 12  # 3 widths x 1 try x 4 schemes

        # The suite runs specs/fig3.yaml: sweeping it writes identical reports.
        swept = tmp_path / "swept"
        spec = str(SPECS_DIR / "fig3.yaml")
        assert main(["sweep", spec, "--smoke", "--out", str(swept)]) == 0
        for name in ("report.txt", "report.md", "report.csv"):
            expected = (out / "fig3-smoke" / name).read_bytes()
            assert (swept / "fig3-smoke" / name).read_bytes() == expected, name

    @needs_yaml
    def test_paper_scale_reads_specs_paper_or_is_ignored(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "fig3", "--smoke", "--paper-scale", "--out", str(out)]) == 0
        assert "ignored" not in capsys.readouterr().err
        points = run_metadata(out, "fig3-smoke")["spec"]["points"]
        assert {p["config"]["topology"] for p in points} == {"fat_tree(k=8)"}
        # online has no specs/paper/ file, so the flag is named as ignored.
        assert main(["bench", "online", "--smoke", "--paper-scale", "--out", str(out)]) == 0
        assert "does not use --paper-scale (ignored)" in capsys.readouterr().err

    def test_table1_suite(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "table1", "--out", str(out)]) == 0
        assert "Table 1" in capsys.readouterr().out
        for name in ("report.txt", "report.md", "report.csv", "run.json"):
            assert (out / "table1" / name).exists()

    def test_table1_warns_about_ignored_flags(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "table1", "--out", str(out), "--workers", "2"]) == 0
        assert "does not use --workers" in capsys.readouterr().err
        # --tries is named too; left at its default, it is not.
        assert main(["bench", "table1", "--out", str(out), "--tries", "7"]) == 0
        assert "does not use --tries (ignored)" in capsys.readouterr().err
        assert main(["bench", "table1", "--out", str(out)]) == 0
        assert "--tries" not in capsys.readouterr().err

    def test_streaming_smoke_suite(self, tmp_path, capsys, monkeypatch):
        bench_file = tmp_path / "bench.json"
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench_file))
        monkeypatch.setenv("REPRO_BENCH_TIMESTAMP", "2026-01-01T00:00:00Z")
        out = tmp_path / "artifacts"
        assert main(["bench", "streaming", "--smoke", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        # The first-class service metrics appear as report columns.
        assert "replans/sec" in stdout
        assert "p99 decision ms" in stdout
        assert "setup ms/replan" in stdout
        assert "online events/sec" in stdout
        assert "batched vs per-arrival throughput" in stdout
        assert "resident session, 100k-flow stream" in stdout

        metadata = run_metadata(out, "streaming-smoke")
        assert metadata["suite"] == "streaming-smoke"
        assert metadata["policy"]["max_batch"] >= 2

        document = json.loads(bench_file.read_text())
        (record,) = document["runs"]
        assert record["timestamp"] == "2026-01-01T00:00:00Z"
        assert record["suite"] == "streaming-smoke"
        assert record["smoke"] is True
        assert record["throughput_ratio"] > 0
        # The unpinned sessions' tier is recorded with every run.
        assert record["default_backend"] == resolve_backend(None)
        # The 100k session's online rate is recorded on every run, smoke
        # included, so the perf trajectory always carries it.
        assert set(record["streaming"]) == {
            "per-arrival",
            "batched",
            "resident / 100k",
        }
        assert record["streaming"]["resident / 100k"]["online_events_per_sec"] > 0
        for metrics in record["streaming"].values():
            assert {
                "replans",
                "replans_per_sec",
                "arrivals_per_plan_sec",
                "p99_decision_latency",
                "max_staleness",
                "staleness_bound",
                "epoch_setup_seconds",
                "online_events_per_sec",
            } <= set(metrics)

    def test_streaming_smoke_recovers_corrupt_bench_file(
        self, tmp_path, capsys, monkeypatch
    ):
        bench_file = tmp_path / "bench.json"
        bench_file.write_text("{not json")
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench_file))
        out = tmp_path / "artifacts"
        assert main(["bench", "streaming", "--smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        # The corrupt file is renamed aside, and a fresh trajectory starts
        # with the streaming record shape.
        assert bench_file.with_suffix(".json.bak").read_text() == "{not json"
        document = json.loads(bench_file.read_text())
        (record,) = document["runs"]
        assert record["suite"] == "streaming-smoke"
        assert "streaming" in record
        assert "throughput_ratio" in record

    @needs_yaml
    def test_headline_smoke_suite(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["bench", "headline", "--smoke", "--out", str(out)]) == 0
        assert "Headline" in capsys.readouterr().out
        metadata = json.loads((out / "headline-smoke" / "run.json").read_text())
        # smoke: (2 width points + 1 count point) x 1 try x 4 schemes
        assert metadata["engine"]["executed"] == 12
        assert metadata["provenance"]["version"]


class TestFaultTolerantSweep:
    """``repro sweep`` under injected chaos: flags, exit codes, reports."""

    def chaos_spec_path(self, tmp_path) -> Path:
        """A tiny spec with one LP-solving scheme so ``lp`` faults can fire."""
        spec = {
            "name": "chaos",
            "schemes": ["Baseline", "LP-Based"],
            "tries": 1,
            "reference": "Baseline",
            "base": {
                "num_coflows": 2,
                "coflow_width": 2,
                "topology": "fat_tree(k=4)",
            },
            "sweep": {"parameter": "coflow_width", "values": [2], "label": "{value}f"},
        }
        path = tmp_path / "chaos.json"
        path.write_text(json.dumps(spec))
        return path

    def test_invalid_inject_faults_exits_cleanly(self, tmp_path):
        spec = tiny_spec_path(tmp_path)
        with pytest.raises(SystemExit, match="invalid --inject-faults"):
            main(["sweep", str(spec), "--inject-faults", "rate=5"])

    def test_invalid_min_coverage_exits_cleanly(self, tmp_path):
        spec = tiny_spec_path(tmp_path)
        with pytest.raises(SystemExit, match="min-coverage"):
            main(["sweep", str(spec), "--min-coverage", "1.5"])

    def test_transient_chaos_sweep_matches_fault_free_run(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        clean_out = tmp_path / "clean"
        chaos_out = tmp_path / "chaos"
        assert main(["sweep", str(spec), "--out", str(clean_out)]) == 0
        assert (
            main(
                [
                    "sweep",
                    str(spec),
                    "--out",
                    str(chaos_out),
                    "--inject-faults",
                    "rate=1.0,kinds=timeout",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # Every task faulted once, was retried, and converged: the CSV is
        # byte-identical to the fault-free run (no failures column appears).
        clean_csv = (clean_out / "tiny" / "report.csv").read_text()
        chaos_csv = (chaos_out / "tiny" / "report.csv").read_text()
        assert chaos_csv == clean_csv
        assert "failures" not in chaos_csv
        metadata = run_metadata(chaos_out, "tiny")
        assert metadata["engine"]["retried"] == metadata["engine"]["total_tasks"]
        assert metadata["engine"]["failed"] == 0
        assert metadata["engine"]["coverage"] == 1.0

    def test_permanent_failures_fail_the_exit_code_by_default(
        self, tmp_path, capsys
    ):
        spec = self.chaos_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        code = main(
            [
                "sweep",
                str(spec),
                "--out",
                str(out),
                "--inject-faults",
                "rate=1.0,kinds=lp",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "below" in captured.err
        assert "failed permanently" in captured.err
        # The sweep still completed: report carries the failures block and
        # the failed cell renders as nan.
        assert "failures" in captured.out
        text = (out / "chaos" / "report.txt").read_text()
        assert "failures (1 failed task(s)" in text
        assert "LPInfeasibleError" in text
        csv_text = (out / "chaos" / "report.csv").read_text()
        assert csv_text.splitlines()[0].endswith(",failures")
        metadata = run_metadata(out, "chaos")
        assert metadata["engine"]["failed"] == 1
        assert metadata["engine"]["coverage"] == 0.5

    def test_min_coverage_tolerates_the_failures(self, tmp_path, capsys):
        spec = self.chaos_spec_path(tmp_path)
        code = main(
            [
                "sweep",
                str(spec),
                "--out",
                str(tmp_path / "artifacts"),
                "--inject-faults",
                "rate=1.0,kinds=lp",
                "--min-coverage",
                "0.5",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "failed permanently" in captured.err
        assert "below" not in captured.err

    def test_retry_failed_heals_the_store(self, tmp_path, capsys):
        spec = self.chaos_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        assert (
            main(
                [
                    "sweep",
                    str(spec),
                    "--out",
                    str(out),
                    "--inject-faults",
                    "rate=1.0,kinds=lp",
                ]
            )
            == 3
        )
        capsys.readouterr()
        # Resume without --retry-failed: the failure is kept, nothing runs.
        assert main(["sweep", str(spec), "--out", str(out)]) == 3
        metadata = run_metadata(out, "chaos")
        assert metadata["engine"]["executed"] == 0
        assert metadata["engine"]["failed"] == 1
        capsys.readouterr()
        # Resume with --retry-failed and no injection: the cell heals.
        assert main(["sweep", str(spec), "--out", str(out), "--retry-failed"]) == 0
        metadata = run_metadata(out, "chaos")
        assert metadata["engine"]["executed"] == 1
        assert metadata["engine"]["failed"] == 0
        text = (out / "chaos" / "report.txt").read_text()
        assert "failures" not in text
        capsys.readouterr()

    def test_report_notes_failed_cells(self, tmp_path, capsys):
        spec = self.chaos_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        main(
            [
                "sweep",
                str(spec),
                "--out",
                str(out),
                "--inject-faults",
                "rate=1.0,kinds=lp",
            ]
        )
        capsys.readouterr()
        assert main(["report", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "1 task(s) recorded as permanent failures" in captured.err
        assert "failures (1 failed task(s)" in captured.out

    def test_spec_document_can_declare_its_own_faults(self, tmp_path, capsys):
        document = json.loads(self.chaos_spec_path(tmp_path).read_text())
        document["faults"] = "rate=1.0,kinds=lp"
        path = tmp_path / "declared.json"
        path.write_text(json.dumps(document))
        assert main(["sweep", str(path), "--out", str(tmp_path / "a")]) == 3
        metadata = run_metadata(tmp_path / "a", "chaos")
        assert metadata["engine"]["failed"] == 1
        assert metadata["spec"]["faults"] == "rate=1.0,kinds=lp"
        capsys.readouterr()


class TestCrashResume:
    """kill -9 mid-sweep, then resume: only unfinished work re-executes and
    the final artifacts are bit-identical to an uninterrupted run."""

    def crash_spec_path(self, tmp_path) -> Path:
        spec = {
            "name": "crashy",
            "schemes": ["Baseline", "Route-only"],
            "tries": 1,
            "reference": "Baseline",
            "base": {
                "num_coflows": 2,
                "coflow_width": 2,
                "topology": "fat_tree(k=4)",
            },
            "sweep": {
                "parameter": "coflow_width",
                "values": [2, 3, 4],
                "label": "{value}f",
            },
        }
        path = tmp_path / "crashy.json"
        path.write_text(json.dumps(spec))
        return path

    def test_kill_nine_then_resume_is_bit_identical(self, tmp_path, capsys):
        import os
        import signal
        import subprocess
        import sys
        import time

        spec = self.crash_spec_path(tmp_path)
        ref_out = tmp_path / "reference"
        out = tmp_path / "interrupted"

        # Uninterrupted reference run (no faults, serial).
        assert main(["sweep", str(spec), "--out", str(ref_out)]) == 0
        capsys.readouterr()

        # Launch a 2-worker sweep slowed by injected delays (a kill window),
        # wait until at least one record is on disk, then kill -9 the whole
        # process group mid-flight.
        store_path = out / "crashy" / "runstore.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "sweep",
                str(spec),
                "--out",
                str(out),
                "--workers",
                "2",
                "--inject-faults",
                "rate=1.0,kinds=slow,delay=0.4,seed=1",
            ],
            env=env,
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if store_path.exists() and store_path.read_text().count("\n") >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("sweep subprocess never wrote a record")
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)

        recorded = store_path.read_text().count("\n")
        assert recorded >= 1
        # The kill must have landed mid-flight for resume to have work left;
        # the injected 0.4s-per-task delay makes finishing all 6 tasks before
        # the first record appears effectively impossible.
        assert recorded < 6, "subprocess finished before the kill landed"

        # Resume without injection: only the missing tasks execute, and the
        # final report is byte-identical to the uninterrupted reference.
        assert main(["sweep", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "resuming from" in captured.out
        metadata = run_metadata(out, "crashy")
        assert metadata["engine"]["cached"] >= recorded - 1  # minus a torn tail
        assert metadata["engine"]["executed"] <= 6 - metadata["engine"]["cached"]
        assert metadata["engine"]["failed"] == 0
        for name in ("report.csv", "report.txt", "report.md"):
            assert (out / "crashy" / name).read_text() == (
                ref_out / "crashy" / name
            ).read_text()


#: Child entry point of a fleet with a forced task split: shard ``k`` of
#: ``N`` drains exactly ``tasks[k::N]`` of the grid.  Claim markers are
#: advisory, so live shards racing for the same open task may both execute
#: it; a disjoint split keeps the shards concurrent while making per-shard
#: accounting independent of process timing.
_SPLIT_SHARD = """
import sys
from repro.analysis.fabric.worker import Worker
from repro.cli import main
shards, shard_id = int(sys.argv[1]), int(sys.argv[2])
Worker._rotated = lambda self, tasks: tasks[shard_id::shards]
sys.exit(main(sys.argv[3:]))
"""


class TestShardedSweep:
    """The fabric's CLI surface: ``sweep --shards N`` fleets, shard-worker
    mode, ``merge``, and the lost-shard exit-code degradation."""

    @staticmethod
    def _split_fleet(monkeypatch):
        """Spawn every fleet shard through :data:`_SPLIT_SHARD`."""
        from repro.cli import sweep as sweep_module

        real_command = sweep_module._shard_command

        def split(args, root, shard_id):
            python, _m, _repro, *argv = real_command(args, root, shard_id)
            return [
                python, "-c", _SPLIT_SHARD, str(args.shards), str(shard_id), *argv
            ]

        monkeypatch.setattr(sweep_module, "_shard_command", split)

    def test_shard_worker_mode_drains_the_grid(self, tmp_path, capsys):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        root = tmp_path / "shards"
        code = main(
            [
                "sweep", str(spec), "--out", str(out),
                "--shards", "1", "--shard-id", "0", "--store", str(root),
                "--steal-after", "0.2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "shard 0/1: 4 tasks" in captured.out
        assert "4 executed" in captured.out
        assert (root / "shard-0000.jsonl").exists()
        assert json.loads((root / "fleet.json").read_text()) == {"shards": 1}
        stats = json.loads((root / "shard-0000.stats.json").read_text())
        assert stats["executed"] == 4

    def test_three_shard_fleet_matches_single_shard_reference(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = tiny_spec_path(tmp_path)
        ref_out = tmp_path / "ref"
        out = tmp_path / "fleet"
        assert main(["sweep", str(spec), "--out", str(ref_out)]) == 0
        # The three shards run at the same time, each on its own share.
        with monkeypatch.context() as patch:
            self._split_fleet(patch)
            assert (
                main(
                    [
                        "sweep", str(spec), "--out", str(out),
                        "--shards", "3", "--steal-after", "0.5",
                    ]
                )
                == 0
            )
        capsys.readouterr()
        for name in ("report.txt", "report.md", "report.csv"):
            assert (out / "tiny" / name).read_text() == (
                ref_out / "tiny" / name
            ).read_text()
        metadata = run_metadata(out, "tiny")
        fleet = metadata["fleet"]
        assert fleet["shards"] == 3
        assert fleet["lost_shards"] == []
        assert metadata["engine"]["executed"] == 4
        assert metadata["engine"]["skipped_records"] == 0
        assert {
            shard_id: shard_stats["executed"]
            for shard_id, shard_stats in fleet["shard_stats"].items()
        } == {"0": 2, "1": 1, "2": 1}

        # Fleet resume: every task is already recorded, no shard simulates
        # anything, and run.json proves it.
        assert (
            main(
                [
                    "sweep", str(spec), "--out", str(out),
                    "--shards", "3", "--steal-after", "0.5",
                ]
            )
            == 0
        )
        capsys.readouterr()
        resumed = run_metadata(out, "tiny")
        assert resumed["engine"]["executed"] == 0
        assert resumed["engine"]["cached"] == 4
        for shard_stats in resumed["fleet"]["shard_stats"].values():
            assert shard_stats["executed"] == 0
            assert shard_stats["cached"] == 4

    def test_lost_shard_degrades_to_exit_3_naming_the_shard(
        self, tmp_path, capsys, monkeypatch
    ):
        import sys as _sys

        from repro.cli import sweep as sweep_module

        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        real_command = sweep_module._shard_command

        def sabotaged(args, root, shard_id):
            if shard_id == 1:
                return [_sys.executable, "-c", "raise SystemExit(9)"]
            return real_command(args, root, shard_id)

        monkeypatch.setattr(sweep_module, "_shard_command", sabotaged)
        code = main(
            [
                "sweep", str(spec), "--out", str(out),
                "--shards", "2", "--steal-after", "0.2",
            ]
        )
        captured = capsys.readouterr()
        # The survivor stole the dead shard's claims, so the report is
        # complete — but the lost shard still degrades the exit status and
        # is named on stderr, never silently absorbed.
        assert code == 3
        assert "shard 1 was lost" in captured.err
        assert run_metadata(out, "tiny")["fleet"]["lost_shards"] == [1]
        # --min-coverage 0 is the explicit opt-in to a partial fleet.
        monkeypatch.setattr(sweep_module, "_shard_command", real_command)
        assert (
            main(
                [
                    "sweep", str(spec), "--out", str(out),
                    "--shards", "2", "--steal-after", "0.2",
                    "--min-coverage", "0",
                ]
            )
            == 0
        )
        capsys.readouterr()

    def test_a_fleet_that_records_nothing_covers_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        """Every shard exits before recording: run.json counts no task as
        cached and reads coverage 0, the same coverage the exit code reads,
        and every cell renders nan."""
        import sys as _sys

        from repro.cli import sweep as sweep_module

        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        monkeypatch.setattr(
            sweep_module,
            "_shard_command",
            lambda args, root, shard_id: [_sys.executable, "-c", "raise SystemExit(9)"],
        )
        fleet = ["sweep", str(spec), "--out", str(out), "--shards", "2"]
        assert main(fleet) == 3
        assert "coverage 0.0% is below --min-coverage 100.0%" in capsys.readouterr().err
        assert main(fleet + ["--min-coverage", "0"]) == 0
        assert "engine: 4 tasks, 0 cached, 0 executed" in capsys.readouterr().out
        engine = run_metadata(out, "tiny")["engine"]
        assert (engine["cached"], engine["executed"], engine["coverage"]) == (0, 0, 0.0)
        rows = (out / "tiny" / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 4 and all(",nan," in row for row in rows)

    def test_merge_cli_produces_a_reportable_plain_store(
        self, tmp_path, capsys
    ):
        spec = tiny_spec_path(tmp_path)
        out = tmp_path / "artifacts"
        root = tmp_path / "shards"
        assert (
            main(
                [
                    "sweep", str(spec), "--out", str(out),
                    "--shards", "1", "--shard-id", "0", "--store", str(root),
                ]
            )
            == 0
        )
        capsys.readouterr()
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(root), "-o", str(merged)]) == 0
        captured = capsys.readouterr()
        assert "merged 1 store(s): 4 record(s)" in captured.out
        assert main(["report", str(spec), "--store", str(merged)]) == 0
        assert "tiny" in capsys.readouterr().out

    def test_merge_cli_missing_input_fails_cleanly(self, tmp_path, capsys):
        assert main(["merge", str(tmp_path / "nope")]) == 1
        assert "repro merge:" in capsys.readouterr().err

    @staticmethod
    def _sharded_sweep(spec, out, monkeypatch, share):
        """Run both shard workers of a 2-shard fleet in turn, shard ``k``
        draining exactly ``share(k, tasks)`` of the grid, so which shard
        records which task never depends on process start-up timing."""
        from repro.analysis.fabric.worker import Worker

        monkeypatch.setattr(
            Worker, "_rotated", lambda self, tasks: share(self.store.shard_id, tasks)
        )
        for shard_id in (0, 1):
            assert (
                main(
                    [
                        "sweep", str(spec), "--out", str(out),
                        "--shards", "2", "--shard-id", str(shard_id),
                        "--min-coverage", "0",
                    ]
                )
                == 0
            )
        return out / "tiny" / "shards"

    def test_report_reads_the_shard_directory_and_names_missing_shards(
        self, tmp_path, capsys, monkeypatch
    ):
        spec = tiny_spec_path(tmp_path, extra_metrics=["makespan"])
        out = tmp_path / "artifacts"
        # A known split: each shard records every other task of the grid,
        # which puts every Route-only cell on shard 1.
        root = self._sharded_sweep(
            spec, out, monkeypatch, lambda k, tasks: tasks[k::2]
        )
        capsys.readouterr()
        for shard_id in (0, 1):
            text = (root / f"shard-{shard_id:04d}.jsonl").read_text()
            assert text.count('"record"') == 2
        # No runstore.jsonl exists; report falls back to <out>/tiny/shards/.
        assert main(["report", str(spec), "--out", str(out)]) == 0
        assert "nan" not in capsys.readouterr().out
        # A lost shard file is called out by id, not silently skipped.
        (root / "shard-0001.jsonl").unlink()
        assert main(["report", str(spec), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "shard 1" in captured.err
        assert "nan" in captured.out
        assert_every_table_lists_every_scheme(captured.out)

    def test_report_names_lost_shards_when_every_survivor_is_empty(
        self, tmp_path, capsys, monkeypatch
    ):
        """Only empty shards survive: the report still names the lost
        shard and renders every cell as nan instead of exiting on an
        'empty' store (the partial-store contract)."""
        spec = tiny_spec_path(tmp_path, extra_metrics=["makespan"])
        out = tmp_path / "artifacts"
        root = self._sharded_sweep(
            spec, out, monkeypatch, lambda k, tasks: tasks if k == 1 else []
        )
        capsys.readouterr()
        assert '"record"' not in (root / "shard-0000.jsonl").read_text()
        (root / "shard-0001.jsonl").unlink()
        assert main(["report", str(spec), "--out", str(out), "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert "shard 1" in captured.err
        assert "is empty" not in captured.err
        rows = [line for line in captured.out.splitlines()[1:] if line]
        assert len(rows) == 4 and all(row.endswith(",nan,nan") for row in rows)
        assert main(["report", str(spec), "--out", str(out)]) == 0
        assert_every_table_lists_every_scheme(capsys.readouterr().out)
        # With no shard missing, an empty fleet store still exits 1.
        (root / "shard-0001.jsonl").touch()
        assert main(["report", str(spec), "--out", str(out)]) == 1
        assert "is empty" in capsys.readouterr().err

    def test_shard_id_out_of_range_exits_cleanly(self, tmp_path):
        spec = tiny_spec_path(tmp_path)
        with pytest.raises(SystemExit, match="out of range"):
            main(["sweep", str(spec), "--shards", "2", "--shard-id", "2"])


class TestShardCrashResume:
    """kill -9 one shard worker mid-sweep: the surviving shard steals its
    claims and finishes, the killed shard resumes executing nothing, and
    the merged artifacts are bit-identical to an uninterrupted run."""

    def test_kill_nine_a_shard_worker_then_resume(self, tmp_path, capsys):
        import os
        import signal
        import subprocess
        import sys
        import time

        spec = tiny_spec_path(tmp_path)
        ref_out = tmp_path / "reference"
        out = tmp_path / "interrupted"
        root = out / "tiny" / "shards"
        assert main(["sweep", str(spec), "--out", str(ref_out)]) == 0
        capsys.readouterr()

        # Shard 1 of 2, slowed by injected delays (the kill window).
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src")
        shard_file = root / "shard-0001.jsonl"
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "sweep", str(spec),
                "--out", str(out), "--shards", "2", "--shard-id", "1",
                "--store", str(root), "--min-coverage", "0",
                "--inject-faults", "rate=1.0,kinds=slow,delay=0.4,seed=1",
            ],
            env=env,
            cwd=str(ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if process.poll() is not None:
                    break
                if shard_file.exists() and any(
                    '"record"' in line
                    for line in shard_file.read_text().splitlines()
                ):
                    break
                time.sleep(0.02)
            else:
                pytest.fail("shard worker never wrote a record")
        finally:
            if process.poll() is None:
                os.killpg(process.pid, signal.SIGKILL)
            process.wait(timeout=30)

        recorded = sum(
            1
            for line in shard_file.read_text().splitlines()
            if '"record"' in line
        )
        assert 1 <= recorded < 4, "kill did not land mid-flight"

        # Shard 0 drains the rest, stealing the dead shard's claims.
        assert (
            main(
                [
                    "sweep", str(spec), "--out", str(out),
                    "--shards", "2", "--shard-id", "0", "--store", str(root),
                    "--steal-after", "0.2", "--min-coverage", "0",
                ]
            )
            == 0
        )
        survivor = capsys.readouterr().out
        assert f"{4 - recorded} executed" in survivor

        # The killed shard resumes: every task is already recorded, so it
        # executes nothing — the no-re-simulation proof, via hit counts.
        assert (
            main(
                [
                    "sweep", str(spec), "--out", str(out),
                    "--shards", "2", "--shard-id", "1", "--store", str(root),
                    "--steal-after", "0.2",
                ]
            )
            == 0
        )
        resumed = capsys.readouterr().out
        assert "resuming from" in resumed
        assert "0 executed" in resumed
        assert "4 cached" in resumed

        # Merged artifacts are bit-identical to the uninterrupted run.
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", str(root), "-o", str(merged)]) == 0
        assert (
            main(
                [
                    "report", str(spec), "--out", str(out),
                    "--store", str(merged), "--export",
                ]
            )
            == 0
        )
        capsys.readouterr()
        for name in ("report.csv", "report.txt", "report.md"):
            assert (out / "tiny" / name).read_text() == (
                ref_out / "tiny" / name
            ).read_text()


class TestBenchFileLock:
    """Concurrent bench recorders must serialize on the file lock instead
    of interleaving read-modify-write cycles and dropping runs."""

    def test_concurrent_recorders_lose_no_runs(self, tmp_path, monkeypatch):
        import threading

        from repro.cli.bench import _persist_bench_run

        bench_file = tmp_path / "bench.json"
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench_file))
        barrier = threading.Barrier(8)

        def record(i):
            barrier.wait()
            _persist_bench_run({"suite": "lock-test", "worker": i})

        threads = [
            threading.Thread(target=record, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        document = json.loads(bench_file.read_text())
        assert len(document["runs"]) == 8
        assert sorted(run["worker"] for run in document["runs"]) == list(
            range(8)
        )

    def test_crash_safe_rewrite_leaves_no_temp_file(
        self, tmp_path, monkeypatch
    ):
        from repro.cli.bench import _persist_bench_run

        bench_file = tmp_path / "bench.json"
        monkeypatch.setenv("REPRO_BENCH_FILE", str(bench_file))
        _persist_bench_run({"suite": "lock-test"})
        assert json.loads(bench_file.read_text())["runs"]
        assert not bench_file.with_suffix(".json.tmp").exists()
