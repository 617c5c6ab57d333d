"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def golite_files(tmp_path):
    lib = tmp_path / "lib.go"
    lib.write_text("package lib\n\nfunc Triple(x int) int { return 3*x }\n")
    app = tmp_path / "main.go"
    app.write_text(
        'package main\n\nimport "lib"\n\nfunc main() {\n'
        '    f := with "none" func(x int) int { return lib.Triple(x) }\n'
        "    println(f(14))\n}\n")
    return [str(lib), str(app)]


class TestRun:
    def test_run_ok(self, golite_files, capsys):
        assert main(["run", *golite_files, "--backend", "mpk"]) == 0
        assert capsys.readouterr().out == "42\n"

    @pytest.mark.parametrize("backend", ["baseline", "vtx", "lwc"])
    def test_all_backends(self, golite_files, capsys, backend):
        assert main(["run", *golite_files, "--backend", backend]) == 0
        assert capsys.readouterr().out == "42\n"

    def test_stats_flag(self, golite_files, capsys):
        assert main(["run", *golite_files, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "simulated time" in err and "switches" in err

    def test_fault_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "main.go"
        bad.write_text(
            "package main\n\nfunc main() {\n"
            '    f := with "none" func() int { return syscall(102) }\n'
            "    println(f())\n}\n")
        assert main(["run", str(bad), "--backend", "mpk"]) == 1
        assert "aborted" in capsys.readouterr().err

    def test_compile_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "main.go"
        bad.write_text("package main\nfunc main() { $$$ }\n")
        assert main(["run", str(bad)]) == 2
        assert "repro:" in capsys.readouterr().err


#: One bad value per load-generator field, and the message it must name.
BAD_LOAD_INPUT = [
    ("loadtest", ["--offered", "0"], "arrival rate must be > 0 req/s"),
    ("loadtest", ["--offered", "-5"], "arrival rate must be > 0 req/s"),
    ("loadtest", ["--requests", "0"], "arrival count must be >= 1"),
    ("loadtest", ["--pool", "0"], "pool must be >= 1"),
    ("loadtest", ["--slo-ms", "0"], "slo_ms must be > 0"),
    ("tenants", ["--rate", "0"], "arrival rate must be > 0 req/s"),
    ("tenants", ["--requests", "0"], "arrival count must be >= 1"),
    ("tenants", ["--pool", "0"], "pool must be >= 1"),
    ("tenants", ["--tenants", "0"], "tenants must be >= 1"),
    ("tenants", ["--faulty-frac", "2"],
     "faulty_frac must be within [0, 1]"),
    ("tenants", ["--cpuhog-frac", "-0.1"],
     "cpuhog_frac must be within [0, 1]"),
    ("tenants", ["--memhog-frac", "1.5"],
     "memhog_frac must be within [0, 1]"),
    ("tenants", ["--faulty-frac", "0.6", "--memhog-frac", "0.5"],
     "faulty_frac + cpuhog_frac + memhog_frac must be <= 1"),
    ("tenants", ["--tenants", "3", "--faulty-frac", "0.5",
                 "--cpuhog-frac", "0.5", "--memhog-frac", "0"],
     "misbehaving tenants must be <= tenants (3), got 4"),
]


class TestConfigErrors:
    """Out-of-range observer and load-generator settings exit 2 with a
    named ConfigError message instead of a traceback or a silently
    absurd run."""

    def test_zero_profile_period(self, golite_files, tmp_path, capsys):
        code = main(["run", *golite_files, "--profile",
                     str(tmp_path / "out.folded"), "--profile-period", "0"])
        err = capsys.readouterr().err
        assert code == 2
        assert "repro: profile_period_ns must be > 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sample", ["2", "-1"])
    def test_span_sample_out_of_range(self, capsys, sample):
        code = main(["loadtest", "--backends", "mpk", "--offered", "10000",
                     "--requests", "4", "--span-sample", sample])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro: span_sample must be within [0, 1]" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    SMALL_RUN = {
        "loadtest": ["--backends", "mpk", "--offered", "10000",
                     "--requests", "4"],
        "tenants": ["--backends", "mpk", "--tenants", "4",
                    "--requests", "4", "--rate", "2000"],
    }

    @pytest.mark.parametrize(
        "command, flags, message", BAD_LOAD_INPUT,
        ids=[f"{c} {' '.join(f)}" for c, f, _ in BAD_LOAD_INPUT])
    def test_load_generator_input(self, capsys, command, flags, message):
        code = main([command, *self.SMALL_RUN[command], *flags])
        captured = capsys.readouterr()
        assert code == 2
        assert f"repro: {message}" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["loadtest", "tenants"])
    def test_unknown_backend_rejected_before_any_level(self, capsys,
                                                       command):
        code = main([command, *self.SMALL_RUN[command],
                     "--backends", "mpk,bogus"])
        captured = capsys.readouterr()
        assert code == 2
        assert ("repro: unknown backend 'bogus' "
                "(choose from baseline, mpk, vtx, lwc)") in captured.err
        assert f"-- {command}[" not in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_slo_rejected_before_any_level(self, capsys, monkeypatch):
        from repro.workloads import loadgen
        levels = []
        monkeypatch.setattr(loadgen, "run_level",
                            lambda *args, **kwargs: levels.append(args))
        code = main(["loadtest", *self.SMALL_RUN["loadtest"],
                     "--slo-ms", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro: slo_ms must be > 0, got 0.0" in captured.err
        assert "-- loadtest[" not in captured.err
        assert levels == []


class TestLoadtestSpans:
    def test_slo_ms_reaches_the_span_recorder(self, tmp_path, capsys):
        """Requests slower than ``--slo-ms`` are flagged ``slo`` in the
        span export, so tail sampling keeps them even at sample 0."""
        import json
        out = tmp_path / "spans.json"
        code = main(["loadtest", "--backends", "mpk", "--offered", "20000",
                     "--requests", "80", "--slo-ms", "0.03",
                     "--spans", str(out), "--span-sample", "0"])
        assert code == 0
        assert "| no |" in capsys.readouterr().out
        export = json.loads(out.read_text())
        (summary,) = export["otherData"]["sampling"].values()
        assert summary["total"] == 80
        assert summary["flagged"] > 0
        roots = [e for e in export["traceEvents"]
                 if e.get("name") == "request"]
        assert roots and all("slo" in e["args"]["flags"] for e in roots)


class TestLayoutAndViews:
    def test_layout(self, golite_files, capsys):
        assert main(["layout", *golite_files]) == 0
        out = capsys.readouterr().out
        assert "main.text" in out
        assert "litterbox.super.verif" in out

    def test_views(self, golite_files, capsys):
        assert main(["views", *golite_files]) == 0
        out = capsys.readouterr().out
        assert "trusted" in out
        assert "meta-packages" in out


class TestPylite:
    def test_py_command(self, tmp_path, capsys):
        mod = tmp_path / "secret.py"
        mod.write_text("data = [5, 6, 7]\n")
        app = tmp_path / "app.py"
        app.write_text("import secret\nprint(len(secret.data))\n")
        assert main(["py", str(mod), str(app), "--mode", "python"]) == 0
        assert capsys.readouterr().out == "3\n"

    def test_py_fault(self, tmp_path, capsys):
        mod = tmp_path / "worker.py"
        mod.write_text('def run():\n    write_file("/x", "y")\n'
                       "    return 0\n")
        app = tmp_path / "app.py"
        app.write_text('import worker\n'
                       'f = enclosure("none", worker.run)\nout = f()\n')
        assert main(["py", str(mod), str(app),
                     "--mode", "conservative"]) == 1
        assert "aborted" in capsys.readouterr().err


class TestContainmentFlags:
    def test_fault_policy_keeps_exit_code_but_not_abort(self, tmp_path,
                                                        capsys):
        bad = tmp_path / "main.go"
        bad.write_text(
            "package main\n\nfunc main() {\n"
            '    f := with "none" func() int { return syscall(102) }\n'
            "    println(f())\n}\n")
        assert main(["run", str(bad), "--backend", "mpk",
                     "--fault-policy", "kill-goroutine"]) == 1
        err = capsys.readouterr().err
        assert "contained" in err
        assert "aborted" not in err

    def test_inject_entry_denial(self, golite_files, capsys):
        assert main(["run", *golite_files, "--backend", "mpk",
                     "--inject", "entry@main_1", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert "denied-entry" in err

    def test_macro_smoke_with_injection(self, tmp_path, capsys):
        report = tmp_path / "containment.json"
        code = main(["macro", "--backend", "mpk", "--requests", "12",
                     "--fault-policy", "quarantine",
                     "--quarantine-threshold", "1000",
                     "--inject", "pkey@main_1:every=3", "--seed", "7",
                     "--expect-contained", "3",
                     "--report", str(report)])
        assert code == 0
        err = capsys.readouterr().err
        assert "contained faults" in err
        import json
        data = json.loads(report.read_text())
        assert data["ok"] + data["errors"] == 12
        assert len(data["contained"]) >= 3
        assert data["injector"]["seed"] == 7

    def test_macro_expect_contained_failure(self, capsys):
        code = main(["macro", "--backend", "mpk", "--requests", "2",
                     "--fault-policy", "quarantine",
                     "--expect-contained", "1"])
        assert code == 1
        assert "expected" in capsys.readouterr().err
