"""The ``python -m repro.experiments`` command-line runner."""

from collections import namedtuple
from dataclasses import fields, replace

import pytest

import repro.experiments.__main__ as cli
from repro.experiments import WarehouseConfig
from repro.maintenance.grouping import BatchPolicy
from repro.recovery import CrashPlan

DEFAULTS = WarehouseConfig()

Call = namedtuple("Call", "name full config workload_seed")


class FakeResult:
    consistent = True

    def table(self):
        return "FAKE TABLE"


@pytest.fixture
def seen(monkeypatch):
    """Replace the runner table with one fake ``fig09`` / ``fig10`` that
    records its name and the ``(full, config, workload_seed)`` it was
    built from."""
    calls = []

    def fake_runners(full, config=DEFAULTS, workload_seed=None):
        def runner(name):
            calls.append(Call(name, full, config, workload_seed))
            return FakeResult()

        return {
            name: lambda name=name: runner(name)
            for name in ("fig09", "fig10")
        }

    monkeypatch.setattr(cli, "_runners", fake_runners)
    return calls


class TestArgumentHandling:
    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_runner_table_contains_all_figures(self):
        runners = cli._runners(full=False)
        for name in ("fig08", "fig09", "fig10", "fig11", "fig12"):
            assert name in runners
        assert any(name.startswith("abl-") for name in runners)

    def test_full_and_quick_tables_have_same_keys(self):
        assert set(cli._runners(False)) == set(cli._runners(True))


#: flag name -> (argv, expected field value); one entry per flag row
FLAG_CASES = {
    "cache": (["--cache"], True),
    "self-maintenance": (["--self-maintenance"], True),
    "batch": (["--batch"], BatchPolicy()),
    "journal": (["--journal"], True),
    "checkpoint-every": (["--checkpoint-every", "4"], 4),
    "crash-seed": (["--crash-seed", "11"], CrashPlan.random(11)),
    "shard-processes": (["--shard-processes", "2"], 2),
}

#: config fields the command line deliberately does not set: the
#: runners choose strategy, scale, seeds, backend, views and shards per
#: arm
NOT_ON_THE_COMMAND_LINE = {
    "strategy",
    "tuples_per_relation",
    "seed",
    "backend",
    "parallel_workers",
    "journal_dir",
    "fault_plan",
    "spans",
    "shards",
}


class TestExecution:
    def test_runs_requested_figure(self, seen, capsys):
        assert cli.main(["fig09"]) == 0
        assert seen == [Call("fig09", False, DEFAULTS, None)]
        assert "FAKE TABLE" in capsys.readouterr().out

    def test_full_flag_threaded_through(self, seen):
        cli.main(["fig09", "--full"])
        assert [call.full for call in seen] == [True]

    def test_seed_flag_threaded_through(self, seen):
        cli.main(["fig09", "--seed", "42"])
        cli.main(["fig09"])
        assert [call.workload_seed for call in seen] == [42, None]

    @pytest.mark.parametrize(
        "field", [field.name for field in fields(WarehouseConfig)]
    )
    def test_config_field_reaches_runner(self, seen, field):
        """Every config field is either set by exactly one flag row —
        and then reaches the runners' config, leaving every other field
        at its default — or is listed as not on the command line."""
        rows = [flag for flag in cli.FLAGS if flag.field == field]
        if not rows:
            assert field in NOT_ON_THE_COMMAND_LINE
            return
        (flag,) = rows
        assert field not in NOT_ON_THE_COMMAND_LINE
        argv, expected = FLAG_CASES[flag.name]
        cli.main(["fig09", *argv])
        cli.main(["fig09"])
        flagged, plain = (call.config for call in seen)
        assert getattr(flagged, field) == expected
        assert plain == DEFAULTS
        # --crash-seed implies the journal; nothing else leaks.
        implied = {"journal": True} if field == "crash_plan" else {}
        assert flagged == DEFAULTS.replace(**{field: expected}, **implied)

    def test_every_flag_row_is_exercised(self):
        assert {flag.name for flag in cli.FLAGS} == set(FLAG_CASES)

    @pytest.mark.parametrize(
        "flag", [flag for flag in cli.FLAGS if flag.negatable],
        ids=lambda flag: flag.name,
    )
    def test_no_flag_is_the_default(self, seen, flag):
        cli.main(["fig09", f"--no-{flag.name}"])
        assert seen[0].config == DEFAULTS

    def test_cache_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--cache", "--no-cache"])

    def test_self_maintenance_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(
                ["fig09", "--self-maintenance", "--no-self-maintenance"]
            )

    def test_batch_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            cli.main(["fig09", "--batch", "--no-batch"])

    def test_crash_seed_implies_journal_in_runners(self):
        config = WarehouseConfig(crash_plan=CrashPlan.random(3))
        assert config.journal
        assert "fig12" in cli._runners(full=False, config=config)

    @staticmethod
    def _rejected_by_the_parser(argv, capsys):
        """A value the config refuses is a usage error, not a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["fig09", *argv])
        assert exit_info.value.code == 2
        assert "must be >=" in capsys.readouterr().err

    def test_shard_processes_must_be_nonnegative(self, capsys):
        self._rejected_by_the_parser(["--shard-processes", "-1"], capsys)

    def test_checkpoint_every_must_be_positive(self, capsys):
        self._rejected_by_the_parser(["--checkpoint-every", "0"], capsys)

    def test_sharding_ablation_registered(self):
        assert "abl-sharding" in cli._runners(full=False)

    def test_runtime_ablation_registered(self):
        assert "abl-runtime" in cli._runners(full=False)

    def test_shard_processes_leaves_the_figures_inline(self, monkeypatch):
        """A figure testbed is one in-process world: no shard knob
        reaches it, the flag reaches only the two sharded ablations."""
        received = {}
        figures = ("fig08", "fig09", "fig10", "fig11", "fig12")
        monkeypatch.setattr(
            cli.table,
            "EXPERIMENTS",
            [
                replace(
                    cli.table.BY_ID[name],
                    run=lambda config, name=name, **sweep: (
                        received.update({name: config}) or FakeResult()
                    ),
                )
                for name in figures
            ],
        )
        runners = cli._runners(
            full=False, config=WarehouseConfig(shard_processes=2, shards=2)
        )
        for name in figures:
            runners[name]()
            assert received[name].shard_processes == 0
            assert received[name].shards == 1

    def test_real_figure_runs_under_shard_processes(self, capsys):
        assert cli.main(["fig09", "--shard-processes", "2"]) == 0
        assert "fig09 ran in" in capsys.readouterr().out

    def test_batch_and_cache_flags_compose(self, seen):
        cli.main(["fig09", "--cache", "--batch"])
        assert seen[0].config == DEFAULTS.replace(
            snapshot_cache=True, batch_policy=BatchPolicy()
        )

    def test_all_runs_everything(self, seen):
        cli.main(["all"])
        assert [call.name for call in seen] == ["fig09", "fig10"]

    def test_inconsistent_result_fails(self, monkeypatch):
        class BadResult:
            consistent = False

            def table(self):
                return ""

        monkeypatch.setattr(
            cli,
            "_runners",
            lambda full, config, workload_seed: {"fig09": BadResult},
        )
        assert cli.main(["fig09"]) == 1
