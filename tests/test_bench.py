import copy
import csv
import json
from types import SimpleNamespace

import pytest

from edgelinker.bench import (
    CSV_COLUMNS,
    RunPlan,
    cmd_attack,
    default_attack_config,
    cmd_channel_overhead,
    cmd_run,
)
from edgelinker.cli import main
from tests.conftest import load_csv, non_timing_columns


def small_plan(**overrides):
    params = dict(
        node_counts=[2],
        task_counts=[20],
        repetitions=2,
        workload="write",
        seed=5,
        block_interval_ms=200,
    )
    params.update(overrides)
    return RunPlan(**params)


class TestCmdRun:
    def test_one_row_per_cell_covering_all_repetitions(self, tmp_path):
        plan = small_plan(repetitions=5)
        rows = load_csv(cmd_run(plan, tmp_path))
        assert len(rows) == 1
        assert rows[0]["repetitions"] == "5"
        assert rows[0]["confirmed_tx"] == str(5 * 20)
        assert len(rows[0]["tip_hashes"].split(";")) == 5

    def test_csv_schema_stable(self, tmp_path):
        cmd_run(small_plan(), tmp_path)
        header = (tmp_path / "results.csv").read_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "plan" in manifest and "commit" in manifest

    def test_rerun_reproduces_non_timing_columns(self, tmp_path):
        a = load_csv(cmd_run(small_plan(), tmp_path / "a"))
        b = load_csv(cmd_run(small_plan(), tmp_path / "b"))
        assert non_timing_columns(a) == non_timing_columns(b)
        assert [r["tip_hashes"] for r in a] == [r["tip_hashes"] for r in b]

    def test_secure_and_plain_share_simulated_timelines(self, tmp_path):
        secure = load_csv(cmd_run(small_plan(channel_mode="secure"), tmp_path / "s"))[0]
        plain = load_csv(cmd_run(small_plan(channel_mode="plain"), tmp_path / "p"))[0]
        assert secure["confirmed_tx"] == plain["confirmed_tx"]
        assert secure["tps_mean"] == plain["tps_mean"]
        assert secure["tip_hashes"] == plain["tip_hashes"]

    def test_read_throughput_grows_with_nodes(self, tmp_path):
        plan = small_plan(workload="read", node_counts=[1, 5], task_counts=[100], repetitions=1)
        rows = load_csv(cmd_run(plan, tmp_path))
        tps = [float(r["tps_mean"]) for r in rows]
        assert tps[0] < tps[1]

    def test_invalid_plan_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_run(small_plan(repetitions=0), tmp_path)
        with pytest.raises(ValueError):
            cmd_run(small_plan(workload="scenario"), tmp_path)
        with pytest.raises(ValueError):
            cmd_run(small_plan(workload="mixed"), tmp_path)
        with pytest.raises(ValueError, match="block_interval_ms"):
            cmd_run(small_plan(block_interval_ms=0), tmp_path)  # would never advance simulated time


class TestChannelOverhead:
    def test_report_shape_and_positivity(self, tmp_path):
        rows = cmd_channel_overhead([64, 1024], 100, tmp_path / "overhead.csv")
        assert [r["size_bytes"] for r in rows] == [64, 1024]
        for row in rows:
            assert row["overhead_mean_us"] > 0
            assert row["secure_mean_us"] > row["plain_mean_us"]
        assert (tmp_path / "overhead.csv").exists()

    def test_sample_floor_enforced(self):
        with pytest.raises(ValueError):
            cmd_channel_overhead([64], 99)

    @pytest.mark.parametrize("sizes", [[], [64, -5]], ids=["none", "negative"])
    def test_no_sizes_or_a_negative_size_rejected(self, sizes):
        with pytest.raises(ValueError, match="message size"):
            cmd_channel_overhead(sizes, 100)


class TestAttackDrills:
    # Each drill's lines and stats at its default config and seed 7.
    DRILLS = {
        "replay": (
            ["captured envelopes re-sent", "state identical to attack-free run", "replay alerts raised",
             "one alert per replayed envelope"],
            {"captured": 12, "replayed": 12, "alerts": 12},
        ),
        "eavesdrop": (
            ["ciphertexts captured", "every offline open failed", "state identical to attack-free run"],
            {"captured": 12, "attempts": 12, "failures": 12},
        ),
        "insertion": (
            ["forged blocks sent", "honest chains byte-identical to baseline", "invalid-block alerts raised"],
            {"forged": 5, "alerts": 20},
        ),
        "dos": (
            ["flood calls sent", "denied calls charged until exhaustion", "further calls skipped for lack of funds"],
            {"flood_sent": 5, "balance": 100_000, "denied": 2, "skipped": 3, "expected": 2},
        ),
        "spoof": (
            ["spoofed envelopes sent", "every spoofed envelope rejected", "state identical to attack-free run"],
            {"spoof_sent": 10, "rejected": 10},
        ),
    }

    @pytest.mark.parametrize("kind", ["replay", "eavesdrop", "insertion", "dos", "spoof"])
    def test_every_drill_passes(self, kind, monkeypatch):
        from edgelinker.sim import Simulation

        runs = []  # the attack of each run, None for an attack-free baseline
        run = Simulation.run
        monkeypatch.setattr(Simulation, "run", lambda sim: runs.append(sim.config.attack) or run(sim))
        report = cmd_attack(kind)
        assert report.passed, report.lines
        checks, stats = self.DRILLS[kind]
        assert report.lines == [f"{kind}: PASS - {check}" for check in checks]
        assert report.stats == stats
        # Only the drills whose checks compare the attacked run with an attack-free one run both.
        assert runs == ([kind] if kind == "dos" else [None, kind])

    def test_dos_drain_count_matches_arithmetic(self):
        report = cmd_attack("dos")
        assert report.stats["denied"] == report.stats["balance"] // 48_182
        assert report.stats["skipped"] >= 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            cmd_attack("voodoo")

    def test_config_the_attack_cannot_carry_rejected_before_any_run(self, monkeypatch):
        from edgelinker import bench
        from edgelinker.sim import ConfigInvalid, ScenarioConfig

        runs = []
        monkeypatch.setattr(bench, "run_scenario", lambda config, seed: runs.append(config))
        with pytest.raises(ConfigInvalid, match="needs a workload"):
            cmd_attack("dos", ScenarioConfig(workload="none", duration_s=300))
        assert runs == []

    def test_an_eavesdrop_drill_whose_attacker_never_woke_fails(self):
        from edgelinker.sim import ScenarioConfig

        # The reads reach height 6, which stops the run, before the attacker's wake.
        cfg = ScenarioConfig(nodes=7, crashed=2, workload="read", tasks=40, stop_at_height=6)
        report = cmd_attack("eavesdrop", cfg)
        assert report.stats == {"captured": 51, "attempts": 0, "failures": 0}
        assert not report.passed
        assert "eavesdrop: FAIL - every offline open failed" in report.lines

    @pytest.mark.parametrize("stop_at_height", [None, 6], ids=["until_done", "stop_height"])
    def test_a_dos_drill_waits_for_flood_calls_the_reads_never_wait_for(self, stop_at_height):
        from edgelinker.sim import ScenarioConfig

        # The reads need no block and end before any block holds a flood call;
        # the run goes on until each call the entry node admitted is final.
        cfg = ScenarioConfig(nodes=7, crashed=2, workload="read", tasks=40, stop_at_height=stop_at_height)
        report = cmd_attack("dos", cfg)
        assert report.passed, report.lines
        assert report.stats == {"flood_sent": 5, "balance": 100_000, "denied": 2, "skipped": 3, "expected": 2}

    def test_insertion_drill_leaves_caller_config_unchanged(self):
        cfg = default_attack_config()
        before = copy.deepcopy(cfg)
        assert cmd_attack("insertion", cfg).passed
        assert cfg == before


class TestCli:
    def test_run_subcommand(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--nodes", "2",
                "--tasks", "10",
                "--reps", "1",
                "--workload", "write",
                "--channel", "secure",
                "--seed", "3",
                "--interval-ms", "200",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "results.csv").exists()

    def test_run_grid_defaults_are_the_run_plans(self, tmp_path, monkeypatch):
        from edgelinker import cli
        from edgelinker.bench import RunPlan

        plans = []
        monkeypatch.setattr(cli, "cmd_run", lambda plan, out: plans.append(plan) or out)
        assert main(["run", "--out", str(tmp_path)]) == 0
        assert plans == [RunPlan()]

    def test_env_seed_override(self, tmp_path, monkeypatch):
        # The seed has two sources: --seed wins over the config file's seed,
        # which wins over the default. The environment changes nothing.
        monkeypatch.setenv("EDGELINKER_SEED", "99")
        main(["run", "--nodes", "2", "--tasks", "10", "--reps", "1",
              "--interval-ms", "200", "--seed", "3", "--out", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["plan"]["seed"] == 3

        from edgelinker import bench, cli

        used = []
        monkeypatch.setattr(
            cli, "cmd_attack",
            lambda kind, config, seed: used.append(seed) or SimpleNamespace(lines=[], passed=True, stats={}),
        )
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"seed": 11}))
        main(["attack", "--kind", "replay", "--config", str(path), "--seed", "3"])
        main(["attack", "--kind", "replay", "--config", str(path)])
        main(["attack", "--kind", "replay"])
        assert used == [3, 11, bench.ATTACK_SEED]

    def test_run_with_zero_tasks_exits_2(self, tmp_path, capsys):
        code = main(["run", "--nodes", "2", "--tasks", "0", "--reps", "1", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "results.csv").exists()

    def test_run_with_the_mixed_workload_exits_2(self, tmp_path):
        # One grid row would average writes' finalization delays with reads' service delays.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "2", "--tasks", "10", "--reps", "1", "--workload", "mixed",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "results.csv").exists()

    def test_run_with_a_task_period_exits_2(self, tmp_path, capsys):
        # The task period is fixed; the flag is gone, so the parser refuses it.
        with pytest.raises(SystemExit) as exc:
            main(["run", "--nodes", "2", "--tasks", "10", "--reps", "1", "--task-period-us", "50",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--task-period-us" in capsys.readouterr().err
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize(
        "args", [["--samples", "50"], ["--sizes", ""], ["--sizes", "-5"]],
        ids=["too_few_samples", "no_sizes", "negative_size"],
    )
    def test_channel_overhead_bad_input_exits_2(self, tmp_path, capsys, args):
        assert main(["channel-overhead", *args, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_channel_overhead_subcommand(self, tmp_path, capsys):
        code = main(["channel-overhead", "--sizes", "64", "--samples", "100", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "overhead=" in out

    @pytest.mark.parametrize(
        "args",
        [["attack", "--kind", "spoof", "--config", "{missing}"], ["attack", "--kind", "spoof", "--config", "{dir}"],
         ["attack", "--kind", "spoof", "--out", "{file}"], ["run", "--nodes", "2", "--tasks", "10", "--out", "{file}"],
         ["channel-overhead", "--sizes", "64", "--samples", "100", "--out", "{file}"]],
        ids=["attack_config_missing", "attack_config_a_directory", "attack_out_a_file", "run_out_a_file",
             "channel_overhead_out_a_file"],
    )
    def test_bad_path_exits_2_before_any_drill(self, tmp_path, capsys, monkeypatch, args):
        from edgelinker import cli

        drills = []
        report = SimpleNamespace(lines=[], passed=True, stats={}, trace=None)
        monkeypatch.setattr(cli, "cmd_attack", lambda *drill: drills.append(drill) or report)
        (tmp_path / "file").write_text("")
        paths = {"missing": tmp_path / "no_such.json", "dir": tmp_path, "file": tmp_path / "file"}
        assert main([arg.format(**paths) for arg in args]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert drills == []

    def test_attack_subcommand_exit_codes(self, capsys):
        assert main(["attack", "--kind", "replay"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_attack_out_writes_trace_and_alerts(self, tmp_path):
        out = tmp_path / "attack"
        assert main(["attack", "--kind", "replay", "--out", str(out)]) == 0
        events = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
        assert any(e["kind"] == "attack_replay" for e in events)
        with (out / "alerts.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["kind"] for r in rows} == {"replay_detected"}
        assert all(len(r) == 4 for r in rows)

    def test_attack_with_config_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"nodes": 3, "block_interval_ms": 200, "writes": 4, "write_period_ms": 400}))
        assert main(["attack", "--kind", "replay", "--config", str(path)]) == 0

    @pytest.mark.parametrize(
        "kind,bad",
        [("replay", {"node": 7}), ("replay", {"nodes": 0}), ("replay", {"nodes": 7, "crashed": 1, "byzantine": 1}),
         ("replay", {"nodes": "x"}), ("replay", {"link": 5}), ("replay", {"block_interval_ms": 0}),
         ("replay", {"write_period_ms": -1000}), ("replay", {"workload": "none", "duration_s": 5}),
         ("replay", {"attack_params": {"gap_us": "x"}}), ("spoof", {"attack_params": {"start_us": "soon"}}),
         ("dos", {"attack_params": {"balance": -5}}), ("dos", {"attack_params": {"contract": "00"}}),
         ("replay", {"attack_params": {"count": 3}}), ("replay", {"stop_on_done": False}),
         ("replay", {"link": {"partitions": [["n0", "n9"]]}}), ("replay", {"link": {"partitions": [["n0", "patient9"]]}}),
         ("replay", {"link": {"partitions": [["n1", "n1"]]}})],
        ids=["unknown_key", "no_nodes", "crashed_and_byzantine", "nodes_not_an_int", "link_not_an_object",
             "zero_block_interval", "negative_write_period", "replay_without_a_workload",
             "replay_gap_not_an_int", "spoof_start_not_an_int", "dos_negative_balance", "dos_contract_from_json",
             "replay_param_it_never_reads", "stop_on_done_removed", "partition_with_a_node_it_lacks",
             "partition_with_a_device_it_lacks", "partition_of_an_endpoint_with_itself"],
    )
    def test_attack_with_bad_config_file_exits_2(self, tmp_path, capsys, kind, bad):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(bad))
        assert main(["attack", "--kind", kind, "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
