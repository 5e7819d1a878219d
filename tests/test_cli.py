"""CLI reports against golden files, config loading and config exit codes.

Refresh the golden reports only with a stated reason::

    PYTHONPATH=src python tests/test_cli.py
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from hbmsort import cli
from hbmsort.config import _SECTIONS, ConfigError, Reference, load_config

GOLDEN = Path(__file__).parent / "golden"

#: Modelled reports pinned byte for byte; regenerate only with a stated reason.
GOLDEN_COMMANDS = {
    "model.json": ["model"],
    "sort_dry_100003.json": ["sort", "--dry-run", "--records", "100003"],
    "sort_dry_4194304.json": ["sort", "--dry-run", "--records", "4194304"],
    "sort_dry_536870912.json": ["sort", "--dry-run", "--records", "536870912"],
    "sweep.json": ["sweep", "--sizes", "32M,128M,256M,512M,2G,4G"],
    "sweep_default.json": ["sweep"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_report_matches_golden(name, tmp_path, capsys):
    report = tmp_path / name
    assert cli.main(GOLDEN_COMMANDS[name] + ["--report", str(report)]) == cli.EXIT_OK
    assert json.loads(report.read_text()) == json.loads((GOLDEN / name).read_text())


def test_default_sweep_extends_the_pinned_sweep():
    rows = {r["bytes"]: r for r in json.loads((GOLDEN / "sweep_default.json").read_text())["rows"]}
    for row in json.loads((GOLDEN / "sweep.json").read_text())["rows"]:
        assert rows[row["bytes"]] == row


def _write(tmp_path, text):
    path = tmp_path / "hbmsort.ini"
    path.write_text(text)
    return str(path)


BAD_CONFIGS = {
    "non-monotone-bandwidth": "[bandwidth]\n4x4,4096 = 0.9\n",
    "non-numeric-bandwidth": "[bandwidth]\n4x4,4096 = abc\n",
    "non-square-pattern": "[bandwidth]\n4x3,4096 = 0.9\n",
    "zero-bandwidth-pattern": "[bandwidth]\n0x0,0 = 0.5\n",
    "negative-bandwidth-burst": "[bandwidth]\n1x1,-64 = 0.3\n",
    "no-4x-composition": "[sort]\nphase2_leaves = 10\n",
    "three-fold-composition": "[sort]\nphase2_leaves = 48\nphase2_rate = 24\n",
    "two-fold-composition": "[sort]\nphase2_leaves = 32\nphase2_rate = 16\n",
    "leaves-and-rate-ratios-differ": "[sort]\nphase2_leaves = 128\n",
    "one-leaf-tree": "[sort]\nphase1_leaves = 1\nphase2_leaves = 4\n",
    "non-numeric-int": "[sort]\nphase1_rate = abc\n",
    "zero-trees": "[sort]\nparallel_trees = 0\n",
    "too-many-trees": "[sort]\nparallel_trees = 32\n",
    "trees-not-dividing-wide-leaves": "[sort]\nparallel_trees = 12\n",
    "zero-channel-bandwidth": "[hbm]\nchannel_bandwidth = 0\n",
    "infinite-channel-bandwidth": "[hbm]\nchannel_bandwidth = inf\n",
    "nan-channel-bandwidth": "[hbm]\nchannel_bandwidth = nan\n",
    "zero-clock": "[sort]\nclock_hz = 0\n",
    "nan-clock": "[sort]\nclock_hz = nan\n",
    "infinite-clock": "[sort]\nclock_hz = inf\n",
    "phase1-burst-not-in-profile": "[sort]\nphase1_burst = 3000\n",
    "phase2-burst-not-in-profile": "[sort]\nphase2_burst = 3000\n",
    "zero-channel-capacity": "[hbm]\nchannel_capacity = 0\n",
    "negative-lut-per-comparator": "[resource]\nlut_per_comparator = -500\n",
    "zero-lut-per-comparator": "[resource]\nlut_per_comparator = 0\n",
    "negative-axi-converter-luts": "[resource]\naxi_converter_luts = -1\n",
    "negative-axi-converter-ffs": "[resource]\naxi_converter_ffs = -1\n",
    "lut-buffer-fraction-above-one": "[resource]\nlut_buffer_fraction = 7\n",
    "negative-lut-buffer-fraction": "[resource]\nlut_buffer_fraction = -0.5\n",
    "zero-reference-phase1-gbps": "[reference]\nphase1_gbps = 0\n",
    "nan-reference-phase2-gbps": "[reference]\nphase2_gbps = nan\n",
    "infinite-reference-phase1-gbps": "[reference]\nphase1_gbps = inf\n",
    "negative-reference-passes": "[reference]\nphase1_passes = -3\n",
    "removed-single-tree-leaves-key": "[reference]\nsingle_tree_leaves = 256\n",
    "removed-base-comparators-key": "[resource]\nbase_comparators = 3\n",
    "removed-tree-resources-key": "[floorplan]\ntree_resources = 28788\n",
    "unknown-section": "[sorting]\nrecords = 5\n",
    "unknown-key": "[sort]\nleaves = 16\n",
    "no-section-header": "records = 5\n",
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_exits_with_usage_status(text, tmp_path, capsys):
    argv = ["sort", "--dry-run", "--records", "1000", "--config", _write(tmp_path, text)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_model_exits_with_usage_status(text, tmp_path, capsys):
    assert cli.main(["model", "--config", _write(tmp_path, text)]) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_sweep_exits_with_usage_status(text, tmp_path, capsys):
    assert cli.main(["sweep", "--sizes", "32M", "--config", _write(tmp_path, text)]) == cli.EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("key,pattern", [("phase1_burst", "1x1"), ("phase2_burst", "4x4")])
def test_burst_missing_from_profile_is_named(key, pattern, tmp_path, capsys):
    argv = ["sort", "--dry-run", "--records", "1000", "--config", _write(tmp_path, f"[sort]\n{key} = 3000\n")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"[sort] {key} = 3000: no efficiency entry for pattern {pattern} at 3000 B" in capsys.readouterr().err


@pytest.mark.parametrize("argv,text,prefix", [
    (["model"], "[sort]\nparallel_trees = 8\n", "error: "),
    (["sort", "--dry-run", "--records", "2000000000"], None, "error: "),
    (["sweep", "--sizes", "64G"], None, "error: 68719476736 B: "),
], ids=["model-8-trees", "sort-dry-run-2g-records", "sweep-64g"])
def test_over_capacity_exits_with_data_status(argv, text, prefix, tmp_path, capsys):
    config = ["--config", _write(tmp_path, text)] if text else []
    assert cli.main(argv + config) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize("records", [0, -3])
def test_model_of_no_records_exits_with_usage_status(records, tmp_path, capsys):
    """The sorter's config is checked before the plan uses the count
    (``[sort] records`` cannot join BAD_CONFIGS: ``--records 1000`` would
    override it in the sort variant)."""
    argv = ["model", "--config", _write(tmp_path, f"[sort]\nrecords = {records}\n")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "config error: [sort] records must be positive\n"


def test_floorplan_places_trees_of_the_resource_model_cost(tmp_path, capsys):
    """The floorplan places trees of ``resource_tree``'s LUT count, so a
    dearer comparator places fewer trees: 41,544 LUTs each at 200 per
    comparator, against 28,776 at the default 116."""
    report = tmp_path / "model.json"
    argv = ["model", "--report", str(report),
            "--config", _write(tmp_path, "[resource]\nlut_per_comparator = 200\n")]
    assert cli.main(argv) == cli.EXIT_OK
    got = json.loads(report.read_text())
    assert got["resources"]["tree_phase1_only"]["luts"] == 41544
    assert got["floorplan"] == {"die1_trees": 5, "die2_trees": 4, "objective": 9}


def test_floorplan_places_no_more_trees_than_the_sorter_has(tmp_path, capsys):
    """Dies with room for thousands of trees and no crossing limit place
    the sorter's 16 trees, all on die 1."""
    report = tmp_path / "model.json"
    text = "[floorplan]\ndie1_available = 100000000\ndie2_available = 100000000\naxi_width = 0\n"
    argv = ["model", "--report", str(report), "--config", _write(tmp_path, text)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(report.read_text())["floorplan"] == {"die1_trees": 16, "die2_trees": 0, "objective": 16}
    assert "floorplan: 16 trees on die 1, 0 on die 2" in capsys.readouterr().out


def _model_beside_dry_run(tmp_path, capsys, text, records):
    """``model``'s report and stdout for config TEXT, then ``sort --dry-run
    --records RECORDS``'s on the same config."""
    config = ["--config", _write(tmp_path, text)]
    out = []
    for argv in (["model"], ["sort", "--dry-run", "--records", str(records)]):
        report = tmp_path / "report.json"
        assert cli.main(argv + config + ["--report", str(report)]) == cli.EXIT_OK
        out.append((json.loads(report.read_text()), capsys.readouterr().out))
    return out


@pytest.mark.parametrize("records", [1, 5])
def test_model_of_fewer_records_than_trees(records, tmp_path, capsys):
    (model, _), (dry, _) = _model_beside_dry_run(
        tmp_path, capsys, f"[sort]\nrecords = {records}\n", records)
    assert len(model["timing"]["phase1"]["passes"]) == 1
    assert model["timing"] == dry["timing"]


def test_composition_error_names_the_four_fold_rule(tmp_path, capsys):
    assert cli.main(["model", "--config", _write(tmp_path, BAD_CONFIGS["three-fold-composition"])]) == cli.EXIT_USAGE
    assert "(24, 48) tree is not a 4-fold composition of phase one's (8, 16) tree" in capsys.readouterr().err


def test_model_reports_the_dry_run_timing_of_the_default_sort(tmp_path, capsys):
    report = tmp_path / "model.json"
    assert cli.main(["model", "--report", str(report)]) == cli.EXIT_OK
    got = json.loads(report.read_text())
    assert got["timing"] == json.loads((GOLDEN / "sort_dry_536870912.json").read_text())["timing"]
    assert got["phase1_planned_gbps"] == got["timing"]["phase1"]["gbytes_per_s"]


def test_model_reports_the_dry_run_timing_of_a_configured_sort(tmp_path, capsys):
    """Same timing block and the same printed timing lines, on 8 trees."""
    (model, model_out), (dry, dry_out) = _model_beside_dry_run(
        tmp_path, capsys, "[sort]\nparallel_trees = 8\nrecords = 4194304\n", 4194304)
    assert model["timing"] == dry["timing"]
    assert model["phase1_planned_gbps"] == model["timing"]["phase1"]["gbytes_per_s"]
    timing_lines = [line for line in dry_out.splitlines()
                    if line.startswith(("phase 1:", "phase 2:", "overall:", "HBM traffic:"))]
    assert len(timing_lines) == 4
    assert set(timing_lines) <= set(model_out.splitlines())


def test_model_reports_and_costs_the_planned_bursts(tmp_path, capsys):
    """A configured phase-two burst is the one the report prints and the one
    its reused tree is costed at: 2048 B, 1024 LUTs per leaf buffer."""
    report = tmp_path / "model.json"
    argv = ["model", "--report", str(report), "--config", _write(tmp_path, "[sort]\nphase2_burst = 2048\n")]
    assert cli.main(argv) == cli.EXIT_OK
    got = json.loads(report.read_text())
    assert got["bursts"] == {"phase1_bytes": 1024, "phase2_bytes": 2048,
                             "phase1_buffer_luts": 512, "phase2_buffer_luts": 1024}
    assert got["resources"]["tree_reused"]["buffer_luts"] == 12 * 1024  # 12 of 16 leaf buffers in LUTs
    assert "burst sizes: phase 1 1024 B, phase 2 2048 B" in capsys.readouterr().out


def test_removed_reference_key_is_named(tmp_path, capsys):
    argv = ["model", "--config", _write(tmp_path, "[reference]\nsingle_tree_leaves = 256\n")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == \
        "config error: unknown key 'single_tree_leaves' in section [reference]\n"


#: Sizes whose tuned pass merges only 2 runs per group.
@pytest.mark.parametrize("argv", [
    ["sweep"],
    ["sort", "--dry-run", "--records", "8388608"],
    ["sort", "--dry-run", "--records", "134217728"],
], ids=["sweep-default-sizes", "sort-dry-run-64mb", "sort-dry-run-1gb"])
def test_two_run_tuned_passes_model(argv, capsys):
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("records", [4194304, 33554432])
def test_eight_trees_feed_every_wide_tree_leaf(records, tmp_path, capsys):
    report = tmp_path / "report.json"
    argv = ["sort", "--dry-run", "--records", str(records), "--report", str(report),
            "--config", _write(tmp_path, "[sort]\nparallel_trees = 8\n")]
    assert cli.main(argv) == cli.EXIT_OK
    plan = json.loads(report.read_text())["plan"]
    assert plan["phase2_feeds"] == 64
    assert plan["channel_records"] == plan["padded_records"] // 8


def test_gen_sort_validate_round_trip(tmp_path, capsys):
    data, out = str(tmp_path / "in.bin"), str(tmp_path / "out.bin")
    assert cli.main(["gen", data, "--records", "4096", "--seed", "3"]) == cli.EXIT_OK
    assert cli.main(["sort", data, "--out", out, "--threads", "1"]) == cli.EXIT_OK
    assert cli.main(["validate", out]) == cli.EXIT_OK


def test_sort_output_does_not_depend_on_threads(tmp_path, capsys):
    data = str(tmp_path / "in.bin")
    argv = ["gen", data, "--records", "100003", "--distribution", "few"]
    assert cli.main(argv) == cli.EXIT_OK
    outs = []
    for threads in range(1, 5):
        outs.append(tmp_path / f"out{threads}.bin")
        argv = ["sort", data, "--out", str(outs[-1]), "--threads", str(threads)]
        assert cli.main(argv) == cli.EXIT_OK
    assert len({out.read_bytes() for out in outs}) == 1


def test_validate_unsorted_reports_first_violation(tmp_path, capsys):
    data, report = str(tmp_path / "in.bin"), tmp_path / "validate.json"
    assert cli.main(["gen", data, "--records", "4096"]) == cli.EXIT_OK
    assert cli.main(["validate", data, "--report", str(report)]) == cli.EXIT_VALIDATION
    assert json.loads(report.read_text())["validation"]["first_violation"] is not None


def test_gen_to_unwritable_path_exits_with_data_status(tmp_path, capsys):
    out = str(tmp_path / "no-such-dir" / "in.bin")
    assert cli.main(["gen", out, "--records", "16"]) == cli.EXIT_DATA
    assert "cannot write" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["model", "--report", "{bad}"],
    ["sort", "{data}", "--report", "{bad}"],
    ["sort", "{data}", "--out", "{bad}"],
    ["sweep", "--sizes", "32M", "--report", "{bad}"],
    ["validate", "{data}", "--report", "{bad}"],
], ids=["model-report", "sort-report", "sort-out", "sweep-report", "validate-report"])
def test_unwritable_output_exits_with_data_status(argv, tmp_path, capsys):
    data, bad = str(tmp_path / "in.bin"), str(tmp_path / "no-such-dir" / "x")
    assert cli.main(["gen", data, "--records", "4096", "--seed", "3"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main([a.format(data=data, bad=bad) for a in argv]) == cli.EXIT_DATA
    assert f"error: cannot write {bad}: " in capsys.readouterr().err


def _status(argv):
    """Exit status of ``hbmsort ARGV``, whether returned or raised by argparse."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def dataset_100003(tmp_path):
    path = str(tmp_path / "in.bin")
    assert cli.main(["gen", path, "--records", "100003", "--seed", "5"]) == cli.EXIT_OK
    return path


@pytest.mark.parametrize("argv,bad", [
    (["sort", "{data}", "--records", "5"], "--records 5"),
    (["sweep", "--sizes", "32M,,64M"], "''"),
    (["sweep", "--sizes", "abc"], "'abc'"),
    (["sweep", "--sizes", "infM"], "'infM'"),
    (["gen", "{out}", "--records", "0"], "got 0"),
    (["sort", "{data}", "--threads", "0"], "got 0"),
    (["sort", "{data}", "--threads", "-4"], "got -4"),
    (["sweep", "--sizes", "12"], "'12'"),
    (["sweep", "--sizes", "0"], "'0'"),
    (["sweep", "--sizes=-8"], "'-8'"),
    (["sort", "--dry-run", "--records", "0"], "--records must be at least 1, got 0"),
    (["sort", "--dry-run", "--records=-5"], "--records must be at least 1, got -5"),
    (["gen", "{out}", "--records", "4294967296"], "keys 1..4294967296 exceed"),
    (["gen", "{out}", "--records", "10", "--seed", "-1"], "error: seed must be non-negative, got -1"),
    (["sort", "--dry-run", "--mode", "functional", "--records", "1000"],
     "--dry-run models timing only; it cannot run --mode functional"),
    (["sort", "--dry-run", "--records", "1000", "--out", "{out}"], "it cannot take --out"),
    (["sort", "{data}", "--dry-run", "--records", "5"], "it cannot take the input"),
], ids=["sort-records-mismatch", "sweep-empty-size", "sweep-non-numeric-size",
        "sweep-infinite-size", "gen-zero-records", "sort-zero-threads",
        "sort-negative-threads", "sweep-size-not-whole-records", "sweep-zero-size",
        "sweep-negative-size", "sort-zero-records", "sort-negative-records",
        "gen-records-over-key-range", "gen-negative-seed",
        "sort-dry-run-functional", "sort-dry-run-out", "sort-dry-run-input"])
def test_usage_error_exits_with_usage_status(argv, bad, dataset_100003, tmp_path, capsys):
    argv = [a.format(data=dataset_100003, out=tmp_path / "out.bin") for a in argv]
    assert _status(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "error:" in err and bad in err
    assert not (tmp_path / "out.bin").exists()


@pytest.mark.parametrize("name,prefix", [
    ("empty.bin", "error: "), ("missing.bin", "error: [Errno "), (".", "error: [Errno "),
], ids=["empty", "missing", "directory"])
@pytest.mark.parametrize("command", ["sort", "validate"])
def test_empty_dataset_exits_with_data_status(command, name, prefix, tmp_path, capsys):
    (tmp_path / "empty.bin").write_bytes(b"")
    assert cli.main([command, str(tmp_path / name)]) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(prefix)


def test_sort_cycles_reports_the_dry_run_timing(dataset_100003, tmp_path, capsys):
    """The model times a pass from its run lengths alone, never from the
    keys, so a real run reports the dry run's plan and timing.  Timing real
    passes from their keys (ROADMAP item 1, step c) will change this on purpose."""
    report = tmp_path / "cycles.json"
    argv = ["sort", dataset_100003, "--mode", "cycles", "--report", str(report)]
    assert cli.main(argv) == cli.EXIT_OK
    got = json.loads(report.read_text())
    dry = json.loads((GOLDEN / "sort_dry_100003.json").read_text())
    assert (got["plan"], got["timing"]) == (dry["plan"], dry["timing"])
    assert cli.main(["sort", dataset_100003, "--report", str(report)]) == cli.EXIT_OK
    assert json.loads(report.read_text())["timing"] is None


#: One non-default value per settable key: (raw text, value it must load as).
ROUND_TRIP = {
    "sort": {
        "records": ("4096", 4096), "parallel_trees": ("8", 8),
        "phase1_leaves": ("32", 32), "phase1_rate": ("4", 4),
        "phase2_leaves": ("128", 128), "phase2_rate": ("16", 16),
        "phase1_burst": ("2048", 2048), "phase2_burst": ("2048", 2048),
        "clock_hz": ("3e8", 3e8),
    },
    "hbm": {
        "channel_bandwidth": ("1e10", 1e10), "channel_capacity": ("1048576", 1 << 20),
    },
    "resource": {
        "lut_per_comparator": ("100", 100),
        "axi_converter_luts": ("4000", 4000), "axi_converter_ffs": ("5000", 5000),
        "lut_buffer_fraction": ("0.5", 0.5),
    },
    "floorplan": {
        "die1_available": ("200000", 200000),
        "die2_available": ("150000", 150000), "axi_width": ("1000", 1000),
        "crossing_budget": ("9000", 9000),
    },
    "reference": {
        "phase1_gbps": ("20.5", 20.5), "phase2_gbps": ("30", 30.0),
        "phase1_passes": ("5", 5),
    },
}


def test_round_trip_covers_every_key():
    assert {s: set(keys) for s, keys in ROUND_TRIP.items()} == \
        {s: {f.name for f in fields(cls)} for s, (_, cls) in _SECTIONS.items()}


def test_every_key_loads_to_its_value(tmp_path):
    text = "".join(
        f"[{section}]\n" + "".join(f"{k} = {raw}\n" for k, (raw, _) in keys.items())
        for section, keys in ROUND_TRIP.items()
    ) + "[bandwidth]\n4x4,4096 = 0.97\n"
    app = load_config(_write(tmp_path, text))
    loaded = {
        "sort": app.sort_config(), "hbm": app.topo, "resource": app.resource,
        "floorplan": app.floorplan, "reference": app.reference,
    }
    for section, keys in ROUND_TRIP.items():
        for key, (_, want) in keys.items():
            assert getattr(loaded[section], key) == want, (section, key)
    assert app.profile.efficiency(4, 4096) == 0.97


@pytest.mark.parametrize("text", ["[sorting]\nrecords = 5\n", "[hbm]\nlanes = 4\n"])
def test_unknown_section_or_key_raises(text, tmp_path):
    with pytest.raises(ConfigError, match="unknown"):
        load_config(_write(tmp_path, text))


@pytest.mark.parametrize("value", [True, 6.0])
def test_reference_passes_must_be_an_integer(value):
    with pytest.raises(ValueError, match="phase1_passes must be an integer"):
        Reference(phase1_passes=value)


def test_missing_file_raises(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.ini"))


if __name__ == "__main__":
    for name, argv in GOLDEN_COMMANDS.items():
        cli.main(argv + ["--report", str(GOLDEN / name)])
