"""Campaign engine on the chaos axis: grid sweeps, JSON reports,
deterministic replay of a seeded violation, and shrinking a failing cell
to its minimal config."""

import json

from repro.check.campaign import (
    CHAOS,
    CampaignReport,
    CellSpec,
    grid_specs,
    quick_specs,
    replay_cell,
    run_campaign,
    run_cell,
    shrink_cell,
)

# A deliberately broken stack: fast-retransmit on the FIRST duplicate
# ACK (conformant value is 3).  With duplicated ACKs on the wire this
# retransmits prematurely, and the retx-justified checker must fire.
# Verified to produce violations on every seed 1-7; seed 1 gives 5.
SABOTAGED = CellSpec(
    topology="loopback",
    organization="userlib",
    seed=1,
    drop_rate=0.05,
    duplicate_rate=0.2,
    transfers=2,
    payload_bytes=16_384,
    deadline=60.0,
    dup_ack_threshold=1,
)


def test_quick_campaign_passes_clean():
    report = run_campaign(CHAOS, quick_specs(seed=1))
    assert report.cells
    assert report.ok, report.summary()
    for cell in report.cells:
        assert cell.facts["completed_transfers"] == cell.facts["total_transfers"]


def test_full_grid_shape_covers_both_topologies_and_orgs():
    specs = grid_specs(seed=1)
    combos = {(s.topology, s.organization) for s in specs}
    assert combos == {
        ("loopback", "userlib"),
        ("loopback", "ultrix"),
        ("dumbbell", "userlib"),
        ("dumbbell", "ultrix"),
    }
    # At least a 3x3 (drop x corrupt) grid per topology/organization.
    rates = {(s.drop_rate, s.corrupt_rate) for s in specs}
    assert len(rates) >= 9
    # Every cell gets its own seed so failures name a reproducible run.
    assert len({s.seed for s in specs}) == len(specs)


def test_grid_cc_axis_multiplies_and_preserves_seeds():
    base = grid_specs(seed=1)
    multi = grid_specs(seed=1, ccs=("reno", "cubic", "bbr"))
    assert len(multi) == 3 * len(base)
    # The reno block is identical to the pre-axis grid: every recorded
    # replay token (and the golden wire digests) stays valid.
    assert multi[: len(base)] == base
    assert {s.cc for s in multi} == {"reno", "cubic", "bbr"}
    assert len({s.seed for s in multi}) == len(multi)


def test_cli_cc_flag_parses_lists_and_all():
    from repro.check.__main__ import _parse_ccs

    assert _parse_ccs("all") == ("reno", "cubic", "bbr")
    assert _parse_ccs("cubic") == ("cubic",)
    assert _parse_ccs("reno, bbr") == ("reno", "bbr")


def test_cell_spec_round_trips_through_json():
    spec = SABOTAGED
    data = json.loads(json.dumps(spec.as_dict()))
    assert CellSpec.from_dict(data) == spec
    # Unknown keys (from a newer report format) are ignored.
    data["future_field"] = 42
    assert CellSpec.from_dict(data) == spec


def test_sabotaged_stack_is_caught():
    result = run_cell(SABOTAGED)
    assert not result.ok
    assert all(
        v.invariant == "retx-justified" for v in result.violations
    )


def test_seeded_violation_replays_deterministically(tmp_path):
    first = run_cell(SABOTAGED)
    assert first.violations
    report = CampaignReport("chaos", [first])
    path = tmp_path / "report.json"
    report.save(path)

    loaded = json.loads(path.read_text())
    replayed = replay_cell(CHAOS, loaded["cells"][0])
    assert replayed.as_dict() == loaded["cells"][0]


def test_report_records_failing_cells(tmp_path):
    clean = run_cell(CellSpec(transfers=1, payload_bytes=4096))
    bad = run_cell(SABOTAGED)
    report = CampaignReport("chaos", [clean, bad])
    assert not report.ok
    assert report.failing_cells == [bad]
    data = report.as_dict()
    assert data["axis"] == "chaos" and not data["ok"]
    assert data["total_cells"] == 2
    assert data["failing_cells"] == 1
    assert data["total_violations"] == len(bad.violations)
    assert "1 failing" in report.summary()


def test_shrink_finds_smaller_failing_config():
    shrunk = shrink_cell(CHAOS, SABOTAGED)
    assert shrunk.violations  # The minimal spec still fails...
    assert shrunk.minimal.payload_bytes <= SABOTAGED.payload_bytes
    rate_budget = (
        shrunk.minimal.drop_rate
        + shrunk.minimal.corrupt_rate
        + shrunk.minimal.duplicate_rate
    )
    assert rate_budget < (
        SABOTAGED.drop_rate
        + SABOTAGED.corrupt_rate
        + SABOTAGED.duplicate_rate
    )
    assert shrunk.steps  # ...and the search trail is recorded...
    assert shrunk.trace_excerpt  # ...with the wire trace at the failure.


def test_cli_run_quick_and_replay(tmp_path, capsys):
    from repro.check.__main__ import main

    out = tmp_path / "report.json"
    assert main(["run", "--axis", "chaos", "--quick", "--out", str(out)]) == 0
    assert out.exists()
    captured = capsys.readouterr().out
    assert "Conformance invariants" in captured

    assert main(["replay", str(out), "--cell", "0"]) == 0
    # Replay compares the whole cell, not the violation count: a clean
    # cell whose recorded counts were edited is a mismatch.
    report = json.loads(out.read_text())
    cell = report["cells"][0]
    cell["completed_transfers"] = 99
    cell["checked"] = {name: n + 1000 for name, n in cell["checked"].items()}
    out.write_text(json.dumps(report))
    assert main(["replay", str(out), "--cell", "0"]) == 2
