"""The two obs command lines, run the way a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _run(args: list, cwd: Path) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == "", done.stderr
    return done.stdout


def test_netstat_prints_the_sections_its_flags_choose(tmp_path):
    """``-W error::RuntimeWarning``: ``repro`` must not import
    ``repro.netstat`` before runpy executes it as ``__main__``."""
    cmd = ["-W", "error::RuntimeWarning", "-m", "repro.netstat"]
    out = _run([*cmd, "--spans", "--profile", "--hist"], tmp_path)
    for heading in ("Packet spans", "self(ms)", "Latency histograms"):
        assert heading in out
    assert "tcp.output->tcp.input" in out
    assert "tcp.rtt" in out
    plain = _run([*cmd, "--profile"], tmp_path)
    assert "self(ms)" in plain
    assert "Packet spans" not in plain and "Latency histograms" not in plain


def test_netstat_json_has_every_section(tmp_path):
    cmd = ["-W", "error::RuntimeWarning", "-m", "repro.netstat", "--json"]
    doc = json.loads(_run(cmd, tmp_path))
    assert set(doc) >= {
        "connections", "channels", "demux", "fastpath", "copy", "links",
        "switch_ports", "tenants", "engine", "spans", "profile", "histograms",
    }
    assert doc["spans"]["traces"] and doc["spans"]["stats"]["minted"] > 0
    assert {row["site"] for row in doc["profile"]} >= {"tcp.output", "netio.deliver"}
    assert "delivery.latency" in doc["histograms"]


def test_obstool_writes_its_exports_where_told(tmp_path):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    outdir = tmp_path / "out"
    out = _run(
        [str(ROOT / "tools" / "obstool.py"), "--pairs", "2", "--bytes", "20000",
         "--drop", "0.02", "--outdir", str(outdir), "--pcap", str(tmp_path / "t.pcap")],
        cwd,
    )
    assert "dumbbell pairs=2" in out
    assert "self(ms)" in out and "tcp.rtt" in out
    assert "time-series:" in out and "pcap:" in out
    assert sorted(p.name for p in outdir.iterdir()) == [
        "obs_timeseries.csv", "obs_timeseries.json",
    ]
    assert list(cwd.iterdir()) == []
    assert (tmp_path / "t.pcap").stat().st_size > 24
