import csv
import io
import pathlib

import pytest
import requests

from hbesso.cli import agent_main, bench_main, build_idp, build_sp
from spawned_services import start_spawned_pair, write_workspace

CANONICAL = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "canonical.txt"


def test_bench_throughput_csv(capsys):
    bench_main(
        [
            "throughput",
            "--key-size",
            "128",
            "--megabytes",
            "1",
            "--reps",
            "3",
            "--format",
            "csv",
            "--seed",
            "9",
        ]
    )
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "key_bits"
    assert len(rows) == 2
    assert rows[1][0] == "128"


def test_bench_throughput_default_covers_all_sizes(capsys):
    bench_main(["throughput", "--megabytes", "1", "--reps", "3", "--format", "csv", "--seed", "1"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [r[0] for r in rows[1:]] == ["128", "192", "256"]


def test_bench_compare_text(capsys):
    bench_main(["compare", "--payload-bytes", "256", "--reps", "3", "--seed", "2"])
    out = capsys.readouterr().out
    assert "cipher only (ms)" in out
    assert out.count("\n") >= 5


def test_build_services_from_config(tmp_path, monkeypatch):
    paths = write_workspace(tmp_path, idp_port=18443, sp_port=18444)
    idp, idp_listen = build_idp(str(paths["idp"]))
    sp, sp_listen = build_sp(str(paths["sp"]))
    assert idp_listen == "127.0.0.1:18443"
    assert sp_listen == "127.0.0.1:18444"
    assert idp.config.entity_id == "idp.example"
    assert sp.config.federation_key_id in sp.key_store.key_ids()
    monkeypatch.setenv("IDP_LISTEN", "127.0.0.1:9999")
    _, overridden = build_idp(str(paths["idp"]))
    assert overridden == "127.0.0.1:9999"


def test_build_idp_reloads_persisted_directory(tmp_path):
    paths = write_workspace(tmp_path, idp_port=18445, sp_port=18446, kdf_iterations=2)
    idp, _ = build_idp(str(paths["idp"]))
    idp.register_user("nora", b"pin-n")
    reloaded, _ = build_idp(str(paths["idp"]))
    assert reloaded.directory.get("nora") is not None


def test_agent_cli_rejects_bad_suite(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("scenario s\nfrobnicate\nend\n")
    with pytest.raises(SystemExit) as exc:
        agent_main(
            ["run", "--suite", str(bad), "--idp", "http://127.0.0.1:1", "--sp", "http://127.0.0.1:1"]
        )
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def spawned(tmp_path_factory):
    pair = start_spawned_pair(tmp_path_factory.mktemp("cli-services"))
    yield pair
    pair.stop()


def test_spawned_services_respond(spawned):
    challenge = requests.get(f"{spawned.idp_url}/challenge", params={"user": "x"}, timeout=5)
    assert challenge.status_code == 200
    gate = requests.get(f"{spawned.sp_url}/resource", allow_redirects=False, timeout=5)
    assert gate.status_code == 302


def test_agent_cli_runs_canonical_suite_against_spawned_services(spawned, capsys):
    with pytest.raises(SystemExit) as exc:
        agent_main(
            [
                "run",
                "--suite",
                str(CANONICAL),
                "--idp",
                spawned.idp_url,
                "--sp",
                spawned.sp_url,
            ]
        )
    out = capsys.readouterr().out
    assert exc.value.code == 0, out
    assert "6/6 scenarios passed" in out


def test_agent_cli_nonzero_on_failed_expectation(spawned, tmp_path, capsys):
    suite = tmp_path / "fail.txt"
    suite.write_text("scenario f\nregister pat pin-p-1\nregister pat pin-p-1\nend\n")
    with pytest.raises(SystemExit) as exc:
        agent_main(
            ["run", "--suite", str(suite), "--idp", spawned.idp_url, "--sp", spawned.sp_url]
        )
    assert exc.value.code == 1
    assert "duplicate-user" in capsys.readouterr().out
