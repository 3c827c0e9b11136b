import csv
import dataclasses
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
from random import Random

import pytest
import requests

import spawned_services
from hbesso.cli import agent_main, bench_main, build_idp, build_sp, idp_main, sp_main
from hbesso.idp import IdpConfig
from hbesso.sp import SpConfig
from spawned_services import start_spawned_pair, write_workspace

REPO = pathlib.Path(__file__).resolve().parent.parent
CANONICAL = REPO / "scenarios" / "canonical.txt"
BUILD = {"idp": build_idp, "sp": build_sp}
MAIN = {"idp": idp_main, "sp": sp_main}


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["compare", "--reps", "2"], "repetitions must be at least 3"),
        (["throughput", "--megabytes", "0.5"], "megabytes must be at least 1"),
        (["compare", "--payload-bytes", "0"], "payload must be at least 1 byte"),
        (["throughput", "--megabytes", "inf"], "megabytes must be finite"),
        (["throughput", "--megabytes", "nan"], "megabytes must be finite"),
    ],
)
def test_bench_out_of_range_input_is_a_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        bench_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bench") and f"bench: error: {message}" in err


def test_build_services_from_config(tmp_path):
    paths = write_workspace(tmp_path, idp_port=18443, sp_port=18444)
    idp, idp_listen = build_idp(str(paths["idp"]))
    sp, sp_listen = build_sp(str(paths["sp"]))
    assert idp_listen == "127.0.0.1:18443"
    assert sp_listen == "127.0.0.1:18444"
    assert idp.config.entity_id == "idp.example"
    assert sp.config.federation_key_id in sp.key_store.key_ids()


def test_build_idp_reloads_persisted_directory(tmp_path):
    paths = write_workspace(tmp_path, idp_port=18445, sp_port=18446, kdf_iterations=2)
    idp, _ = build_idp(str(paths["idp"]))
    idp.register_user("nora", b"pin-n")
    reloaded, _ = build_idp(str(paths["idp"]))
    assert reloaded.directory.get("nora") is not None


@pytest.mark.parametrize("writer", ["tests", "perfbench"])
def test_every_written_config_key_reaches_the_service(tmp_path, monkeypatch, writer):
    if writer == "perfbench":
        spec = importlib.util.spec_from_file_location("perfbench_services", REPO / "perfbench" / "services.py")
        services = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, services)
        spec.loader.exec_module(services)
        ws = services.write_workspace(tmp_path / "ws", kdf_iterations=8, key_rng=Random(5))
        paths = {"idp": ws.path / "idp.json", "sp": ws.path / "sp.json"}
    else:
        paths = write_workspace(tmp_path, idp_port=18447, sp_port=18448)
    for role, path in paths.items():
        raw = json.loads(path.read_text())
        service, _ = BUILD[role](str(path))
        for f in dataclasses.fields(service.config):
            if f.name in raw and f.name != "directory_path":
                value = getattr(service.config, f.name)
                assert value == raw[f.name], (role, f.name)
                assert type(value) is type(f.default) or f.default is dataclasses.MISSING, (role, f.name)
        if "directory_path" in raw:
            assert service.config.directory_path == str(path.parent / raw["directory_path"])


DURATIONS = [
    ("idp", "assertion_lifetime"),
    ("idp", "challenge_expiry"),
    ("sp", "session_lifetime"),
    ("sp", "pending_expiry"),
    ("sp", "clock_skew"),
]


@pytest.mark.parametrize(
    "role,edit,message",
    [
        ("idp", {"kdf_iteration": 8}, "unknown config key(s): kdf_iteration"),
        ("sp", {"clock_skwe": 5, "acs": "x"}, "unknown config key(s): acs, clock_skwe"),
        ("idp", {"entity_id": None}, "missing config key(s): entity_id"),
        ("sp", {"key_store_path": None, "idp_url": None}, "missing config key(s): idp_url, key_store_path"),
        ("idp", {"kdf_iterations": "ten"}, "config key(s) of the wrong type: kdf_iterations"),
        ("idp", {"kdf_iterations": 8.9}, "config key(s) of the wrong type: kdf_iterations"),
        ("idp", {"kdf_iterations": True}, "config key(s) of the wrong type: kdf_iterations"),
        ("sp", {"clock_skew": False}, "config key(s) of the wrong type: clock_skew"),
        (
            "idp",
            {"federation_keys": ["sp.example"], "listen_address": 8443},
            "config key(s) of the wrong type: federation_keys, listen_address",
        ),
        ("idp", {"federation_keys": {"sp.example": 5}}, "config key(s) of the wrong type: federation_keys"),
        ("sp", {"key_store_path": 1}, "config key(s) of the wrong type: key_store_path"),
        ("idp", {"kdf_iterations": 0}, "kdf_iterations must be at least 1, got 0"),
        ("idp", {"assertion_lifetime": 0}, "assertion_lifetime must be at least 1, got 0.0"),
        ("idp", {"assertion_lifetime": 0.5}, "assertion_lifetime must be at least 1, got 0.5"),
        ("idp", {"challenge_expiry": -5}, "challenge_expiry must be positive, got -5.0"),
        ("idp", {"challenge_expiry": float("nan")}, "challenge_expiry must be positive, got nan"),
        ("sp", {"pending_expiry": -1}, "pending_expiry must be positive, got -1.0"),
        ("sp", {"session_lifetime": 0}, "session_lifetime must be positive, got 0.0"),
        ("sp", {"clock_skew": -30}, "clock_skew must not be negative, got -30.0"),
        ("idp", {"master_key_id": "k1"}, "key id 'k1' not in store"),
        ("sp", {"federation_key_id": "k1"}, "key id 'k1' not in store"),
    ] + [
        (role, {name: value}, f"{name} must be at most 31622400, got {value}")
        for role, name in DURATIONS
        for value in (float("inf"), 1e12)
    ],
    ids=[
        "idp-unknown", "sp-unknown", "idp-missing", "sp-missing", "idp-str-for-int", "idp-float-for-int",
        "idp-bool-for-int", "sp-bool-for-float", "idp-list-for-dict-int-for-str", "idp-int-in-dict",
        "sp-int-for-path", "idp-no-kdf", "idp-zero-lifetime", "idp-half-second-lifetime",
        "idp-negative-challenge-expiry", "idp-nan-challenge-expiry", "sp-negative-pending-expiry",
        "sp-zero-session-lifetime", "sp-negative-clock-skew", "idp-unresolved-master-key",
        "sp-unresolved-federation-key",
    ] + [f"{role}-{name}-{value}" for role, name in DURATIONS for value in ("inf", "1e12")],
)
def test_config_with_unknown_or_missing_keys_is_rejected(tmp_path, role, edit, message):
    path = write_workspace(tmp_path, idp_port=18449, sp_port=18450)[role]
    raw = json.loads(path.read_text())
    raw.update(edit)
    path.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    with pytest.raises(ValueError) as exc:
        BUILD[role](str(path))
    assert str(exc.value) == f"{path}: {message}"


def test_directory_path_in_a_missing_directory_is_refused_at_build(tmp_path):
    path = write_workspace(tmp_path, idp_port=18457, sp_port=18458)["idp"]
    raw = json.loads(path.read_text())
    path.write_text(json.dumps({**raw, "directory_path": "missing/idp-directory.tsv"}))
    with pytest.raises(ValueError) as exc:
        build_idp(str(path))
    directory = tmp_path / "missing" / "idp-directory.tsv"
    assert str(exc.value) == f"{path}: directory_path {directory}: its directory does not exist"


@pytest.mark.parametrize("role,document", [("idp", []), ("sp", "sp.example")], ids=["idp-list", "sp-string"])
def test_config_that_is_not_an_object_is_rejected(tmp_path, role, document):
    path = write_workspace(tmp_path, idp_port=18453, sp_port=18454)[role]
    path.write_text(json.dumps(document))
    with pytest.raises(ValueError) as exc:
        BUILD[role](str(path))
    assert str(exc.value) == f"{path}: config must be a JSON object, got {type(document).__name__}"


@pytest.mark.parametrize("role", ["idp", "sp"])
def test_config_that_is_not_json_is_rejected(tmp_path, role):
    path = write_workspace(tmp_path, idp_port=18455, sp_port=18456)[role]
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ValueError) as exc:
        BUILD[role](str(path))
    assert str(exc.value).startswith(f"{path}: not valid JSON: ")


def test_config_with_only_required_keys_takes_dataclass_defaults(tmp_path):
    write_workspace(tmp_path, idp_port=18451, sp_port=18452)
    required = {
        "idp": {"entity_id": "idp.example", "master_key_id": spawned_services.MASTER_KEY_ID},
        "sp": {
            "entity_id": "sp.example",
            "acs_url": "http://127.0.0.1:18452/acs",
            "idp_url": "http://127.0.0.1:18451",
            "federation_key_id": spawned_services.FED_KEY_ID,
        },
    }
    for role, config_cls in (("idp", IdpConfig), ("sp", SpConfig)):
        path = tmp_path / f"{role}-minimal.json"
        path.write_text(json.dumps({"key_store_path": "keys.tsv", **required[role]}))
        service, listen = BUILD[role](str(path))
        assert service.config == config_cls(**required[role])
        assert listen == service.config.listen_address


@pytest.mark.parametrize("role", ["idp", "sp"])
def test_serve_takes_no_seed(tmp_path, role, capsys):
    # the config is never read: argparse refuses the option first
    with pytest.raises(SystemExit) as exc:
        MAIN[role](["serve", "--config", str(tmp_path / "absent.json"), "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_importing_the_cli_leaves_out_the_agent_and_benchmarks():
    """The idp/sp processes import hbesso.cli; the agent's HTTP client and
    the benchmark module must stay out of them."""
    code = "import hbesso.cli, sys; print(sorted({'requests', 'hbesso.agent', 'hbesso.bench'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_leaves_out_the_stdlib_http_server_client_email_and_ssl():
    """The services read and write HTTP through hbesso.httpbase's own codec."""
    code = (
        "import hbesso.cli, sys\n"
        "print(sorted(m for m in sys.modules if m in ('http.server', 'http.client', 'ssl') or m.split('.')[0] == 'email'))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_services_serve_the_canonical_suite_without_numpy():
    """Every canonical flow's keystreams take the byte-sliced path, so a process
    running an IdP, an SP and the agent through the suite never imports numpy."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from live_services import start_pair\n"
        "from hbesso.agent import parse_suite, run_scenario\n"
        "pair = start_pair()\n"
        "with open(sys.argv[2], encoding='utf-8') as suite:\n"
        "    results = [run_scenario(s, pair.idp_url, pair.sp_url) for s in parse_suite(suite.read())]\n"
        "pair.stop()\n"
        "print(len(results), all(r.passed for r in results), 'numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "tests"), str(CANONICAL)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "6 True False"


def test_services_serve_the_canonical_suite_without_openssl():
    """The services draw ids from os.urandom and compare tags with the
    compare hmac wraps, so a process that imports hbesso.cli and runs an
    IdP, an SP and the agent through the suite loads none of OpenSSL's
    _hashlib, hashlib, hmac or secrets."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import hbesso.cli\n"
        "from live_services import start_pair\n"
        "from hbesso.agent import parse_suite, run_scenario\n"
        "pair = start_pair()\n"
        "with open(sys.argv[2], encoding='utf-8') as suite:\n"
        "    results = [run_scenario(s, pair.idp_url, pair.sp_url) for s in parse_suite(suite.read())]\n"
        "pair.stop()\n"
        "loaded = sorted(m for m in ('_hashlib', 'hashlib', 'hmac', 'secrets') if m in sys.modules)\n"
        "print(len(results), all(r.passed for r in results), loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "tests"), str(CANONICAL)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "6 True []"


def test_a_forged_long_assertion_is_refused_without_numpy():
    """The SP checks the tag under the two-block MAC key before it makes a
    pad, so a forged 26,000-octet ciphertext behind a real InResponseTo is
    refused bad-tag without a bulk keystream, and numpy stays unloaded."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import http.client, urllib.parse\n"
        "from conftest import FED_KEY_ID, IDP_ENTITY\n"
        "from live_services import start_pair\n"
        "from hbesso import saml\n"
        "from hbesso.keyexchange import SealedPayload\n"
        "pair = start_pair()\n"
        "conn = http.client.HTTPConnection('127.0.0.1', pair.sp_server.server_address[1], timeout=10)\n"
        "conn.request('GET', '/resource')\n"
        "gate = conn.getresponse(); gate.read()\n"
        "query = urllib.parse.parse_qs(urllib.parse.urlsplit(gate.getheader('Location')).query)\n"
        "request = saml.decode_message(query['SAMLRequest'][0], saml.AuthnRequest)\n"
        "forged = SealedPayload(nonce=bytes(12), ciphertext=bytes(26000), tag=bytes(16), key_id=FED_KEY_ID)\n"
        "response = saml.SsoResponse(request.id, IDP_ENTITY, forged)\n"
        "body = urllib.parse.urlencode({'SAMLResponse': saml.encode_message(response)})\n"
        "conn.request('POST', '/acs', body, {'Content-Type': 'application/x-www-form-urlencoded'})\n"
        "reply = conn.getresponse()\n"
        "print(len(body), reply.status, reply.read().decode(), 'numpy' in sys.modules)\n"
        "conn.close(); pair.stop()\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "tests")], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    size, status, reason, numpy_loaded = result.stdout.split()
    assert 40_000 < int(size) <= 64 * 1024
    assert (status, reason, numpy_loaded) == ("403", "bad-tag", "False")


def test_run_demo_passes_without_pythonpath(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), str(tmp_path / "demo")],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "6/6 scenarios passed" in result.stdout


def test_run_demo_refuses_a_workspace_that_is_not_empty(tmp_path):
    workdir = tmp_path / "demo"
    write_workspace(workdir, idp_port=18459, sp_port=18460)
    before = {p.name: p.read_bytes() for p in workdir.iterdir()}
    result = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_demo.py"), str(workdir)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == "" and result.stderr.count("\n") == 1 and str(workdir) in result.stderr
    assert {p.name: p.read_bytes() for p in workdir.iterdir()} == before


def test_agent_cli_missing_suite_is_a_suite_error(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    with pytest.raises(SystemExit) as exc:
        agent_main(["run", "--suite", str(missing), "--idp", "http://127.0.0.1:1", "--sp", "http://127.0.0.1:1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("suite error: ") and str(missing) in err


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
