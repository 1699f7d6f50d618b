"""The ``repro.cli serve`` subcommand, end to end over a real socket."""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def data_dir(serve_corpus, tmp_path_factory):
    from repro.corpus.sgml import write_sgml_files

    directory = tmp_path_factory.mktemp("serve-data")
    write_sgml_files(serve_corpus.documents, directory)
    return directory


def _start_serve(*serve_args):
    """Launch ``repro.cli serve --port 0``; returns (process, base URL)."""
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         *serve_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            line = process.stdout.readline()
            if not line and process.poll() is not None:
                raise RuntimeError("serve exited before binding")
            match = re.search(r"serving on (http://[\d.]+:\d+)", line)
            if match:
                return process, match.group(1)
        raise AssertionError("server never reported its address")
    except BaseException:
        process.kill()
        process.wait(timeout=30)
        raise


@pytest.fixture(scope="module")
def running_server(model_dir, data_dir):
    process, base_url = _start_serve(
        "--model", str(model_dir),
        "--model", f"candidate={model_dir}",
        "--data", str(data_dir),
        "--workers", "1",
    )
    try:
        yield base_url
    finally:
        process.terminate()
        process.wait(timeout=30)


def _call(base_url, method, path, payload=None):
    """(status, decoded JSON or text) of one request; errors included."""
    request = urllib.request.Request(
        f"{base_url}{path}",
        data=json.dumps(payload).encode("utf-8") if payload is not None
        else None,
        headers={"Content-Type": "application/json"},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as resp:
            status, raw = resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        status, raw = error.code, error.read().decode("utf-8")
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw


def test_serve_answers_healthz(running_server):
    with urllib.request.urlopen(f"{running_server}/healthz", timeout=30) as resp:
        payload = json.loads(resp.read())
    assert payload["status"] == "ok"


def test_serve_classifies_documents(running_server, serve_corpus, fitted_pipeline):
    docs = list(serve_corpus.test_documents)[:4]
    request = urllib.request.Request(
        f"{running_server}/classify",
        data=json.dumps({"documents": [
            {"id": doc.doc_id, "title": doc.title, "body": doc.body}
            for doc in docs
        ]}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as resp:
        payload = json.loads(resp.read())
    assert [r["topics"] for r in payload["results"]] == \
        fitted_pipeline.predict_documents(docs)


def test_serve_reports_metrics(running_server):
    with urllib.request.urlopen(f"{running_server}/metrics", timeout=30) as resp:
        body = resp.read().decode("utf-8")
    assert "service_request_seconds_count" in body
    assert "cache_hit_rate" in body


def test_serve_answers_every_route(running_server, serve_corpus):
    status, models = _call(running_server, "GET", "/models")
    assert status == 200
    assert [m["name"] for m in models["models"]][1:] == ["candidate"]
    status, health = _call(running_server, "GET", "/healthz")
    assert (status, health["status"]) == (200, "ok")
    status, metrics = _call(running_server, "GET", "/metrics")
    assert status == 200 and "gateway_requests_total" in metrics
    status, drift = _call(running_server, "GET", "/drift")
    assert (status, drift["enabled"]) == (200, False)
    doc = serve_corpus.test_for("grain")[0]
    status, trace = _call(running_server, "POST", "/track",
                          {"text": doc.text, "category": "grain"})
    assert (status, trace["category"]) == (200, "grain")
    status, reload = _call(running_server, "POST", "/reload", {})
    assert (status, reload["reloaded"]) == (200, False)

    status, _ = _call(running_server, "GET", "/rollout")
    assert status == 404  # no rollout yet
    status, report = _call(running_server, "POST", "/rollout",
                           {"candidate": "candidate"})
    assert (status, report["state"]) == (200, "shadow")
    status, report = _call(running_server, "GET", "/rollout")
    assert (status, report["candidate"]) == (200, "candidate")
    status, report = _call(running_server, "DELETE", "/rollout")
    assert (status, report["state"]) == (200, "aborted")

    # A known path with the wrong method is refused, not "not found".
    status, _ = _call(running_server, "GET", "/classify")
    assert status == 405


def _proc_stat(pid):
    """(state, parent pid, start time) from /proc, or None once gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = stat[stat.rindex(")") + 2:].split()
    return fields[0], int(fields[1]), fields[19]


def _children(pid):
    """(pid, start time) of every live child process of ``pid``."""
    children = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid and stat[0] != "Z":
                children.add((int(entry.name), stat[2]))
    return children


def _alive(child):
    pid, started = child
    stat = _proc_stat(pid)
    return stat is not None and stat[2] == started and stat[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                    reason="child processes are read from /proc")
def test_sigterm_shuts_down_the_worker_pool(model_dir, data_dir):
    """SIGTERM takes the Ctrl-C path: the gateway closes, the worker
    pool shuts down, and no worker outlives the server."""
    process, base_url = _start_serve(
        "--model", str(model_dir), "--data", str(data_dir), "--workers", "2",
    )
    children = set()
    try:
        # Workers fork on the first batch.
        status, _ = _call(base_url, "POST", "/classify",
                          {"documents": [{"text": "wheat grain tonnes"}]})
        assert status == 200
        children = _children(process.pid)
        assert len(children) >= 2
        process.terminate()
        returncode = process.wait(timeout=30)
        deadline = time.time() + 15
        while any(map(_alive, children)) and time.time() < deadline:
            time.sleep(0.05)
        assert not [child for child in children if _alive(child)]
        assert returncode == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
        for child in children:
            if _alive(child):
                os.kill(child[0], signal.SIGKILL)
