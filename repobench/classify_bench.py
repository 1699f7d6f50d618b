"""The ``classify_bulk`` and ``classify_single`` workloads.

Each pass starts ``repro.cli serve`` (default flags: threaded front end,
2 workers, batch 16, 20 ms deadline, 4096-entry LRU) through
``serve_launcher.py`` on an ephemeral port, several times for set-up,
keeps the last server for the timed window, stops the whole process tree
and checks that nothing it started is left.  Both loops are closed: each
connection sends its next request when the previous answer is in.

* ``classify_bulk``: two keep-alive connections, each request 16 fresh
  documents that never repeat within a run, so every LRU lookup misses.
* ``classify_single``: one connection, one document per request drawn
  from a 32-document hot set sent once before timing, so lookups hit.

Every answer -- set-up probes included -- is checked against
:mod:`oracle` after the server has stopped.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle
import spans as spans_module
from support import (ROOT, derive_seed, descendants, kill_identities,
                     median, process_identity, quantile, shm_segments,
                     still_alive, vm_hwm_mb)

LAUNCHER = Path(__file__).resolve().parent / "serve_launcher.py"
READY = re.compile(r"^serving on http://[^:]+:(\d+)")
SETUP_LAUNCHES = 3
#: Seconds of untimed classify_bulk traffic before the window.
WARMUP_S = 1.0
#: classify_bulk's fresh documents last this many docs/s over warm-up and
#: window (today's rate is ~66); a faster program ends its window early
#: rather than repeat a document, which also bounds the oracle's work.
BULK_DOCS_PER_S = 150
#: docs_per_s is the median over slices of the window this long.
SLICE_S = 5.0
BULK_CLIENTS = 2
BULK_BATCH = 16
SINGLE_HOT = 32
#: macro_f1 is measured on the first this-many fresh documents of the
#: traffic (plus the hot set): a set fixed by the seed, whatever the
#: throughput.  classify_single sends them after its window, untimed.
QUALITY_DOCS = 256
#: Ids far above any corpus id, so no request id names a corpus document.
FIRST_ID = 10_000_000
#: A window with fewer requests than this beyond its p90 is flagged.
MIN_TAIL = 10


# ----------------------------------------------------------------------
# the server process tree
# ----------------------------------------------------------------------
class Server:
    """One ``repro.cli serve`` process tree, ready once its port is read."""

    def __init__(self, model_dir: Path, data_dir: Path, log: Path,
                 trace_dir: Optional[Path] = None) -> None:
        command = [sys.executable, str(LAUNCHER)]
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            command += ["--trace-dir", str(trace_dir)]
        command += ["--model", f"bench={model_dir}", "--data", str(data_dir),
                    "--port", "0"]
        self.port: Optional[int] = None
        self._ready = threading.Event()
        self._log = open(log, "a")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdout=subprocess.PIPE, stderr=self._log,
            text=True, start_new_session=True,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        self.identities = {process_identity(self.process.pid)} - {None}
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            match = READY.match(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._ready.set()
            self._log.write(line)
        self._ready.set()  # EOF: the server is gone

    def wait_ready(self, timeout: float = 60.0) -> int:
        if not self._ready.wait(timeout) or self.port is None:
            raise RuntimeError("server printed no 'serving on' line")
        return self.port

    def track(self) -> None:
        """Remember the tree's current processes for the leftover check."""
        for pid in descendants(self.process.pid):
            identity = process_identity(pid)
            if identity is not None:
                self.identities.add(identity)

    def peak_rss_mb(self) -> float:
        """Summed VmHWM of the server and every process under it."""
        pids = [self.process.pid] + descendants(self.process.pid)
        return sum(vm_hwm_mb(pid) for pid in pids)

    def stop(self, timeout: float = 20.0) -> List[str]:
        """Ctrl-C the server, wait for the tree; returns leftover processes
        (killed before returning)."""
        self.track()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        self._reader.join(timeout=5.0)
        self._log.close()
        # Helpers of the tree (the multiprocessing resource tracker) end
        # once their parent has; give them a moment before judging.
        grace = time.perf_counter() + 5.0
        while still_alive(self.identities) and time.perf_counter() < grace:
            time.sleep(0.05)
        leftovers = still_alive(self.identities)
        kill_identities(leftovers)
        return leftovers


#: Servers a SIGTERM must take down with the benchmark.
LIVE: List[Server] = []


def stop_all(*_signal_args) -> None:
    for server in list(LIVE):
        server.stop(timeout=5.0)
    if _signal_args:
        sys.exit(143)


# ----------------------------------------------------------------------
# the client side
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP connection; records raw answers."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, body: bytes) -> Tuple[float, float, int, bytes]:
        start = time.perf_counter()
        try:
            self.http.request("POST", "/classify", body,
                              {"Content-Type": "application/json"})
            response = self.http.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.http.close()
            status, data = 0, str(error).encode()
        return start, time.perf_counter(), status, data

    def metrics(self) -> Dict[str, float]:
        self.http.request("GET", "/metrics")
        text = self.http.getresponse().read().decode()
        values = {}
        for line in text.splitlines():
            name, _, value = line.rpartition(" ")
            if name:
                values[name] = float(value)
        return values

    def close(self) -> None:
        self.http.close()


def _payload(doc, doc_id: int) -> dict:
    return {"id": doc_id, "title": doc.title, "body": doc.body}


class Exchange:
    """One request: what was sent and what came back."""

    __slots__ = ("ids", "docs", "start", "end", "status", "body")

    def __init__(self, ids, docs, answer) -> None:
        self.ids = ids
        self.docs = docs
        self.start, self.end, self.status, self.body = answer


def _body(docs, ids) -> bytes:
    return json.dumps({"documents": [_payload(doc, doc_id) for doc, doc_id
                                     in zip(docs, ids)]}).encode()


class Traffic:
    """The documents a run sends, all derived from the workload seed."""

    def __init__(self, workload: str, seed: int, seconds: float) -> None:
        from repro.corpus.synthetic import SyntheticReutersGenerator

        self.workload = workload
        self._ids = itertools.count(FIRST_ID)
        docs = []
        seen = set()
        needed = SINGLE_HOT + SETUP_LAUNCHES + QUALITY_DOCS
        if workload == "classify_bulk":
            needed += int(BULK_DOCS_PER_S * (WARMUP_S + seconds))
        part = 0
        while len(docs) < needed:
            for doc in SyntheticReutersGenerator(
                seed=derive_seed(seed, "traffic", part), scale=0.3
            ).generate():
                if (doc.title, doc.body) not in seen:
                    seen.add((doc.title, doc.body))
                    docs.append(doc)
            part += 1
        random.Random(derive_seed(seed, "order")).shuffle(docs)
        self.quality = docs[:SINGLE_HOT + QUALITY_DOCS]
        self._fresh = iter(docs)
        self.hot = [next(self._fresh) for _ in range(SINGLE_HOT)]
        self._pick = random.Random(derive_seed(seed, "pick"))
        self._lock = threading.Lock()

    def request(self, docs=None, fresh: int = 0):
        """``(ids, docs, body)`` for ``docs``, ``fresh`` unsent documents,
        or the workload's next request; None once fresh ones run out."""
        with self._lock:
            if docs is None and (fresh or self.workload == "classify_bulk"):
                docs = list(itertools.islice(self._fresh, fresh or BULK_BATCH))
                if len(docs) < (fresh or BULK_BATCH):
                    return None
            elif docs is None:
                docs = [self._pick.choice(self.hot)]
            ids = [next(self._ids) for _ in docs]
        return ids, docs, _body(docs, ids)


def _drive(connection: Connection, traffic: Traffic, deadline: float,
           log: List[Exchange]) -> None:
    while time.perf_counter() < deadline:
        request = traffic.request()
        if request is None:
            return
        ids, docs, body = request
        log.append(Exchange(ids, docs, connection.post(body)))


def _drive_all(clients: List[Connection], traffic: Traffic,
               seconds: float) -> List[Exchange]:
    """Closed-loop traffic on every connection for ``seconds``."""
    deadline = time.perf_counter() + seconds
    logs: List[List[Exchange]] = [[] for _ in clients]
    threads = [threading.Thread(target=_drive,
                                args=(client, traffic, deadline, log))
               for client, log in zip(clients, logs)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [exchange for log in logs for exchange in log]


# ----------------------------------------------------------------------
# one pass: set-up launches, timed window, teardown, leftover check
# ----------------------------------------------------------------------
def _launch(model_dir, data_dir, run_dir: Path, index: int, traced: bool,
            traffic: Traffic, checked: List[Exchange]):
    server = Server(model_dir, data_dir, run_dir / f"server-{index}.log",
                    run_dir / f"trace-{index}" if traced else None)
    LIVE.append(server)
    port = server.wait_ready()
    connection = Connection(port)
    ids, docs, body = traffic.request(fresh=1)
    exchange = Exchange(ids, docs, connection.post(body))
    checked.append(exchange)
    server.track()
    return server, connection, exchange.end - server.started


def run_pass(workload: str, seed: int, seconds: float, traced: bool,
             model_dir: Path, data_dir: Path, run_dir: Path) -> dict:
    traffic = Traffic(workload, seed, seconds)
    checked: List[Exchange] = []
    shm_before = shm_segments()
    setup_times = []
    leftovers: List[str] = []
    for index in range(SETUP_LAUNCHES):
        server, connection, elapsed = _launch(
            model_dir, data_dir, run_dir, index, traced, traffic, checked)
        setup_times.append(elapsed)
        if index < SETUP_LAUNCHES - 1:
            connection.close()
            leftovers += server.stop()
            LIVE.remove(server)

    clients = [connection] + [Connection(server.port)
                              for _ in range(BULK_CLIENTS - 1)] \
        if workload == "classify_bulk" else [connection]
    warm: List[Exchange] = []
    if workload == "classify_single":
        for doc in traffic.hot:
            ids, docs, body = traffic.request([doc])
            warm.append(Exchange(ids, docs, connection.post(body)))
    else:
        warm += _drive_all(clients, traffic, WARMUP_S)
    before = connection.metrics()
    window_start = time.perf_counter()
    timed = _drive_all(clients, traffic, seconds)
    window_end = max(exchange.end for exchange in timed)
    after = connection.metrics()
    if workload == "classify_single":
        # The window answers only the hot set; these give macro_f1 a base.
        for _ in range(QUALITY_DOCS // BULK_BATCH):
            ids, docs, body = traffic.request(fresh=BULK_BATCH)
            warm.append(Exchange(ids, docs, connection.post(body)))
    server.track()
    peak_rss = server.peak_rss_mb()
    for client in clients:
        client.close()
    leftovers += server.stop()
    LIVE.remove(server)
    leftover_shm = sorted(shm_segments() - shm_before)
    return {
        "setup_times": setup_times,
        "quality": traffic.quality,
        "checked": checked + warm + timed,
        "timed": timed,
        "window": (window_start, window_end),
        "counters": (before, after),
        "peak_rss_mb": peak_rss,
        "leftovers": leftovers,
        "leftover_shm": leftover_shm,
        "trace_dirs": [run_dir / f"trace-{index}"
                       for index in range(SETUP_LAUNCHES)] if traced else [],
    }


# ----------------------------------------------------------------------
# checking answers
# ----------------------------------------------------------------------
_PIPELINE = None


def check_answers(exchanges: List[Exchange], quality_docs, model_dir: Path,
                  data_dir: Path) -> Tuple[Dict[int, bool], float]:
    """``(verdict, macro_f1)``: id(exchange) -> whether every result in its
    answer is correct, and the macro-F1 of the served topics of the
    ``quality_docs`` answered, against the documents' labels."""
    global _PIPELINE
    from repro import load_corpus
    from repro.persistence import load_pipeline

    if _PIPELINE is None:
        _PIPELINE = load_pipeline(model_dir, load_corpus(data_dir))
    unique: Dict[Tuple[str, str], int] = {}
    docs = []
    for exchange in exchanges:
        for doc in exchange.docs:
            key = (doc.title, doc.body)
            if key not in unique:
                unique[key] = len(docs)
                docs.append(doc)
    # Forked after every client and reader thread has finished.
    values = oracle.reference_values_parallel(_PIPELINE, docs)
    verdict = {}
    served: Dict[int, list] = {}
    for exchange in exchanges:
        matched = _matched_results(exchange, unique, values)
        verdict[id(exchange)] = matched is not None
        served.update(matched or {})
    answered = [unique[(doc.title, doc.body)] for doc in quality_docs
                if unique.get((doc.title, doc.body)) in served]
    quality = oracle.macro_f1(list(_PIPELINE.suite.classifiers),
                              [docs[index] for index in answered],
                              [served[index] for index in answered])
    return verdict, quality


def _matched_results(exchange: Exchange, unique, values):
    """Reference index -> served topics when every result of the answer
    equals the reference; None otherwise (malformed answers included)."""
    if exchange.status != 200:
        return None
    try:
        results = json.loads(exchange.body)["results"]
        if len(results) != len(exchange.docs):
            return None
        matched = {}
        for doc, doc_id, result in zip(exchange.docs, exchange.ids, results):
            index = unique[(doc.title, doc.body)]
            if result["doc_id"] != doc_id or not oracle.response_matches(
                    _PIPELINE, values, index, result):
                return None
            matched[index] = result["topics"]
        return matched
    except (ValueError, KeyError, TypeError, AttributeError):
        return None


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(result: dict, verdict: Dict[int, bool],
               quality: float) -> Dict[str, float]:
    """The pass's end-to-end metrics; see README.md for each definition."""
    timed = result["timed"]
    window_start, window_end = result["window"]
    cap = (window_end - window_start) * 1000.0  # failed requests miss any limit
    latencies = [(exchange.end - exchange.start) * 1000.0
                 if verdict[id(exchange)] else cap for exchange in timed]
    # Throughput per 5 s slice of the window, each request's documents
    # spread over its lifetime (the last slice runs to the last answer);
    # the median over slices damps host stalls.
    n_slices = max(1, int((window_end - window_start) // SLICE_S))
    edges = [window_start + SLICE_S * index for index in range(n_slices)]
    edges.append(window_end)
    slice_docs = [0.0] * n_slices
    for exchange in timed:
        if not verdict[id(exchange)]:
            continue
        lifetime = max(exchange.end - exchange.start, 1e-9)
        for index in range(n_slices):
            overlap = (min(exchange.end, edges[index + 1])
                       - max(exchange.start, edges[index]))
            if overlap > 0:
                slice_docs[index] += len(exchange.docs) * overlap / lifetime
    slice_rates = [docs / (edges[index + 1] - edges[index])
                   for index, docs in enumerate(slice_docs)]
    answered = [(exchange.end - exchange.start) * 1000.0
              for exchange in timed if verdict[id(exchange)]]
    checked = result["checked"]
    return {
        "setup_s": median(result["setup_times"]),
        "fit_s": (sum(answered) / len(answered) if answered else cap) / 1000.0,
        "macro_f1": quality,
        "docs_per_s": median(slice_rates),
        "p50_ms": quantile(latencies, 0.5),
        "p90_ms": quantile(latencies, 0.9),
        "ok_share": sum(verdict[id(e)] for e in checked) / len(checked),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _durations(spans, name, window=None) -> List[float]:
    return [span[4] - span[3] for span in spans if span[2] == name and
            (window is None or window[0] <= span[3] <= window[1])]


def serve_layers(result: dict, e2e: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of one traced classify pass."""
    window = result["window"]
    load = spans_module.load_spans
    setup = {"corpus.load": [], "persistence.load": [],
             "serve.workers.spawn": []}
    for trace_dir in result["trace_dirs"]:
        launch = load(trace_dir / "server.json")
        for name in setup:
            setup[name].append(sum(_durations(launch, name)))
    timed_dir = result["trace_dirs"][-1]
    server = load(timed_dir / "server.json")
    own = spans_module.self_times(server)

    service = {span[6][0]: span[4] - span[3] for span in server
               if span[2] == "serve.service"}
    submitted = {span[6]: span[3] for span in server
                 if span[2] == "serve.batcher.submit"}
    handles = [span for span in server if span[2] == "serve.batcher.handle"
               and window[0] <= span[3] <= window[1]]
    dispatched = {doc_id: span[3] for span in handles for doc_id in span[6]}
    children: Dict[int, List] = {}
    for span in server:
        children.setdefault(span[1], []).append(span)
    encode_parts = {"preprocessing.tokenize", "serve.cache.get",
                    "serve.cache.put", "encoding.encode"}
    batch_encode = [sum(child[4] - child[3] for child in children.get(h[0], [])
                        if child[2] in encode_parts) for h in handles]

    frontend, service_ms, waits = [], [], []
    for exchange in result["timed"]:
        served = service.get(exchange.ids[0])
        if served is None:
            continue
        frontend.append((exchange.end - exchange.start - served) * 1000.0)
        service_ms.append(served * 1000.0)
        waits += [(dispatched[doc_id] - submitted[doc_id]) * 1000.0
                  for doc_id in exchange.ids
                  if doc_id in dispatched and doc_id in submitted]
    n_docs = sum(len(exchange.docs) for exchange in result["timed"])

    def own_total(name):
        return sum(own[span[0]] for span in server if span[2] == name
                   and window[0] <= span[3] <= window[1])

    engine_calls = single_calls = programs = 0
    for path in timed_dir.glob("worker-*.json"):
        worker = load(path)
        recurrent_parents = {span[1] for span in worker
                             if span[2] == "gp.recurrent_outputs"}
        for span in worker:
            if span[2] == "gp.engine" and window[0] <= span[3] <= window[1]:
                engine_calls += 1
                programs += span[6]
                single_calls += span[0] in recurrent_parents

    before, after = result["counters"]

    def delta(name):
        return after.get(name, 0.0) - before.get(name, 0.0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    hits, misses = delta("cache_hits"), delta("cache_misses")
    fanout = _durations(server, "serve.workers.fanout", window)
    handoff = _durations(server, "serve.workers.handoff", window)
    layers = {
        "corpus.load_s": median(setup["corpus.load"]),
        "persistence.load_s": median(setup["persistence.load"]),
        "serve.workers.spawn_s": median(setup["serve.workers.spawn"]),
        "serve.frontend_p50_ms": quantile(frontend, 0.5),
        "serve.service_p50_ms": quantile(service_ms, 0.5),
        "serve.service_p90_ms": quantile(service_ms, 0.9),
        "serve.batcher.wait_p50_ms": quantile(waits, 0.5),
        "serve.batcher.wait_p90_ms": quantile(waits, 0.9),
        "serve.batcher.batch_size_mean": ratio(
            delta("batcher_batch_size_sum"), delta("batcher_batch_size_count")),
        "serve.encode_p50_ms": quantile(batch_encode, 0.5) * 1000.0,
        "serve.cache.hit_ratio": ratio(hits, hits + misses),
        "serve.cache.lookups": hits + misses,
        "serve.cache.evictions": delta("cache_evictions"),
        "preprocessing.tokenize_ms_per_doc":
            ratio(own_total("preprocessing.tokenize"), n_docs) * 1000.0,
        "encoding.encode_ms_per_doc":
            ratio(own_total("encoding.encode"), n_docs) * 1000.0,
        "serve.workers.fanout_p50_ms": quantile(fanout, 0.5) * 1000.0,
        "serve.workers.handoff_ms_per_job":
            ratio(sum(handoff), len(handoff)) * 1000.0,
        "serve.workers.jobs_per_batch": ratio(
            delta("pool_jobs_total"), delta("batcher_batches_total")),
        "serve.workers.job_p50_ms": quantile(
            _durations(server, "serve.workers.job", window), 0.5) * 1000.0,
        "serve.workers.shm_sequences": delta("pool_shm_sequences_total"),
        "serve.workers.pickled_sequences": delta("pool_pickled_sequences_total"),
        "serve.http_errors": delta("http_errors_total"),
        "serve.admission.shed": delta("admission_shed_rate_total")
        + delta("admission_shed_queue_total"),
        "gp.programs_per_call": ratio(delta("engine_programs_evaluated_total"),
                                      delta("engine_batches_total")),
        "gp.single_program_share": ratio(single_calls, engine_calls),
        "gp.instructions": delta("engine_instructions_executed_total"),
        "gp.dedup_hits": delta("engine_dedup_hits_total"),
    }
    layers["trace.unattributed.setup_s"] = e2e["setup_s"] - (
        layers["corpus.load_s"] + layers["persistence.load_s"]
        + layers["serve.workers.spawn_s"])
    layers["trace.unattributed.p50_ms"] = e2e["p50_ms"] - (
        layers["serve.frontend_p50_ms"] + layers["serve.batcher.wait_p50_ms"]
        + layers["serve.encode_p50_ms"] + layers["serve.workers.fanout_p50_ms"])
    return layers


def run(workload: str, seed: int, seconds: float, traced: bool,
        run_dir: Path, model_dir: Path, data_dir: Path) -> dict:
    """One run against the served model: an untraced pass, and with
    ``traced`` a traced one after it."""
    began = time.perf_counter()
    passes = [("plain", False)] + ([("traced", True)] if traced else [])
    outcome = {"attempted": 0, "failed": 0, "problems": [], "warnings": []}
    for label, with_spans in passes:
        pass_dir = run_dir / label
        pass_dir.mkdir(parents=True)
        result = run_pass(workload, seed, seconds, with_spans,
                          model_dir, data_dir, pass_dir)
        checking = time.perf_counter()
        verdict, quality = check_answers(result["checked"],
                                         result["quality"], model_dir,
                                         data_dir)
        outcome[f"{label}_check_s"] = round(time.perf_counter() - checking, 2)
        e2e = end_to_end(result, verdict, quality)
        outcome["attempted"] += len(result["checked"])
        outcome["failed"] += sum(not ok for ok in verdict.values())
        if result["leftovers"]:
            outcome["problems"].append(
                f"{label}: processes left running: {result['leftovers']}")
        if result["leftover_shm"]:
            outcome["problems"].append(
                f"{label}: shared memory left: {result['leftover_shm']}")
        outcome[label] = e2e
        outcome[f"{label}_requests"] = len(result["timed"])
        tail = sum((exchange.end - exchange.start) * 1000.0 > e2e["p90_ms"]
                   for exchange in result["timed"])
        outcome[f"{label}_beyond_p90"] = tail
        if tail < MIN_TAIL:
            outcome["warnings"].append(
                f"{label}: {tail} requests beyond p90, fewer than {MIN_TAIL}")
        if with_spans:
            outcome["layers"] = serve_layers(result, e2e)
    outcome["run_s"] = round(time.perf_counter() - began, 2)
    return outcome
