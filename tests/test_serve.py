"""Tests for the experiment service (repro.serve).

A real server on a real unix socket per test: the protocol frames, the
control ops, per-job cancellation from a second connection, a client
hanging up mid-stream, and the shutdown contract (socket unlinked).
"""

import json
import socket
import threading
import time

import pytest

from repro.serve import ExperimentServer, request, submit_and_stream

SMALL_JOB = {
    "kind": "population",
    "size": 60,
    "seed": 0,
    "telemetry_every": 20,
    "result_every": 10,
}

# big enough that it cannot finish before the test reacts mid-stream
SLOW_JOB = {"kind": "population", "size": 500_000, "seed": 0, "telemetry_every": 25}


@pytest.fixture
def server(tmp_path):
    srv = ExperimentServer(str(tmp_path / "serve.sock"))
    srv.start()
    try:
        yield srv
    finally:
        srv.shutdown()


def raw_connect(server):
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(10.0)
    conn.connect(server.socket_path)
    return conn


def send_line(conn, payload):
    conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))


def read_frame(reader):
    line = reader.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


# ----------------------------------------------------------------------
# control ops
# ----------------------------------------------------------------------
def test_ping_pong(server):
    response = request(server.socket_path, {"op": "ping"})
    assert response["type"] == "pong"
    assert isinstance(response["ts"], float)


def test_malformed_json_gets_an_error_frame_not_a_hangup(server):
    conn = raw_connect(server)
    try:
        conn.sendall(b"this is not json\n")
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        frame = read_frame(reader)
        assert frame["type"] == "error"
        assert "malformed" in frame["message"]
        # the connection survives the bad line
        send_line(conn, {"op": "ping"})
        assert read_frame(reader)["type"] == "pong"
    finally:
        conn.close()


@pytest.mark.parametrize(
    "payload",
    [[1, 2], "ping", 3, None, {"op": "submit", "job": [1]}, {"op": "submit", "job": "x"}],
)
def test_non_object_frames_get_an_error_frame_not_a_hangup(server, payload):
    conn = raw_connect(server)
    try:
        send_line(conn, payload)
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        frame = read_frame(reader)
        assert frame["type"] == "error"
        assert "must be a JSON object" in frame["message"]
        send_line(conn, {"op": "ping"})
        assert read_frame(reader)["type"] == "pong"
    finally:
        conn.close()


@pytest.mark.parametrize(
    "field, value",
    [
        ("size", "x"),
        ("size", -5),
        ("size", 0),
        ("size", True),
        ("size", None),
        ("seed", "0"),
        ("seed", 1.5),
        ("visits", 0),
        ("sessions", 0),
        ("sessions", "3"),
        ("window", 0),
        ("result_every", -1),
        ("telemetry_every", 2.0),
        ("mode", "quantum"),
        ("mode", 1),
    ],
)
def test_bad_population_specs_are_refused_before_acceptance(server, field, value):
    job = dict(SMALL_JOB, **{field: value})
    frames = list(submit_and_stream(server.socket_path, job, timeout=10.0))
    assert len(frames) == 1
    assert frames[0]["type"] == "error"
    assert frames[0]["field"] == field
    assert repr(field) in frames[0]["message"]
    # refused, not accepted-then-failed: no job was registered
    assert request(server.socket_path, {"op": "status"})["jobs"] == []


CAMPAIGN_JOB = {
    "kind": "campaign",
    "attack": "cve-2018-5092",
    "defense": "jskernel",
    "seed": 0,
    "budget": 1,
    "max_witnesses": 1,
    "telemetry_every": 1,
}


@pytest.mark.parametrize(
    "field, value",
    [
        ("attack", "no-such-attack"),
        ("defense", "no-such-defense"),
        ("strategy", "chaos"),
        ("seed", "0"),
        ("budget", 0),
        ("max_witnesses", "3"),
        ("telemetry_every", -1),
        ("parallel", 0),
        ("cache", 7),
    ],
)
def test_bad_campaign_specs_are_refused_before_acceptance(server, field, value):
    job = dict(CAMPAIGN_JOB, **{field: value})
    frames = list(submit_and_stream(server.socket_path, job, timeout=60.0))
    assert len(frames) == 1
    assert frames[0]["type"] == "error"
    assert frames[0]["field"] == field
    assert repr(field) in frames[0]["message"]
    assert request(server.socket_path, {"op": "status"})["jobs"] == []


def test_valid_campaign_spec_with_null_fields_runs_to_done(server):
    job = dict(CAMPAIGN_JOB, parallel=None, cache=None, strategy="jitter")
    frames = list(submit_and_stream(server.socket_path, job, timeout=60.0))
    assert frames[0]["type"] == "accepted"
    assert frames[-1]["type"] == "done"


def test_nullable_population_fields_still_mean_unset(server):
    job = dict(SMALL_JOB, sessions=None, window=None)
    frames = list(submit_and_stream(server.socket_path, job, timeout=60.0))
    assert frames[0]["type"] == "accepted"
    assert frames[-1]["type"] == "done"
    assert frames[-1]["report"]["pages"] == SMALL_JOB["size"]


def test_unknown_op_and_unknown_job_kind_are_reported(server):
    response = request(server.socket_path, {"op": "frobnicate"})
    assert response["type"] == "error" and "unknown op" in response["message"]
    frames = list(submit_and_stream(server.socket_path, {"kind": "nope"}, timeout=10.0))
    assert len(frames) == 1
    assert frames[0]["type"] == "error"
    assert "unknown job kind" in frames[0]["message"]


def test_cancel_of_an_unknown_job_is_an_error(server):
    response = request(server.socket_path, {"op": "cancel", "job_id": "job-99"})
    assert response["type"] == "error" and "job-99" in response["message"]


# ----------------------------------------------------------------------
# submit: the streamed frame contract
# ----------------------------------------------------------------------
def test_submit_streams_accepted_telemetry_and_done(server):
    frames = list(submit_and_stream(server.socket_path, SMALL_JOB, timeout=60.0))
    assert frames[0]["type"] == "accepted"
    job = frames[0]["job"]
    assert all(f["job"] == job and "ts" in f for f in frames)
    assert frames[-1]["type"] == "done"

    seqs = [f["seq"] for f in frames if f["type"] == "result"]
    assert seqs == sorted(seqs) and len(seqs) == len(set(seqs)) and seqs

    telemetry = [f for f in frames if f["type"] == "telemetry"]
    assert [f["done"] for f in telemetry] == [20, 40, 60]
    for frame in telemetry:
        assert frame["errors"] == 0
        assert frame["computed"] + frame["cached"] == frame["done"]
        assert "p50" in frame["quantiles"]

    report = frames[-1]["report"]
    assert report["pages"] == 60
    assert report["computed"] == 60
    assert sum(c["count"] for c in report["configs"].values()) == 60

    status = request(server.socket_path, {"op": "status"})
    assert status["jobs"] == [
        {"id": job, "kind": "population", "status": "done", "results": 60, "errors": 0}
    ]


def test_jobs_get_fresh_ids(server):
    first = next(iter(submit_and_stream(server.socket_path, SMALL_JOB, timeout=60.0)))
    second = next(iter(submit_and_stream(server.socket_path, SMALL_JOB, timeout=60.0)))
    assert first["job"] != second["job"]


# ----------------------------------------------------------------------
# cancellation
# ----------------------------------------------------------------------
def test_cancel_from_a_second_connection_stops_the_job(server):
    conn = raw_connect(server)
    try:
        send_line(conn, {"op": "submit", "job": SLOW_JOB})
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        accepted = read_frame(reader)
        assert accepted["type"] == "accepted"
        job = accepted["job"]
        # wait until the job demonstrably makes progress...
        assert read_frame(reader)["type"] == "telemetry"
        # ...then cancel it from a different connection
        response = request(server.socket_path, {"op": "cancel", "job_id": job})
        assert response == {"type": "cancelling", "job": job, "ts": response["ts"]}
        deadline = time.time() + 30.0
        while True:
            frame = read_frame(reader)
            if frame["type"] != "telemetry":
                break
            assert time.time() < deadline, "job never acknowledged the cancel"
        assert frame["type"] == "cancelled"
        assert 0 < frame["results"] < SLOW_JOB["size"]
    finally:
        conn.close()

    status = request(server.socket_path, {"op": "status"})
    assert status["jobs"][0]["status"] == "cancelled"


def test_client_disconnect_mid_job_cancels_it_and_keeps_serving(server):
    conn = raw_connect(server)
    send_line(conn, {"op": "submit", "job": SLOW_JOB})
    reader = conn.makefile("r", encoding="utf-8", newline="\n")
    accepted = read_frame(reader)
    assert accepted["type"] == "accepted"
    assert read_frame(reader)["type"] == "telemetry"
    # hang up abruptly mid-stream
    reader.close()
    conn.close()

    # the server notices on its next emit, cancels the job, keeps serving
    deadline = time.time() + 30.0
    while time.time() < deadline:
        status = request(server.socket_path, {"op": "status"})
        assert status["type"] == "status"
        if status["jobs"][0]["status"] == "cancelled":
            break
        time.sleep(0.1)
    assert status["jobs"][0]["status"] == "cancelled"
    # and a fresh job still runs to completion
    frames = list(submit_and_stream(server.socket_path, SMALL_JOB, timeout=60.0))
    assert frames[-1]["type"] == "done"


def test_closing_the_client_generator_cancels_server_side(server):
    stream = submit_and_stream(server.socket_path, SLOW_JOB, timeout=30.0)
    assert next(stream)["type"] == "accepted"
    assert next(stream)["type"] == "telemetry"
    stream.close()  # closes the connection -> server cancels the job
    deadline = time.time() + 30.0
    while time.time() < deadline:
        status = request(server.socket_path, {"op": "status"})
        if status["jobs"][0]["status"] == "cancelled":
            return
        time.sleep(0.1)
    pytest.fail("job kept running after the client went away")


# ----------------------------------------------------------------------
# shutdown
# ----------------------------------------------------------------------
def test_shutdown_says_bye_and_unlinks_the_socket(tmp_path):
    srv = ExperimentServer(str(tmp_path / "bye.sock"))
    srv.start()
    response = request(srv.socket_path, {"op": "shutdown"})
    assert response["type"] == "bye"
    deadline = time.time() + 10.0
    import os

    while os.path.exists(srv.socket_path) and time.time() < deadline:
        time.sleep(0.05)
    assert not os.path.exists(srv.socket_path)
    srv.shutdown()  # idempotent


def test_shutdown_cancels_a_running_job(tmp_path):
    srv = ExperimentServer(str(tmp_path / "stop.sock"))
    srv.start()
    try:
        frames = []

        def run():
            for frame in submit_and_stream(srv.socket_path, SLOW_JOB, timeout=30.0):
                frames.append(frame)

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        deadline = time.time() + 30.0
        while not frames and time.time() < deadline:
            time.sleep(0.05)
        assert frames and frames[0]["type"] == "accepted"
        srv.shutdown()
        worker.join(timeout=30.0)
        assert not worker.is_alive()
        assert frames[-1]["type"] in ("cancelled", "error")
    finally:
        srv.shutdown()
