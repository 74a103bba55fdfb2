"""Keep-alive transport: many requests over one connection.

Every other serve test opens a fresh connection per request, which hides
how a response leaves the server.  Sent as two writes (headers, then
body) with Nagle's algorithm on, the body of each keep-alive response
would wait for the client's delayed ACK, ~40 ms per request on Linux.
These tests hold one connection open the way a real client (and
perfbench's load generator) does.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
from pathlib import Path
from time import perf_counter

from tests.serve.conftest import N_FEATURES, golden_loaded

GOLDEN_DIR = Path(__file__).parent / "golden"

#: well above one round trip of the golden model (~1-3 ms), well below
#: the ~40 ms delayed-ACK stall a split write on a Nagle socket costs
MEDIAN_RTT_BOUND_S = 0.020


def _read_response(stream) -> tuple[bytes, dict[str, str], bytes]:
    """One HTTP/1.1 response off a raw byte stream, by Content-Length."""
    status_line = stream.readline()
    headers: dict[str, str] = {}
    while True:
        line = stream.readline()
        if line in (b"\r\n", b""):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    body = stream.read(int(headers["content-length"]))
    return status_line, headers, body


def test_sequential_requests_on_one_connection_do_not_stall(serve_harness):
    harness = serve_harness(golden_loaded())
    body = json.dumps({"features": [0.0] * N_FEATURES}).encode("utf-8")
    conn = http.client.HTTPConnection("127.0.0.1", harness.port, timeout=10)
    try:
        times = []
        for _ in range(21):  # the first one also pays the TCP handshake
            t0 = perf_counter()
            conn.request("POST", "/predict", body=body)
            resp = conn.getresponse()
            payload = json.loads(resp.read())
            times.append(perf_counter() - t0)
            assert resp.status == 200
            assert payload["minutes"] == 42.0
    finally:
        conn.close()
    median = statistics.median(times[1:])
    assert median < MEDIAN_RTT_BOUND_S, f"median round trip {median * 1e3:.1f} ms"


def test_malformed_request_line_gets_400_and_the_connection_closes(
    serve_harness,
):
    harness = serve_harness(golden_loaded())
    with socket.create_connection(("127.0.0.1", harness.port), timeout=10) as s:
        # Four words: the version parses, the syntax does not.
        s.sendall(b"GET / extra HTTP/1.1\r\n\r\n")
        data = b""
        while chunk := s.recv(65536):  # b"" once the server closes
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 400 "), lines[0]
    headers = {
        k.strip().lower(): v.strip()
        for k, _, v in (line.partition(":") for line in lines[1:])
    }
    assert headers["connection"] == "close"
    assert len(body) == int(headers["content-length"])


def test_bad_content_length_gets_400_and_the_connection_closes(serve_harness):
    harness = serve_harness(golden_loaded())
    with socket.create_connection(("127.0.0.1", harness.port), timeout=10) as s:
        s.sendall(
            b"POST /predict HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 10000000\r\n\r\n"
        )
        stream = s.makefile("rb")
        status_line, headers, body = _read_response(stream)
        # Closed, so a body the server never read is not parsed as the
        # next request.
        assert stream.read() == b""
    assert status_line.startswith(b"HTTP/1.1 400 ")
    assert headers["connection"] == "close"
    assert json.loads(body)["error"] == "bad Content-Length"


def test_two_responses_on_one_connection_parse_back_to_back(serve_harness):
    """Both requests go out pipelined in one send; both responses come
    back whole, in order, byte-exact against the golden bodies."""
    harness = serve_harness(golden_loaded())
    predict = json.loads((GOLDEN_DIR / "predict_ok.json").read_text())
    healthz = json.loads((GOLDEN_DIR / "healthz.json").read_text())
    predict_body = json.dumps(predict["request"]).encode("utf-8")
    requests = (
        b"POST /predict HTTP/1.1\r\nHost: x\r\nX-Request-Id: ka-1\r\n"
        b"Content-Length: %d\r\n\r\n" % len(predict_body)
        + predict_body
        + b"GET /healthz HTTP/1.1\r\nHost: x\r\nX-Request-Id: ka-2\r\n\r\n"
    )
    expected_predict = dict(predict["response"], request_id="ka-1")
    with socket.create_connection(("127.0.0.1", harness.port), timeout=10) as s:
        s.sendall(requests)
        stream = s.makefile("rb")
        first = _read_response(stream)
        second = _read_response(stream)
    for (status_line, headers, body), rid, status, payload in [
        (first, "ka-1", predict["status"], expected_predict),
        (second, "ka-2", healthz["status"], healthz["response"]),
    ]:
        assert status_line.startswith(b"HTTP/1.1 %d " % status), status_line
        assert headers["x-request-id"] == rid
        assert body == json.dumps(payload, sort_keys=True).encode("utf-8")
