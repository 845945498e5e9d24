#!/usr/bin/env python3
"""CI smoke client for `repro serve` — stdlib urllib only.

Drives a running verification service end to end: a good program over
both wire and JSON encodings, malformed submissions, the verdict-lookup
and stats endpoints.  Shape assertions are tolerant (required keys and
types only) so additive response fields never break this script.

With ``--restarted`` it checks instead that a service booted on the
store an earlier run saved answers the same program from that store:
cached on the first request, with no verification.  The earlier run
also stored a program with transfers, whose cached precision summary
must equal the one a fresh walk (``states=1``) renders.

Usage: service_smoke.py [--restarted] [BASE_URL]
(default http://127.0.0.1:8737)
"""

import json
import sys
import urllib.error
import urllib.request

# mov r0, 0 ; exit — the smallest accepted program, in kernel wire format.
GOOD_WIRE = bytes.fromhex("b700000000000000" "9500000000000000")
# ldxw r0, [r1+0] ; and r0, 255 ; add r0, 1 ; exit — two transfers of
# 8 γ-bits each, so its precision summary is not empty.
PRECISE_WIRE = bytes.fromhex(
    "6110000000000000" "57000000ff000000"
    "0700000001000000" "9500000000000000"
)


def request(base, path, data=None, content_type=None):
    headers = {"Content-Type": content_type} if content_type else {}
    req = urllib.request.Request(base + path, data=data, headers=headers)
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def post_wire(base, body, path="/verify"):
    return request(base, path, body, "application/octet-stream")


def post_json(base, payload, path="/verify"):
    return request(base, path, json.dumps(payload).encode(),
                   "application/json")


def check(label, condition, context):
    if not condition:
        print(f"FAIL {label}: {context}")
        sys.exit(1)
    print(f"ok   {label}")


def check_verdict_shape(label, body):
    for key, kind in (
        ("schema_version", int), ("canonical_hash", str), ("ctx_size", int),
        ("verdict", str), ("ok", bool), ("insns_processed", int),
        ("cached", bool),
    ):
        check(f"{label}: {key} is {kind.__name__}",
              isinstance(body.get(key), kind), body)


def check_error_shape(label, body):
    error = body.get("error", {})
    check(f"{label}: error code/message",
          isinstance(error.get("code"), str)
          and isinstance(error.get("message"), str), body)


def exposition_problem(text):
    """The first way ``text`` breaks the Prometheus text format's
    grouping, or None: each family has one ``# TYPE`` line, and its
    samples follow that line in one contiguous run."""
    families = set()
    current = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            current = line.split()[2]
            if current in families:
                return f"repeated TYPE for {current}"
            families.add(current)
        elif line and not line.startswith("#"):
            name = line.split("{")[0].split()[0]
            if current is None or name not in (
                current, f"{current}_bucket", f"{current}_sum",
                f"{current}_count",
            ):
                return f"{name} is not in the run of family {current}"
    return None


def restarted(base):
    status, body = post_wire(base, GOOD_WIRE)
    check("restarted POST status", status == 200, (status, body))
    check_verdict_shape("restarted POST", body)
    check("first POST after restart is cached",
          body["cached"] is True and body["ok"] is True, body)
    status, stats = request(base, "/stats")
    service = stats.get("service", {})
    check("stats: no verification after restart",
          status == 200 and service.get("verifications") == 0, service)

    # The stored precision summary survived the restart: the cached
    # answer equals what a fresh walk renders.
    status, cached = post_wire(base, PRECISE_WIRE, "/verify?precision=1")
    check("restarted precision POST is cached",
          status == 200 and cached.get("cached") is True, (status, cached))
    status, fresh = post_wire(
        base, PRECISE_WIRE, "/verify?states=1&precision=1")
    check("states POST walks afresh",
          status == 200 and fresh.get("cached") is False, (status, fresh))
    check("cached precision equals the fresh walk's",
          cached.get("precision") == fresh.get("precision")
          and cached["precision"].get("transfers") == 2, (cached, fresh))
    print("service smoke (restarted): all checks passed")


def main():
    args = sys.argv[1:]
    if args[:1] == ["--restarted"]:
        base = args[1] if len(args) > 1 else "http://127.0.0.1:8737"
        restarted(base)
        return
    base = args[0] if args else "http://127.0.0.1:8737"

    status, body = request(base, "/healthz")
    check("healthz", status == 200 and body.get("status") == "ok", body)

    # Cold submission: raw wire bytes.
    status, cold = post_wire(base, GOOD_WIRE)
    check("wire POST status", status == 200, (status, cold))
    check_verdict_shape("wire POST", cold)
    check("wire POST accepts",
          cold["verdict"] == "accept" and cold["ok"] is True, cold)
    check("cold is uncached", cold["cached"] is False, cold)

    # Warm repeat via the JSON encoding: same canonical program, so the
    # service must answer from the verdict cache.
    status, warm = post_json(base, {"program_hex": GOOD_WIRE.hex()})
    check("json POST status", status == 200, (status, warm))
    check_verdict_shape("json POST", warm)
    check("warm repeat is cached", warm["cached"] is True, warm)
    check("hashes agree",
          warm["canonical_hash"] == cold["canonical_hash"], (cold, warm))

    # Malformed submissions: undecodable -> 400, unacceptable -> 422.
    status, body = post_wire(base, b"\xde\xad\xbe\xef")
    check("truncated wire -> 400", status == 400, (status, body))
    check_error_shape("truncated wire", body)

    status, body = request(base, "/verify", b"{not json",
                           "application/json")
    check("bad json -> 400", status == 400, (status, body))
    check_error_shape("bad json", body)

    status, body = post_json(
        base, {"program_hex": GOOD_WIRE.hex(), "ctx_size": "enormous"})
    check("bad ctx_size -> 422", status == 422, (status, body))
    check_error_shape("bad ctx_size", body)

    # Verdict lookup by canonical hash.
    status, body = request(base, f"/verdict/{cold['canonical_hash']}")
    check("verdict lookup", status == 200 and body["cached"] is True, body)
    status, body = request(base, "/verdict/" + "0" * 64)
    check("unknown verdict -> 404", status == 404, (status, body))

    # Stats: one verification, at least one cache hit, rejections counted.
    status, stats = request(base, "/stats")
    check("stats status", status == 200, status)
    service = stats.get("service", {})
    check("stats: one verification",
          service.get("verifications") == 1, service)
    check("stats: cache hits > 0",
          service.get("cache", {}).get("hits", 0) > 0, service)
    check("stats: rejections counted",
          service.get("rejections", 0) >= 2, service)

    # Prometheus exposition.
    req = urllib.request.Request(base + "/metrics")
    with urllib.request.urlopen(req, timeout=10) as response:
        text = response.read().decode()
    check("metrics exposition",
          "repro_api_requests_total" in text
          and "repro_api_cache_hits_total" in text,
          text.splitlines()[:5])
    problem = exposition_problem(text)
    check("metrics: one TYPE line and one run per family",
          problem is None, problem)

    # A program with transfers, so the store saved at shutdown holds a
    # non-empty precision summary for --restarted to compare.
    status, body = post_wire(base, PRECISE_WIRE, "/verify?precision=1")
    check("precision POST", status == 200 and body.get("ok") is True,
          (status, body))
    check("precision summary counts two transfers",
          body.get("precision", {}).get("transfers") == 2, body)

    print("service smoke: all checks passed")


if __name__ == "__main__":
    main()
