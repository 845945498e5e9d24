"""Start ``repro serve --port 0`` for the serve workloads.

    python3 perfbench/serve_launcher.py [--spans PATH]

Plain, it is ``repro serve`` with default flags.  With ``--spans`` it
first wraps each server-side layer's entry point in spans (see
:data:`LAYERS`) and writes them to ``PATH`` at shutdown.  Either way,
after the server stops on SIGTERM it prints one line
``perfbench-launcher: {"peak_rss_kb": N}`` so the client can report the
server's memory.

Spans carry the ``X-Request-Id`` header the benchmark's client sends, so
each request's server-side time can be set against its round trip.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

import harness

LAUNCHER_TAG = "perfbench-launcher: "


def install_spans(tracer) -> None:
    from http.server import BaseHTTPRequestHandler

    from repro.api.models import Verdict, VerifyRequest
    from repro.api.service import VerificationService
    from repro.bpf.canon import VerdictCache
    from repro.bpf.program import Program
    from repro.bpf.verifier import Verifier

    for owner, attr, layer in (
        (VerifyRequest, "from_wire", "ingest"),
        (VerifyRequest, "from_json_payload", "ingest"),
        (VerificationService, "verify", "service"),
        (Program, "canonical_hash", "canon"),
        (VerdictCache, "get", "cache"),
        (Verifier, "verify", "verifier"),
        (Verdict, "to_payload", "render"),
    ):
        tracer.wrap(owner, attr, layer)

    parse_request = BaseHTTPRequestHandler.parse_request

    def tagged_parse_request(self):
        ok = parse_request(self)
        tracer.set_request(self.headers.get("X-Request-Id") if ok else None)
        return ok

    BaseHTTPRequestHandler.parse_request = tagged_parse_request

    # Walks run on the service's pool threads: hand each one the
    # submitting request's span as its parent.
    submit = VerificationService._submit

    def bound_submit(self, fn, *args):
        return submit(self, tracer.bind(fn), *args)

    VerificationService._submit = bound_submit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args(argv)
    harness.use_src()
    from repro.cli import main as repro_main

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer()
        install_spans(tracer)
    code = repro_main(["serve", "--port", "0"])
    if tracer is not None:
        tracer.dump(args.spans)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(LAUNCHER_TAG + json.dumps({"peak_rss_kb": peak}), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
