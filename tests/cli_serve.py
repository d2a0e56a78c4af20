#!/usr/bin/env python3
"""The `ftspan_cli serve` process end to end: the part of the daemon that
only the CLI has (printing the bound port, the SIGHUP and SIGINT handlers).

Boots the daemon on an ephemeral port over a 5-vertex path with weights
1, 2, 3, 4, checks d(0, 4) = 10, reloads it with SIGHUP, posts a reload of
a missing file (the old epoch must keep serving), then stops it with SIGINT
and expects exit status 0.

    python3 tests/cli_serve.py path/to/ftspan_cli

Standard library only. ctest registers it as `cli_serve`.
"""
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request


def get(port, path, method="GET"):
    """The status and decoded JSON body of one request."""
    req = urllib.request.Request(f"http://127.0.0.1:{port}{path}", method=method)
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def wait_for_reload(port, outcome):
    """Polls /healthz until its reload counter `outcome` ("ok" or "failed")
    reaches 1; returns the body."""
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        health = get(port, "/healthz")[1]
        if health["reload"][outcome] >= 1:
            return health
        time.sleep(0.05)
    sys.exit(f"cli_serve: no reload reported {outcome} within 30 s")


def expect(cond, what, got):
    if not cond:
        sys.exit(f"cli_serve: expected {what}, got {got}")


def main():
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory() as tmp:
        graph = os.path.join(tmp, "path5.txt")
        with open(graph, "w") as f:
            f.write("5 4 u\n0 1 1\n1 2 2\n2 3 3\n3 4 4\n")
        proc = subprocess.Popen(
            [cli, "serve", "-i", graph, "-k", "3", "-r", "1", "--port", "0"],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            match = re.search(r"serving on [^ ]*:(\d+) ", line)
            expect(match is not None, "the 'serving on' line", repr(line))
            port = int(match.group(1))

            status, body = get(port, "/distance?s=0&t=4")
            expect(status == 200 and body["distance"] == 10
                   and body["reachable"], "d(0, 4) = 10", body)

            # SIGHUP rebuilds the epoch from the same file.
            proc.send_signal(signal.SIGHUP)
            health = wait_for_reload(port, "ok")
            expect(health["reload"]["supported"] and health["epoch"] >= 2,
                   "a supported reload and epoch >= 2", health)

            # A reload from a missing file fails and the old epoch serves on.
            missing = os.path.join(tmp, "missing.txt")
            status, _ = get(port, "/admin/reload?path=" + missing, "POST")
            expect(status == 202, "202 for the reload request", status)
            health = wait_for_reload(port, "failed")
            expect("missing.txt" in health["reload"]["last_error"],
                   "the missing path in last_error", health)
            status, body = get(port, "/distance?s=0&t=4")
            expect(status == 200 and body["distance"] == 10,
                   "d(0, 4) = 10 after the failed reload", body)

            proc.send_signal(signal.SIGINT)
            code = proc.wait(timeout=30)
            expect(code == 0, "exit status 0 after SIGINT", code)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    print("cli_serve ok")


if __name__ == "__main__":
    main()
