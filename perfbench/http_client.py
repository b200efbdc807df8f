"""Closed-loop HTTP GET clients, run in their own interpreter.

``workloads.py`` starts this script during the ``study_service`` read phase so
that, as for a user of ``repro serve``, the clients do not share the
server's interpreter lock.  It reads one JSON object from stdin::

    {"host": "127.0.0.1", "port": 8787, "paths": ["/api/v1/..."], "clients": 2, "requests": 120}

Each of ``clients`` threads holds one connection and issues ``requests`` GETs
one after another, client ``i`` taking ``paths[(step * clients + i) % len]``.
Every GET is written to stdout as soon as it completes, as one JSON line
``[path, status, seconds, body]``, so the client keeps no bodies and its
memory stays out of the benchmark's ``peak_rss_mb``.  The last line is
``{"phase_s": ...}``: first request sent to last response read.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
from typing import List

from common import now


def main() -> int:
    spec = json.load(sys.stdin)
    paths: List[str] = spec["paths"]
    clients = int(spec["clients"])
    output = threading.Lock()

    def client(index: int) -> None:
        connection = http.client.HTTPConnection(spec["host"], spec["port"], timeout=30)
        try:
            for step in range(int(spec["requests"])):
                path = paths[(step * clients + index) % len(paths)]
                status, body = 0, ""
                started = now()
                try:
                    connection.request("GET", path)
                    response = connection.getresponse()
                    status, body = response.status, response.read().decode("utf-8")
                except (OSError, http.client.HTTPException):
                    connection.close()
                line = json.dumps([path, status, now() - started, body])
                with output:
                    sys.stdout.write(line + "\n")
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(index,)) for index in range(clients)]
    started = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sys.stdout.write(json.dumps({"phase_s": now() - started}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
