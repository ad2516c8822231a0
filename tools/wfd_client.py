#!/usr/bin/env python3
"""NDJSON client for the wfd_serve campaign daemon — pure stdlib.

Two faces:

  * a tiny manual client for poking a running daemon:

        tools/wfd_client.py --connect /tmp/wfd.sock --ping
        tools/wfd_client.py --connect /tmp/wfd.sock --stats
        tools/wfd_client.py --connect /tmp/wfd.sock \
            --submit '{"kind":"campaign","runs":64,"targets":"all"}'

    (--connect accepts a unix-socket path or HOST:PORT, the latter with
    TCP_NODELAY set; --submit streams progress heartbeats and the final
    result line to stdout);

  * the end-to-end serve-smoke driver run by `ctest -L serve-smoke`:

        tools/wfd_client.py --e2e build/bench/wfd_serve --vectors tests/vectors

    which spawns real daemon processes and walks the whole protocol
    surface over real sockets: submit/stream/complete, the cache-hit
    short-circuit observable in serve.cache.* stats, a ping, a submit and
    its byte-identical cache hit over loopback TCP, a client vanishing
    mid-stream while another keeps being served, deterministic
    backpressure rejection at queue capacity (--workers 0 daemon), and a
    graceful SIGTERM drain that flushes in-flight results, exits 0 and
    unlinks the socket. Exit 0 iff every check passes.
"""
import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time


class Client:
    """One NDJSON session: line-framed JSON requests and responses."""

    def __init__(self, target):
        if isinstance(target, tuple):
            self.sock = socket.create_connection(target, timeout=120)
            # Requests are small writes; never hold one back for an ACK.
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        else:
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(120)
            self.sock.connect(target)
        self.reader = self.sock.makefile("r", encoding="utf-8", newline="\n")
        self.last_line = ""

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

    def recv(self):
        """Next response object, or None on EOF."""
        line = self.reader.readline()
        if not line:
            return None
        self.last_line = line
        return json.loads(line)

    def recv_type(self, wanted, on_progress=None):
        """Read until a response of type `wanted` (progress lines are
        forwarded to on_progress), failing loudly on error/rejected."""
        while True:
            msg = self.recv()
            if msg is None:
                raise EOFError(f"daemon hung up while waiting for {wanted!r}")
            kind = msg.get("type")
            if kind == wanted:
                return msg
            if kind == "progress" and on_progress:
                on_progress(msg)
            elif kind in ("error", "rejected") and wanted not in ("error",
                                                                 "rejected"):
                raise RuntimeError(f"daemon said {msg!r} while waiting "
                                   f"for {wanted!r}")

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def payload_bytes(result_line):
    """The raw payload of a result line (payload is its last member)."""
    line = result_line.rstrip("\n")
    marker = '"payload":'
    return line[line.index(marker) + len(marker):-1]


def parse_target(spec):
    if ":" in spec and not spec.startswith("/"):
        host, port = spec.rsplit(":", 1)
        return (host, int(port))
    return spec


# --- e2e driver -------------------------------------------------------------

class Daemon:
    """A real wfd_serve process with its ready line parsed."""

    def __init__(self, binary, extra_flags=(), corpus_root=None):
        self.sock_path = tempfile.mktemp(prefix="wfd_e2e_", suffix=".sock")
        cmd = [binary, "--unix", self.sock_path, "--quiet"]
        cmd += list(extra_flags)
        if corpus_root:
            cmd += ["--corpus-root", corpus_root]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True)
        ready_line = self.proc.stdout.readline()
        if not ready_line:
            raise RuntimeError(
                f"daemon exited before ready: {self.proc.stderr.read()}")
        self.ready = json.loads(ready_line)
        assert self.ready.get("type") == "ready", self.ready

    def client(self):
        return Client(self.sock_path)

    def tcp_client(self):
        return Client(("127.0.0.1", self.ready["tcp_port"]))

    def terminate_and_wait(self, timeout=120):
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=timeout)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


CHECKS = []


def check(name, ok, detail=""):
    CHECKS.append((name, bool(ok)))
    status = "ok" if ok else "FAIL"
    suffix = f"  ({detail})" if detail and not ok else ""
    print(f"  {status:4} {name}{suffix}")
    return bool(ok)


def stats_registry(client):
    client.send({"type": "stats"})
    return client.recv_type("stats")["registry"]


def e2e(binary, vectors_dir):
    print("serve-smoke e2e: submit/stream/complete")
    daemon = Daemon(binary, ["--workers", "2", "--tcp", "0"])
    try:
        client = daemon.client()
        client.send({"type": "ping"})
        check("ping/pong", client.recv().get("type") == "pong")

        # A scenario straight from the conformance corpus.
        with open(os.path.join(vectors_dir,
                               "v01_exclusive_clean.scenario.json"),
                  encoding="utf-8") as fh:
            scenario = json.load(fh)
        client.send({"type": "submit", "kind": "scenario", "tag": "v01",
                     "scenario": scenario})
        accepted = client.recv_type("accepted")
        check("scenario accepted with tag", accepted.get("tag") == "v01")
        result = client.recv_type("result")
        check("scenario result streams back",
              result.get("tag") == "v01"
              and result["payload"].get("verdict") is not None, str(result))
        check("first execution is not cached", result.get("cached") is False)

        # Campaign submit/stream/complete with progress heartbeats.
        beats = []
        client.send({"type": "submit", "kind": "campaign", "runs": 32,
                     "master_seed": 7, "tag": "camp"})
        client.recv_type("accepted")
        result = client.recv_type("result", on_progress=beats.append)
        check("campaign completes over the socket",
              result["payload"].get("executed") == 32, str(result))
        check("progress heartbeats streamed",
              beats and all(b.get("phase") == "campaign" for b in beats),
              f"{len(beats)} beats")

        # Cache-hit short-circuit, observable in serve.* stats.
        before = stats_registry(client)
        client.send({"type": "submit", "kind": "campaign", "runs": 32,
                     "master_seed": 7, "tag": "camp2"})
        client.recv_type("accepted")
        rerun = client.recv_type("result")
        after = stats_registry(client)
        check("identical campaign resubmission is a cache hit",
              rerun.get("cached") is True)
        check("cache hit is bit-identical",
              rerun["payload"] == result["payload"])
        check("serve.cache.hits bumped",
              after.get("serve.cache.hits", 0)
              == before.get("serve.cache.hits", 0) + 1,
              f"{before.get('serve.cache.hits')} -> "
              f"{after.get('serve.cache.hits')}")

        # The same protocol over loopback TCP, beside the unix socket.
        check("ready line reports the tcp port",
              daemon.ready.get("tcp_port", 0) > 0, str(daemon.ready))
        tcp = daemon.tcp_client()
        tcp.send({"type": "ping"})
        check("tcp ping/pong", tcp.recv().get("type") == "pong")
        run = {"type": "submit", "kind": "run",
               "config": {"seed": 21, "target": "dining", "n": 3}}
        tcp.send(run)
        tcp.recv_type("accepted")
        fresh = tcp.recv_type("result")
        fresh_bytes = payload_bytes(tcp.last_line)
        check("tcp submit runs fresh", fresh.get("cached") is False
              and fresh["payload"].get("verdict") is not None, str(fresh))
        tcp.send(run)
        tcp.recv_type("accepted")
        hit = tcp.recv_type("result")
        check("tcp resubmission is a cache hit", hit.get("cached") is True)
        check("tcp cache hit is byte-identical",
              payload_bytes(tcp.last_line) == fresh_bytes)
        tcp.close()

        # A client that vanishes mid-stream must not take the daemon down.
        doomed = daemon.client()
        doomed.send({"type": "submit", "kind": "campaign", "runs": 2048,
                     "master_seed": 99})
        doomed.recv_type("accepted")
        doomed.close()
        client.send({"type": "submit", "kind": "run",
                     "config": {"seed": 3, "target": "dining"}})
        client.recv_type("accepted")
        survivor = client.recv_type("result")
        check("daemon serves others after a mid-stream disconnect",
              survivor["payload"].get("verdict") is not None)

        # Graceful SIGTERM drain: in-flight result flushed, exit 0,
        # socket unlinked.
        beats = []
        client.send({"type": "submit", "kind": "campaign", "runs": 64,
                     "master_seed": 13, "tag": "drainme"})
        client.recv_type("accepted")
        daemon.proc.send_signal(signal.SIGTERM)
        drained = client.recv_type("result", on_progress=beats.append)
        check("SIGTERM drain flushes the in-flight result",
              drained.get("tag") == "drainme")
        check("daemon hangs up after drain", client.recv() is None)
        code = daemon.proc.wait(timeout=120)
        check("drained daemon exits 0", code == 0, f"exit {code}")
        check("drained daemon unlinks its socket",
              not os.path.exists(daemon.sock_path))
    finally:
        daemon.kill()

    print("serve-smoke e2e: deterministic backpressure (--workers 0)")
    daemon = Daemon(binary, ["--workers", "0", "--queue-capacity", "2"])
    try:
        client = daemon.client()
        verdicts = []
        for seed in range(3):
            client.send({"type": "submit", "kind": "run",
                         "config": {"seed": 1000 + seed,
                                    "target": "dining"}})
            verdicts.append(client.recv().get("type"))
        check("queue admits exactly its capacity",
              verdicts == ["accepted", "accepted", "rejected"],
              str(verdicts))
        client.send({"type": "submit", "kind": "run",
                     "config": {"seed": 2000, "target": "dining"}})
        rejected = client.recv()
        check("rejection names backpressure",
              rejected.get("reason") == "backpressure", str(rejected))
        registry = stats_registry(client)
        check("serve.rejected.backpressure counted",
              registry.get("serve.rejected.backpressure", 0) == 2,
              str(registry.get("serve.rejected.backpressure")))
        client.send({"type": "ping"})
        check("daemon still answers after rejections",
              client.recv().get("type") == "pong")
        daemon.terminate_and_wait()
    finally:
        daemon.kill()

    failed = [name for name, ok in CHECKS if not ok]
    print(f"serve-smoke e2e: {len(CHECKS) - len(failed)}/{len(CHECKS)} "
          f"checks passed")
    return 0 if not failed else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--connect", metavar="SOCK|HOST:PORT",
                        help="daemon endpoint for the manual commands")
    parser.add_argument("--ping", action="store_true")
    parser.add_argument("--stats", action="store_true")
    parser.add_argument("--submit", metavar="JSON",
                        help="submit request body (without \"type\")")
    parser.add_argument("--e2e", metavar="WFD_SERVE",
                        help="run the serve-smoke suite against this binary")
    parser.add_argument("--vectors", metavar="DIR",
                        help="conformance-vector directory for --e2e")
    args = parser.parse_args(argv[1:])

    if args.e2e:
        if not args.vectors:
            parser.error("--e2e requires --vectors")
        return e2e(args.e2e, args.vectors)
    if not args.connect:
        parser.error("--connect or --e2e required")

    client = Client(parse_target(args.connect))
    if args.ping:
        client.send({"type": "ping"})
        print(json.dumps(client.recv()))
    if args.stats:
        client.send({"type": "stats"})
        print(json.dumps(client.recv(), indent=2))
    if args.submit:
        request = json.loads(args.submit)
        request["type"] = "submit"
        client.send(request)
        while True:
            msg = client.recv()
            if msg is None:
                print("daemon hung up", file=sys.stderr)
                return 1
            print(json.dumps(msg))
            if msg.get("type") in ("result", "rejected", "error"):
                return 0 if msg.get("type") == "result" else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
