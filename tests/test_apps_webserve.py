"""Tests for connection churn: setup/teardown and the web workload."""

import pytest

from repro.apps.webserve import REQUEST_BYTES, WebServerWorkload
from repro.core.modes import apply_affinity
from repro.kernel.machine import Machine
from repro.net.params import NetParams
from repro.net.stack import NetworkStack

MS = 2_000_000


def build(n=2, response=16384, affinity="none", seed=12, app=2000):
    machine = Machine(n_cpus=2, seed=seed)
    stack = NetworkStack(machine, NetParams(), n_connections=n,
                         mode="web", message_size=response)
    workload = WebServerWorkload(machine, stack, response,
                                 app_instructions=app)
    tasks = workload.spawn_all()
    apply_affinity(machine, stack, tasks, affinity)
    machine.start()
    stack.start_peers()
    return machine, stack, workload


class TestLifecycle:
    @pytest.fixture(scope="class")
    def run(self):
        machine, stack, workload = build()
        # Spies: the server's closes and the clients' requests, per
        # connection.
        stack.closes = [0] * len(stack.connections)
        stack.requests_sent = [0] * len(stack.connections)
        sock_close = stack.sock_close

        def counting_close(ctx, conn):
            stack.closes[conn.conn_id] += 1
            return sock_close(ctx, conn)

        stack.sock_close = counting_close
        for conn in stack.connections:
            peer = conn.peer

            def counting_request(peer=peer, send=peer._send_request):
                stack.requests_sent[peer.conn_id] += 1
                send()

            peer._send_request = counting_request
        machine.run_for(20 * MS)
        return machine, stack, workload

    def test_connections_cycle(self, run):
        _, stack, _ = run
        assert all(closes > 0 for closes in stack.closes)

    def test_request_response_accounting(self, run):
        _, stack, workload = run
        for conn in stack.connections:
            served = workload.requests_served[conn.conn_id]
            sent = stack.requests_sent[conn.conn_id]
            # The server serves only what the client sent, and at most
            # one request is in flight at snapshot time.
            assert served <= sent <= served + 1

    def test_requests_per_connection_bounded(self, run):
        _, stack, workload = run
        for conn in stack.connections:
            conns = stack.closes[conn.conn_id]
            reqs = workload.requests_served[conn.conn_id]
            if conns:
                per_conn = reqs / conns
                assert per_conn <= conn.peer.requests_per_conn + 1

    def test_teardown_left_no_residue(self, run):
        _, stack, _ = run
        # Sequence state resets every episode; whatever episode is in
        # progress has small sequence numbers relative to total bytes.
        for conn in stack.connections:
            sock = conn.sock
            per_episode_cap = (
                conn.peer.requests_per_conn * 16384 + 65536
            )
            assert sock.snd_nxt <= per_episode_cap
            assert sock.rcv_nxt <= (
                conn.peer.requests_per_conn * REQUEST_BYTES + 4096
            )

    def test_setup_functions_charged(self, run):
        machine, _, workload = run
        fns = machine.accounting.per_function()
        assert "tcp_v4_conn_request" in fns
        assert "tcp_create_openreq_child" in fns
        assert "sys_accept" in fns
        assert "inet_csk_destroy_sock" in fns

    def test_application_bin_excluded_from_stack(self, run):
        machine, _, _ = run
        bins = machine.accounting.per_bin()
        assert bins["other"][0] > 0  # app cycles exist...
        # ...but are not in any of the paper's seven stack bins
        # (guaranteed by the bin tag; double-check via totals).
        from repro.cpu.events import CYCLES

        stack_cycles = sum(
            bins[b][CYCLES]
            for b in ("interface", "engine", "buf_mgmt", "copies",
                      "driver", "locks", "timers")
        )
        assert stack_cycles > 0

    def test_no_drops(self, run):
        _, stack, _ = run
        assert sum(n.rx_drops for n in stack.nics) == 0


class TestAffinityOnChurnWorkload:
    def test_affinity_still_helps(self):
        results = {}
        for mode in ("none", "full"):
            machine, _, workload = build(n=8, affinity=mode)
            machine.run_for(10 * MS)
            machine.reset_measurement()
            machine.run_for(14 * MS)
            results[mode] = workload.requests_per_second(
                machine.window_cycles, machine.hz
            )
        assert results["full"] > results["none"] * 1.08

    def test_app_processing_dilutes_gain(self):
        gains = {}
        for app in (2_000, 160_000):
            rates = {}
            for mode in ("none", "full"):
                machine, _, workload = build(n=8, affinity=mode, app=app)
                machine.run_for(10 * MS)
                machine.reset_measurement()
                machine.run_for(14 * MS)
                rates[mode] = workload.requests_per_second(
                    machine.window_cycles, machine.hz
                )
            gains[app] = rates["full"] / rates["none"] - 1.0
        assert gains[160_000] < gains[2_000]


class TestValidation:
    def test_requires_web_stack(self):
        machine = Machine(n_cpus=2, seed=1)
        stack = NetworkStack(machine, NetParams(), n_connections=1,
                             mode="tx", message_size=4096)
        with pytest.raises(ValueError):
            WebServerWorkload(machine, stack, 4096)
