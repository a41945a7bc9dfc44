"""Route tests: the graph-built cache vs the `_path` branch ladder.

``Network._build_routes`` precomputes ``src -> dst -> tuple[Link, ...]``
for every node pair at construction from the compiled topology graph, so
``send`` never routes per message.  On the default (``ptp``) topology the
ladder (``Network._path``) stays in the code as the executable reference;
these tests exhaustively replay it against the graph-built cache on
1-chip, 2-chip and the paper's 4x4 machine — including the
IFACE/MEM/ARB corner cases the ladder special-cases — and pin that
mesh/torus routing is independent of ``PYTHONHASHSEED``.
"""

import os
import subprocess
import sys

import pytest

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind
from repro.interconnect.message import Message, MsgType
from repro.interconnect.network import Network
from repro.interconnect.topology import Topology
from repro.interconnect.traffic import TrafficMeter
from repro.sim.kernel import Simulator

CONFIGS = {
    "1-chip": dict(num_chips=1, procs_per_chip=4),
    "2-chip": dict(num_chips=2, procs_per_chip=2),
    "4x4": dict(num_chips=4, procs_per_chip=4),
}


def build(**kwargs):
    params = SystemParams(**kwargs)
    return Network(Simulator(), params, TrafficMeter()), params


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_route_cache_matches_path_ladder_for_every_pair(config):
    net, params = build(**CONFIGS[config])
    nodes = net._all_nodes()
    assert len(nodes) == len(set(nodes))  # enumeration has no duplicates
    for src in nodes:
        for dst in nodes:
            cached = net._routes_from[src][dst]
            assert cached == tuple(net._path(src, dst)), (src, dst)


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_route_cache_covers_exactly_the_node_pair_square(config):
    net, _params = build(**CONFIGS[config])
    nodes = net._all_nodes()
    assert sum(len(row) for row in net._routes_from.values()) == len(nodes) ** 2


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_all_machine_endpoints_are_in_the_enumeration(config):
    net, params = build(**CONFIGS[config])
    nodes = set(net._all_nodes())
    for chip in range(params.num_chips):
        for node in params.chip_l1s(chip) + params.chip_l2_banks(chip):
            assert node in nodes
        assert params.iface_of(chip) in nodes
        assert NodeId(NodeKind.MEM, chip) in nodes
        assert NodeId(NodeKind.ARB, chip) in nodes


def test_self_route_is_empty():
    net, params = build(**CONFIGS["4x4"])
    for node in net._all_nodes():
        assert net._routes_from[node][node] == ()


def test_arbiter_and_memory_colocated_route_is_empty():
    # The persistent-request arbiter sits at the memory controller site:
    # messages between them cross no links (the ladder's first corner).
    net, params = build(**CONFIGS["4x4"])
    for chip in range(params.num_chips):
        mem = NodeId(NodeKind.MEM, chip)
        arb = NodeId(NodeKind.ARB, chip)
        assert net._routes_from[mem][arb] == ()
        assert net._routes_from[arb][mem] == ()


def test_cross_chip_arbiter_route_uses_mem_and_inter_links():
    net, params = build(**CONFIGS["4x4"])
    arb0 = NodeId(NodeKind.ARB, 0)
    mem1 = NodeId(NodeKind.MEM, 1)
    names = [link.name for link in net._routes_from[arb0][mem1]]
    assert names == ["mem-in:0", "inter:0", "mem-out:1"]


def test_iface_egress_skips_its_own_intra_link():
    # A message leaving from the chip interface is already at the global
    # network boundary: no intra hop on the source side.
    net, params = build(**CONFIGS["4x4"])
    iface0 = params.iface_of(0)
    l1_remote = params.l1d_of(params.procs_per_chip)  # first proc on chip 1
    names = [link.name for link in net._routes_from[iface0][l1_remote]]
    assert names[0] == "inter:0"
    # ... and a message *to* an interface stops at the inter link.
    l1_local = params.l1d_of(0)
    names = [link.name for link in net._routes_from[l1_local][params.iface_of(1)]]
    assert names[-1] == "inter:0"


def test_send_uses_cached_route(monkeypatch):
    # After construction, the hot path must never fall back to the
    # branch ladder for machine nodes.
    net, params = build(**CONFIGS["2-chip"])
    sim = net.sim

    def fail(src, dst):  # pragma: no cover - failure path
        raise AssertionError(f"_path re-run for ({src}, {dst})")

    monkeypatch.setattr(net, "_path", fail)
    src, dst = params.l1d_of(0), params.l1d_of(params.procs_per_chip)
    seen = []
    net.register(dst, seen.append)
    net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    sim.run()
    assert len(seen) == 1


def test_unrouted_pair_raises_config_error():
    # Every registered endpoint is a topology endpoint, so a pair missing
    # from the route table is a configuration error, like an unregistered
    # endpoint.
    net, params = build(**CONFIGS["2-chip"])
    src = NodeId(NodeKind.MEM, 0)
    dst = NodeId(NodeKind.MEM, 1)
    del net._routes_from[src][dst]
    net.register(dst, lambda msg: None)
    with pytest.raises(ConfigError, match="no route"):
        net.send(Message(MsgType.TOK_ACK, src, dst, 0))
    with pytest.raises(ConfigError, match="no route"):
        net.fanout_plan(src, (dst,))


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_message_size_table_matches_payload_rule(config):
    net, params = build(**CONFIGS[config])
    for mtype in MsgType:
        expected = (params.data_msg_bytes if mtype.has_data
                    else params.control_msg_bytes)
        assert net._msg_size[mtype] == expected


# ---------------------------------------------------------------------------
# Graph routing vs the ladder, and non-default topologies.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_graph_route_names_equal_ladder_names_for_every_pair(config):
    # Belt and braces over the cache test above: the compiled graph's
    # link-name routes equal the ladder's, for every ordered pair.
    net, _params = build(**CONFIGS[config])
    for src in net._all_nodes():
        for dst in net._all_nodes():
            names = list(net.graph.route(src, dst))
            assert names == [l.name for l in net._path(src, dst)], (src, dst)


def test_mem_to_remote_iface_stops_at_the_inter_link():
    # The dst-IFACE exception applies from memory-site sources too: the
    # interface sits on the fabric, so delivery to it never re-crosses
    # its own intra egress link (ladder and graph agree).
    net, params = build(**CONFIGS["4x4"])
    mem0 = NodeId(NodeKind.MEM, 0)
    names = [l.name for l in net._routes_from[mem0][params.iface_of(1)]]
    assert names == ["mem-in:0", "inter:0"]


def test_ladder_refuses_non_default_topologies():
    params = SystemParams(num_chips=4, procs_per_chip=2,
                          topology=Topology.mesh())
    net = Network(Simulator(), params, TrafficMeter())
    with pytest.raises(ConfigError):
        net._path(params.l1d_of(0), params.l1d_of(2))


def test_mesh_routes_take_multiple_inter_hops():
    params = SystemParams(num_chips=8, procs_per_chip=2,
                          topology=Topology.mesh())
    net = Network(Simulator(), params, TrafficMeter())
    # Mesh corners (2x4 grid: chips 0 and 7) are several hops apart.
    names = [l.name for l in net._routes_from[params.l1d_of(0)][params.l1d_of(15)]]
    inter_hops = [n for n in names if n.startswith("inter:")]
    assert len(inter_hops) >= 3
    # Every hop goes router-to-adjacent-router (a>b edge labels).
    for hop in inter_hops:
        a, b = hop.split(":")[1].split(">")
        assert abs(int(a) - int(b)) in (1, 4)


_DIGEST_SNIPPET = """
import hashlib, json
from repro.common.params import SystemParams
from repro.interconnect.topology import Topology
params = SystemParams(num_chips=6, procs_per_chip=2,
                      topology=Topology.named(%(gen)r))
graph = params.topology.build(params)
routes = {str(src) + '->' + str(dst): list(names)
          for (src, dst), names in graph.all_routes().items()}
blob = json.dumps(routes, sort_keys=True)
print(hashlib.sha256(blob.encode()).hexdigest())
"""


@pytest.mark.parametrize("gen", ["mesh", "torus"])
def test_routes_are_stable_across_hash_seeds(gen):
    # Route construction must not depend on dict/set hash order: the
    # same topology must route identically under different
    # PYTHONHASHSEED values (and therefore across worker processes).
    src_dir = os.path.join(os.path.dirname(__file__), "..", "src")
    digests = set()
    for seed in ("0", "1", "12345"):
        env = dict(os.environ,
                   PYTHONHASHSEED=seed,
                   PYTHONPATH=src_dir + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        out = subprocess.run(
            [sys.executable, "-c", _DIGEST_SNIPPET % {"gen": gen}],
            capture_output=True, text=True, env=env, check=True,
        )
        digests.add(out.stdout.strip())
    assert len(digests) == 1, digests
