"""Point-to-point interconnect model with latency and bandwidth.

The target machine (Table 3) has three networks:

* **intra-CMP**: directly connected on-chip network, 2 ns one-way links at
  64 GB/s;
* **inter-CMP**: directly connected global network between chip
  interfaces, 20 ns links (including interface/wire/sync) at 16 GB/s;
* **memory links**: each CMP to its off-chip memory controller, 20 ns.

We model each network as per-source egress links with store-and-forward
semantics: a message occupies a link for ``bytes / bandwidth`` and arrives
after the link latency; back-to-back messages on one link queue behind
each other.  A cross-chip message traverses (intra egress) -> (inter
egress of the source chip) -> (intra egress of the destination chip's
interface), so it consumes bandwidth on every network it crosses, which
is what the paper's traffic figures measure.

Topologies
----------

The link structure is no longer hard-coded: ``params.topology`` (a
declarative :class:`~repro.interconnect.topology.Topology` spec) compiles
to a link graph, and routes are deterministic shortest paths over it.
The default ``ptp`` topology compiles to exactly the Table-3 machine
above, and for it the :meth:`_path` branch ladder is retained as the
executable reference the route tests replay; mesh/torus/fat-tree
fabrics have no ladder — the graph is the only statement of their
routing.

Hot-path design
---------------

``send`` sits under every coherence message, so its per-message work is
precomputed at construction time:

* a **route cache** — ``src -> dst -> tuple[Link, ...]`` for every node
  pair in the machine, built once from the compiled topology graph
  (checked against the :meth:`_path` ladder on the default topology); a
  pair outside it raises ``ConfigError``;
* a **size table** — ``MsgType -> bytes``, so sizing a message is one
  dict hit instead of a method call and branch;
* **integer link serialization** — each :class:`Link` folds its
  bandwidth into an exact integer numerator/denominator pair at
  construction, so ``traverse`` is pure integer arithmetic (no float
  rounding, no platform-dependent timing).
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, List, Tuple

from repro.common.errors import ConfigError
from repro.common.params import SystemParams
from repro.common.types import NodeId, NodeKind
from repro.interconnect.message import Message, MessagePool, MsgType, _msg_ids
from repro.interconnect.topology import LinkSpec, TopologyGraph
from repro.interconnect.traffic import Scope, TrafficClass, TrafficMeter
from repro.sim.kernel import Simulator


class Link:
    """One egress link: fixed latency plus serialization at a bandwidth."""

    __slots__ = (
        "name", "scope", "latency_ps", "bytes_per_ns", "busy_until",
        "bytes_carried", "_ser_num", "_ser_den", "plain",
    )

    def __init__(self, name: str, scope: Scope, latency_ps: int, bytes_per_ns: float):
        self.name = name
        self.scope = scope
        self.latency_ps = latency_ps
        self.bytes_per_ns = bytes_per_ns
        self.busy_until = 0
        self.bytes_carried = 0
        # True for exactly this class: ``Network.send`` inlines the plain
        # traverse arithmetic and dispatches to :meth:`traverse` only for
        # subclasses that override it (BufferedLink diagnostics).
        self.plain = type(self) is Link
        # Serialization is ``nbytes / bytes_per_ns`` ns = ``nbytes * 1000
        # / bytes_per_ns`` ps.  Expand the (possibly fractional) bandwidth
        # into an exact integer ratio once, so ``traverse`` computes an
        # exact integer ceiling — float ``round()`` banker's-rounds and
        # risks platform-dependent timing on inexact quotients.
        num, den = float(bytes_per_ns).as_integer_ratio()
        self._ser_num = 1000 * den
        self._ser_den = num

    def serialization_ps(self, nbytes: int) -> int:
        """Exact integer serialization delay for ``nbytes`` on this link.

        Computed as ``ceil(nbytes * 1000 / bytes_per_ns)`` in integer
        arithmetic, clamped to >= 1 ps: zero-byte/control messages on a
        fast link must still advance ``busy_until``, so same-cycle
        messages on one link keep strict FIFO order.
        """
        ser = -(-nbytes * self._ser_num // self._ser_den)
        return ser if ser > 1 else 1

    def traverse(self, start_ps: int, nbytes: int) -> int:
        """Occupy the link for one message; return its arrival time."""
        ser = -(-nbytes * self._ser_num // self._ser_den)
        if ser < 1:
            ser = 1
        begin = self.busy_until
        if start_ps > begin:
            begin = start_ps
        self.busy_until = begin + ser
        self.bytes_carried += nbytes
        return begin + ser + self.latency_ps


class BufferedLink(Link):
    """A link with a *diagnostic* egress-buffer capacity.

    Queues stay unbounded (timing is identical to :class:`Link`); the
    capacity only marks where backlog beyond the configured buffer would
    have overflowed, surfaced via :meth:`Network.buffer_report`.
    """

    __slots__ = ("buffer_bytes", "peak_backlog_bytes", "overflow_events")

    def __init__(self, name: str, scope: Scope, latency_ps: int,
                 bytes_per_ns: float, buffer_bytes: int):
        super().__init__(name, scope, latency_ps, bytes_per_ns)
        self.buffer_bytes = buffer_bytes
        self.peak_backlog_bytes = 0
        self.overflow_events = 0

    def traverse(self, start_ps: int, nbytes: int) -> int:
        backlog_ps = self.busy_until - start_ps
        if backlog_ps > 0:
            # Bytes still queued ahead of this message, inferred from the
            # time the link needs to drain them (serialization inverse).
            backlog = backlog_ps * self._ser_den // self._ser_num + nbytes
        else:
            backlog = nbytes
        if backlog > self.peak_backlog_bytes:
            self.peak_backlog_bytes = backlog
        if backlog > self.buffer_bytes:
            self.overflow_events += 1
        return super().traverse(start_ps, nbytes)


Handler = Callable[[Message], None]


class Network:
    """Routes messages between registered endpoints, collecting traffic."""

    def __init__(self, sim: Simulator, params: SystemParams, meter: TrafficMeter):
        self.sim = sim
        self.params = params
        self.meter = meter
        self._endpoints: Dict[NodeId, Handler] = {}
        # Prebound dict.get of the endpoint table (mutated in place by
        # ``register``, so the bound method stays valid).
        self._endpoint_of = self._endpoints.get
        self.topology = params.topology
        self.graph: TopologyGraph = self.topology.build(params)
        self._links: Dict[str, Link] = {}
        self._build_links()
        # src -> dst -> tuple of egress links, for every node pair in the
        # machine; nested so the hot ``send`` path needs no per-message
        # (src, dst) key tuple.  Empty routes (src == dst) are valid
        # entries, hence the ``is None`` probes.
        self._routes_from: Dict[NodeId, Dict[NodeId, Tuple[Link, ...]]] = {}
        self._route_row = self._routes_from.get  # prebound, table mutated in place
        self._build_routes()
        # MsgType -> wire size in bytes (Section 8 sizes from params).
        # ``send`` itself branches on the two ints below (an attribute
        # load beats hashing an enum member), but the full table stays
        # the introspectable statement of the sizing rule.
        self._data_bytes: int = params.data_msg_bytes
        self._ctrl_bytes: int = params.control_msg_bytes
        self._msg_size: Dict[MsgType, int] = {
            mtype: (self._data_bytes if mtype.has_data else self._ctrl_bytes)
            for mtype in MsgType
        }
        # Interned (scope, class) metering keys plus direct views of the
        # meter's counter dicts: the per-link charge in ``send`` becomes
        # two dict bumps with no tuple construction per message.
        self._meter_keys: Dict[TrafficClass, Dict[Scope, Tuple[Scope, TrafficClass]]] = {
            klass: {scope: (scope, klass) for scope in Scope}
            for klass in TrafficClass
        }
        self._meter_bytes = meter.bytes
        self._meter_msgs = meter.messages
        # Freelist of recyclable Message records; controllers acquire at
        # send and release at final delivery (see MessagePool).
        self.pool = MessagePool()
        # Fan-out plans, keyed by destination-tuple identity: broadcasts
        # use interned destination tuples, so the (endpoint, route) pairs
        # and the per-scope link counts of a fan-out are resolved once
        # per (src, dests) instead of per message.  Each entry keeps a
        # strong reference to its dests tuple, so the id key cannot be
        # reused while the entry lives; the identity re-check catches a
        # same-src fan-out to a different (non-interned) tuple.
        self._fanout_plans: Dict[NodeId, Dict[int, tuple]] = {}

    def _build_links(self) -> None:
        """Instantiate one :class:`Link` per compiled :class:`LinkSpec`."""
        for name, spec in self.graph.links.items():
            self._links[name] = self._make_link(spec)

    @staticmethod
    def _make_link(spec: LinkSpec) -> Link:
        if spec.buffer_bytes is None:
            return Link(spec.name, spec.scope, spec.latency_ps, spec.bytes_per_ns)
        return BufferedLink(spec.name, spec.scope, spec.latency_ps,
                            spec.bytes_per_ns, spec.buffer_bytes)

    def _all_nodes(self) -> List[NodeId]:
        """Every addressable endpoint in the machine, for route building."""
        p = self.params
        nodes: List[NodeId] = []
        for chip in range(p.num_chips):
            nodes.extend(p.chip_l1s(chip))
            nodes.extend(p.chip_l2_banks(chip))
            nodes.append(p.iface_of(chip))
            nodes.append(NodeId(NodeKind.MEM, chip))
            nodes.append(NodeId(NodeKind.ARB, chip))
        return nodes

    def _build_routes(self) -> None:
        """Precompute the route for every (src, dst) node pair.

        Built once at machine construction from the compiled topology
        graph's deterministic shortest paths, so ``send`` never routes
        per message.  On the default topology the :meth:`_path` branch
        ladder remains the executable reference — the route cache tests
        exhaustively compare every cached entry against it.
        """
        links = self._links
        routes_from = self._routes_from
        for (src, dst), names in self.graph.all_routes().items():
            by_dst = routes_from.get(src)
            if by_dst is None:
                by_dst = routes_from[src] = {}
            by_dst[dst] = tuple(links[name] for name in names)

    # ------------------------------------------------------------------
    def register(self, node: NodeId, handler: Handler) -> None:
        """Attach a controller callback as the endpoint for ``node``."""
        if node in self._endpoints:
            raise ConfigError(f"endpoint {node} registered twice")
        self._endpoints[node] = handler

    def send(self, msg: Message) -> None:
        """Route ``msg`` from ``msg.src`` to ``msg.dst`` and deliver it."""
        dst = msg.dst
        endpoint = self._endpoint_of(dst)
        if endpoint is None:
            raise ConfigError(f"no endpoint registered for {dst}")
        mtype = msg.mtype
        nbytes = self._data_bytes if mtype.has_data else self._ctrl_bytes
        src = msg.src
        by_dst = self._route_row(src)
        route = None if by_dst is None else by_dst.get(dst)
        if route is None:
            raise ConfigError(f"no route from {src} to {dst}")
        sim = self.sim
        arrival = sim._now
        keys = self._meter_keys[mtype.klass]
        mbytes = self._meter_bytes
        mmsgs = self._meter_msgs
        for link in route:
            if link.plain:
                # Inlined Link.traverse (identical integer arithmetic):
                # the plain link is the whole fabric in steady state, and
                # skipping the method call pays on every hop.
                ser = -(-nbytes * link._ser_num // link._ser_den)
                if ser < 1:
                    ser = 1
                begin = link.busy_until
                if arrival > begin:
                    begin = arrival
                link.busy_until = begin + ser
                link.bytes_carried += nbytes
                arrival = begin + ser + link.latency_ps
            else:
                arrival = link.traverse(arrival, nbytes)
            scope = link.scope
            mbytes[keys[scope]] += nbytes
            mmsgs[scope] += 1
        tracer = sim.tracer
        if tracer is None:
            sim.call_at(arrival, endpoint, msg)
        else:
            # Same event count and (time, seq) order as the untraced path:
            # the delivery shim only adds the msg.recv emission.
            tracer.msg_send(msg, nbytes=nbytes, hops=len(route), arrival_ps=arrival)
            sim.call_at(arrival, self._deliver_traced, msg)

    def send_fanout(self, template: Message, dests) -> None:
        """Clone ``template`` to every destination, sending each clone.

        The pooled fast path of the template/``clone_to`` broadcast idiom:
        clones come from the message pool (one dict stamp per destination,
        no allocation in steady state) and each is released by its
        receiving controller when its dispatch completes.  The template
        itself stays with the caller, which releases it after the fan-out.

        Fault-injection wrappers deliberately do not override this: the
        messages that fan out (transient requests, persistent activates/
        deactivates, epoch bumps) never carry tokens, so in-flight token
        tracking has nothing to track, and fault policies apply at arrival
        through the wrapped endpoint handlers either way.
        """
        pool = self.pool
        send = self.send
        if not pool.enabled:
            for dst in dests:
                send(template.clone_to(dst))
            return
        clone = pool.clone
        sim = self.sim
        if sim.tracer is not None:
            for dst in dests:
                send(clone(template, dst))
            return
        # Untraced pooled fast path: every clone shares the template's
        # src/mtype, so the route row, wire size and metering keys are
        # resolved once for the whole fan-out instead of per destination,
        # and the (endpoint, route) pairs plus per-scope link counts come
        # from a plan cached by destination-tuple identity (broadcast
        # dest tuples are interned per controller).  Clone order, link
        # busy_until order and event (time, seq) order are identical to
        # the per-destination ``send`` loop; metering is applied as one
        # aggregate bump per scope — same final counters, addition is
        # commutative and the meter is only read between events.
        src = template.src
        row = self._fanout_plans.get(src)
        if row is None:
            row = self._fanout_plans[src] = {}
        entry = row.get(id(dests))
        if entry is None or entry[0] is not dests:
            entry = self._build_fanout_plan(src, dests)
            if len(row) >= 64:
                # Callers are expected to intern their destination tuples;
                # a caller that does not would otherwise grow the cache
                # (and pin its tuples) without bound.
                row.clear()
            row[id(dests)] = entry
        _dests, pairs, scope_links = entry
        mtype = template.mtype
        nbytes = self._data_bytes if mtype.has_data else self._ctrl_bytes
        keys = self._meter_keys[mtype.klass]
        mbytes = self._meter_bytes
        mmsgs = self._meter_msgs
        for scope, nlinks in scope_links:
            mbytes[keys[scope]] += nbytes * nlinks
            mmsgs[scope] += nlinks
        now = sim._now
        free = pool._free
        tdict = template.__dict__
        # Kernel internals hoisted for the inlined no-handle scheduling
        # below (the exact ``call_at`` body; arrivals can never precede
        # ``now`` — serialization is >= 1 ps — so the past-check is
        # statically satisfied).
        queue = sim._queue
        efree = sim._free_events
        pending = 0
        for dst, endpoint, route in pairs:
            # Inlined pool.clone (same counter and uid-draw order).
            pool.acquires += 1
            if free:
                msg = free.pop()
                d = msg.__dict__
                d.update(tdict)
                d["dst"] = dst
                d["uid"] = next(_msg_ids)
                d["_pooled"] = True
            else:
                pool.news += 1
                msg = template.clone_to(dst)
                msg.__dict__["_pooled"] = True
            arrival = now
            for link in route:
                if link.plain:
                    ser = -(-nbytes * link._ser_num // link._ser_den)
                    if ser < 1:
                        ser = 1
                    begin = link.busy_until
                    if arrival > begin:
                        begin = arrival
                    link.busy_until = begin + ser
                    link.bytes_carried += nbytes
                    arrival = begin + ser + link.latency_ps
                else:
                    arrival = link.traverse(arrival, nbytes)
            # Inlined Simulator.call_at (identical time/seq semantics).
            sim._seq = seq = sim._seq + 1
            if efree:
                event = efree.pop()
                event[0] = arrival
                event[1] = seq
                event[2] = endpoint
                event[3] = msg
            else:
                sim.event_news += 1
                event = [arrival, seq, endpoint, msg, True]
            pending += 1
            heappush(queue, event)
        sim._pending += pending

    def _build_fanout_plan(self, src: NodeId, dests):
        """Resolve a broadcast's per-destination (endpoint, route) pairs.

        Returns ``(dests, pairs, scope_links)`` — the dests tuple itself
        (kept so the identity-keyed cache holds its key alive), one
        ``(dst, endpoint, route)`` triple per destination, and the total
        link count per scope for aggregate metering.  A destination
        without a registered endpoint or a route raises ``ConfigError``,
        as in ``send``.
        """
        by_dst = self._route_row(src) or {}
        endpoint_of = self._endpoint_of
        pairs = []
        counts: Dict[Scope, int] = {}
        for dst in dests:
            endpoint = endpoint_of(dst)
            if endpoint is None:
                raise ConfigError(f"no endpoint registered for {dst}")
            route = by_dst.get(dst)
            if route is None:
                raise ConfigError(f"no route from {src} to {dst}")
            pairs.append((dst, endpoint, route))
            for link in route:
                scope = link.scope
                counts[scope] = counts.get(scope, 0) + 1
        return (dests, tuple(pairs), tuple(counts.items()))

    def release(self, msg: Message) -> None:
        """Return a delivered pooled message to the pool (no-op for
        messages the pool does not own, including with pooling off)."""
        self.pool.release(msg)

    def _deliver_traced(self, msg: Message) -> None:
        """Delivery shim used while tracing: emit ``msg.recv``, then act.

        ``msg.recv`` marks the *nominal* arrival at the endpoint; on a
        fault-injected machine the injector's ``fault.*`` events follow it
        when the delivery is then dropped, duplicated or rescheduled.
        """
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.msg_recv(msg)
        self._endpoints[msg.dst](msg)

    def send_later(self, delay_ps: int, msg: Message) -> None:
        """Send ``msg`` after a local processing delay (e.g. DRAM access).

        Fault-injection wrappers override this so a token-carrying message
        counts as in flight from the moment its sender gave the tokens up,
        not from when it finally enters the interconnect.
        """
        self.sim.schedule(delay_ps, self.send, msg)

    def token_absorbed(self, msg: Message) -> None:
        """A controller folded ``msg``'s tokens into its state (no-op here;
        fault-injection wrappers use it to retire in-flight tracking)."""

    # ------------------------------------------------------------------
    def _path(self, src: NodeId, dst: NodeId) -> List[Link]:
        """Egress links a message crosses from ``src`` to ``dst``.

        The reference branch ladder for the *default* (``ptp``) topology.
        ``send`` reads the precomputed ``_routes_from`` table instead; this
        stays as the executable statement of the Table-3 routing rules
        (and the oracle the route-cache tests replay against the graph).
        """
        if not self.topology.is_default:
            raise ConfigError(
                f"_path describes the default ptp fabric only; "
                f"topology {self.topology.generator!r} routes on the graph"
            )
        if src == dst:
            return []
        p = self.params
        links = self._links

        def intra(node: NodeId) -> Link:
            return links[f"intra:{node}"]

        def inter(chip: int) -> Link:
            return links[f"inter:{chip}"]

        src_mem = src.kind in (NodeKind.MEM, NodeKind.ARB)
        dst_mem = dst.kind in (NodeKind.MEM, NodeKind.ARB)

        if src_mem and dst_mem:
            if src.chip == dst.chip:  # arbiter <-> memory controller, same site
                return []
            return [links[f"mem-in:{src.chip}"], inter(src.chip), links[f"mem-out:{dst.chip}"]]

        if src_mem:
            hops = [links[f"mem-in:{src.chip}"]]
            if src.chip != dst.chip:
                hops.append(inter(src.chip))
                # Same dst-IFACE exception as the cache-source branch
                # below: the interface sits on the fabric, so delivery to
                # it never re-crosses its own intra egress link.  (No
                # traffic is affected — interfaces are routing points,
                # never registered endpoints.)
                if dst.kind is not NodeKind.IFACE:
                    hops.append(intra(p.iface_of(dst.chip)))
            return hops

        if dst_mem:
            hops = [] if src.kind is NodeKind.IFACE else [intra(src)]
            if src.chip != dst.chip:
                hops.append(inter(src.chip))
            hops.append(links[f"mem-out:{dst.chip}"])
            return hops

        # chip component to chip component
        if src.chip == dst.chip:
            return [intra(src)]
        hops = [] if src.kind is NodeKind.IFACE else [intra(src)]
        hops.append(inter(src.chip))
        if dst.kind is not NodeKind.IFACE:
            hops.append(intra(p.iface_of(dst.chip)))
        return hops

    # ------------------------------------------------------------------
    def links_by_name(self) -> Dict[str, Link]:
        """Read-only view of every physical link, keyed by name.

        The canonical enumeration surface for observers (the telemetry
        sampler probes each link's counters through this); callers must
        not mutate the returned links.
        """
        return dict(self._links)

    def link_utilization(self) -> Dict[str, int]:
        """Bytes carried per link (diagnostics)."""
        return {name: self._links[name].bytes_carried for name in sorted(self._links)}

    def buffer_report(self) -> Dict[str, Dict[str, int]]:
        """Overflow diagnostics for links declared with ``buffer_bytes``."""
        out: Dict[str, Dict[str, int]] = {}
        for name in sorted(self._links):
            link = self._links[name]
            if isinstance(link, BufferedLink):
                out[name] = {
                    "buffer_bytes": link.buffer_bytes,
                    "peak_backlog_bytes": link.peak_backlog_bytes,
                    "overflow_events": link.overflow_events,
                }
        return out
