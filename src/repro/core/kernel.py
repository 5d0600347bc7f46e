"""Frontier-memoized bitmask enumeration kernel — the one axiomatic enumerator.

Backtracking through *every* topological order of the memory-event DAG is
factorial in event count, and a *forbidden* verdict — the dominant case in
differential hunts — must exhaust the whole space.  This module collapses
that search into a dynamic program over DAG antichains, exact for every
model the ``.model`` vocabulary can express.  Verdicts and outcome sets read
the solved DP's final memories; witnesses walk the solved DP
(:meth:`FrontierKernel.orders`) to materialize each legal memory order
without ever entering a dead branch.

**The abstract-state argument.**  Within one candidate value combination the
program runs are fixed, so final registers are fixed; the only thing a
memory order still decides is final memory and whether the combination is
realizable at all.  During the left-to-right construction of a memory
order, every remaining decision depends on exactly:

* *which events are already placed* — this determines the ready frontier
  (the antichain of events whose ppo predecessors are all placed) and
  whether a load's youngest program-order-earlier same-address store is
  still unplaced (the LoadValueGAM forwarding case);
* *the latest placed store per address* — this determines what a
  non-forwarding load reads and, at full placement, the final memory;
* *the pending same-store requirements* (below), when the model has any.

Two partial orders reaching the same state have identical sets of legal
completions and identical reachable final memories; exploring the state
once is exact.

**Store identity.**  Models with neither a dynamic clause nor a coherence
requirement only ever compare the value a load reads, so their state keeps
the last store's *value* per address.  ARM's SALdLdARM and per-location SC
compare the *store* two loads read, so for them the state keeps the last
store's identity instead.  The choice is made from the model itself.

**The same-store rule.**  Take two plain same-address loads on one
processor with no same-address store (or RMW) between them in program
order.  Both have the same program-order-earlier stores, so in any total
order the one placed later reads a store at least as coherence-late as the
one placed earlier.  SALdLdARM orders the pair unless both read the same
store; in a total order it therefore adds exactly one thing: *if the
younger load is placed first, the older one must read the same store*.
The state records the store the younger load read for as long as its older
partner is unplaced.

**Per-location SC.**  Herding Cats shows per-location SC is exactly the
absence of five patterns.  coWW never occurs (every model orders
same-address stores by program order).  coRW1 and coRW2 are excluded by an
edge from every access to each program-order-later same-address store.
coWR cannot occur under LoadValueGAM, which reads the youngest
program-order-earlier store or something later; under LoadValueSC an edge
from every store to each program-order-later same-address load excludes
it.  coRR, for load pairs with a same-address store between them, is
excluded by the coRW edges; for the remaining pairs it is precisely the
same-store rule above.  Each pattern is thus decided while the order is
built, one placement at a time.

**Representation.**  Events and edges are integer bitmasks: node ``i``'s
predecessors are a single ``pred_mask[i]`` int, readiness is two mask
operations, and the placed set is one int — no per-level ready-list
rescans, no dict-of-EventId successor maps, no set churn.  An RMW's two
halves form one composite node (the load half is checked against the
pre-placement state, then the store half's write is applied), realizing the
"accesses the memory system at one instant" semantics of Section III-C.

**Complexity.**  The DP visits each reachable state once and scans the
``n`` nodes per state: ``O(S * n)`` where ``S`` is bounded by (number of
antichain-downsets of the ppo DAG) x (number of reachable per-address
store tuples) x (pending requirements) — for litmus-sized tests a few
hundred states where a backtracker over orders walks millions of
interleavings.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator, Optional

from ..obs import incr as _obs_incr
from ..obs import observe as _obs_observe
from .events import EventId
from .ppo import SALdLd, SALdLdARM

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .axiomatic import MemoryModel, _Candidate

__all__ = ["FrontierKernel"]

_UNSET = -1
"""A same-store slot with no requirement (identity tokens are >= 0)."""


def _coherence_edges(
    candidate: "_Candidate", load_value_mode: str
) -> set[tuple[EventId, EventId]]:
    """The per-location-SC edges: coRW1/coRW2 always, coWR under LoadValueSC."""
    per_proc: dict[int, list] = {}
    for event in candidate.events:  # program order within each processor
        per_proc.setdefault(event.proc, []).append(event)
    edges: set[tuple[EventId, EventId]] = set()
    for stream in per_proc.values():
        for j, later in enumerate(stream):
            for earlier in stream[:j]:
                if earlier.addr != later.addr:
                    continue
                if later.is_store or (load_value_mode == "sc" and earlier.is_store):
                    edges.add((earlier.eid, later.eid))
    return edges


def _same_store_pairs(candidate: "_Candidate") -> list[tuple[EventId, EventId]]:
    """``(older, younger)`` plain same-address loads with no same-address
    store or RMW between them in program order — exactly SALdLd's edges."""
    return [
        ((proc, older), (proc, younger))
        for proc, ctx in enumerate(candidate.contexts)
        for older, younger in SALdLd().edges(ctx)
    ]


class FrontierKernel:
    """The frontier DP for one candidate DAG under one model.

    Built from a specialized candidate (events plus the model's static-ppo
    memory DAG); :meth:`final_memories` answers "which final memories can a
    legal memory order reach?" without materializing any order, and
    :meth:`orders` lists the legal orders themselves.  Instances
    are cached by :class:`repro.core.axiomatic.CandidatePrefix`, so models
    with identical clause sets share one solved DP.

    Raises:
        ValueError: the model has a dynamic clause the kernel cannot decide.
    """

    __slots__ = (
        "addresses",
        "node_eids",
        "_n",
        "_full",
        "_pred_mask",
        "_checks",
        "_rules",
        "_writes",
        "_stored",
        "_init_stores",
        "_init_state",
        "_token_values",
        "_memo",
        "_finals",
    )

    def __init__(self, candidate: "_Candidate", model: "MemoryModel") -> None:
        for clause in model.dynamic_clauses:
            if type(clause) is not SALdLdARM:
                raise ValueError(
                    f"the frontier kernel cannot decide dynamic clause "
                    f"{clause.name!r} of model {model.name!r}"
                )
        load_value_mode = model.load_value
        identity = bool(model.dynamic_clauses) or model.requires_coherence

        pairs = candidate.rmw_pairs
        folded = set(pairs.values())
        node_eids = [e.eid for e in candidate.events if e.eid not in folded]
        node_of = {eid: i for i, eid in enumerate(node_eids)}
        for load_eid, store_eid in pairs.items():
            node_of[store_eid] = node_of[load_eid]

        edges = set(candidate.mem_edges)
        if model.requires_coherence:
            edges |= _coherence_edges(candidate, load_value_mode)
        n = len(node_eids)
        pred_mask = [0] * n
        for a, b in edges:
            node_a, node_b = node_of[a], node_of[b]
            if node_a != node_b:
                pred_mask[node_b] |= 1 << node_a

        self.addresses: tuple[int, ...] = tuple(
            sorted({e.addr for e in itertools.chain(candidate.inits, candidate.events)})
        )
        slot = {addr: i for i, addr in enumerate(self.addresses)}

        # A store's token is its value, or under identity its position in
        # ``token_values`` (inits first).  The state tuple holds one token
        # per address, then one same-store slot per older partner load.
        token_values: list[int] = []
        token_of: dict[EventId, int] = {}
        for event in itertools.chain(candidate.inits, candidate.events):
            if event.is_store:
                token_of[event.eid] = len(token_values) if identity else event.value
                token_values.append(event.value)
        init_state = [0] * len(self.addresses)
        init_stores: list[Optional[EventId]] = [None] * len(self.addresses)
        for event in candidate.inits:
            init_state[slot[event.addr]] = token_of[event.eid]
            init_stores[slot[event.addr]] = event.eid

        rules: list[Optional[tuple[int, tuple[tuple[int, int], ...]]]] = [None] * n
        if identity:
            partners: dict[int, list[tuple[int, int]]] = {}
            own_slot: dict[int, int] = {}
            for older, younger in _same_store_pairs(candidate):
                older_node = node_of[older]
                if older_node not in own_slot:
                    own_slot[older_node] = len(init_state)
                    init_state.append(_UNSET)
                partners.setdefault(node_of[younger], []).append(
                    (older_node, own_slot[older_node])
                )
            for node in own_slot.keys() | partners.keys():
                rules[node] = (
                    own_slot.get(node, _UNSET),
                    tuple(partners.get(node, ())),
                )

        # Per node: an optional load check ``(slot, accepted tokens,
        # fwd_bit, fwd_token)`` (fwd_bit < 0: no forwarding candidate) and
        # an optional store write ``(slot, token)`` (the store half for RMWs).
        checks: list[Optional[tuple[int, frozenset[int], int, int]]] = [None] * n
        writes: list[Optional[tuple[int, int]]] = [None] * n
        stored: list[Optional[EventId]] = [None] * n  # eid each node writes
        for i, eid in enumerate(node_eids):
            event = candidate.event_by_id[eid]
            if event.is_store:
                writes[i] = (slot[event.addr], token_of[eid])
                stored[i] = eid
                continue
            fwd_bit, fwd_token = -1, _UNSET
            if load_value_mode == "gam" and eid not in candidate.no_forward:
                po_stores = candidate.po_stores.get(eid, ())
                if po_stores:
                    fwd_bit = node_of[po_stores[-1].eid]
                    fwd_token = token_of[po_stores[-1].eid]
            accepted = frozenset(
                token_of[store.eid]
                for store in itertools.chain(candidate.inits, candidate.events)
                if store.is_store
                and store.addr == event.addr
                and store.value == event.value
            )
            checks[i] = (slot[event.addr], accepted, fwd_bit, fwd_token)
            store_eid = pairs.get(eid)
            if store_eid is not None:
                writes[i] = (slot[event.addr], token_of[store_eid])
                stored[i] = store_eid

        self.node_eids: tuple[EventId, ...] = tuple(node_eids)
        self._n = n
        self._full = (1 << n) - 1
        self._pred_mask = pred_mask
        self._checks = checks
        self._rules = rules
        self._writes = writes
        self._stored = stored
        self._init_stores = init_stores
        self._init_state = tuple(init_state)
        self._token_values = token_values if identity else None
        self._memo: dict[tuple[int, tuple[int, ...]], frozenset] = {}
        self._finals: Optional[frozenset[tuple[int, ...]]] = None
        _obs_incr("kernel.builds")

    def final_memories(self) -> frozenset[tuple[int, ...]]:
        """All final memories (values aligned with :attr:`addresses`) some
        legal memory order reaches; empty iff no legal order exists (the
        combination is unrealizable)."""
        if self._finals is None:
            self._finals = self._solve(0, self._init_state)
            # Telemetry at the solve boundary only — never in the DP loop.
            _obs_incr("kernel.dp.states", len(self._memo))
            _obs_observe("kernel.frontier.nodes", len(self._finals))
        return self._finals

    def as_memory(self, values: tuple[int, ...]) -> dict[int, int]:
        """One :meth:`final_memories` tuple as an ``addr -> value`` dict."""
        return dict(zip(self.addresses, values))

    def orders(self) -> Iterator[tuple[tuple[int, ...], dict[EventId, EventId]]]:
        """Every legal placement order, as node indices, in lexicographic
        order, with the store each load reads from (load eid -> store eid).

        Solves first, then walks from the initial state trying ready nodes
        in ascending index and descending only into children whose memoized
        completion set is non-empty, so every branch taken yields an order.
        A load reads its forwarding node's store while that node is
        unplaced, else the last placed store to its address.
        """
        if not self.final_memories():
            return
        order: list[int] = []
        reads: list[tuple[EventId, EventId]] = []
        last = list(self._init_stores)

        def walk(
            placed: int, state: tuple[int, ...]
        ) -> Iterator[tuple[tuple[int, ...], dict[EventId, EventId]]]:
            if placed == self._full:
                yield tuple(order), dict(reads)
                return
            for i, successor in self._successors(placed, state):
                child = placed | 1 << i
                if child != self._full and not self._memo[(child, successor)]:
                    continue
                check = self._checks[i]
                if check is not None:
                    addr_slot, _, fwd_bit, _ = check
                    forwarded = fwd_bit >= 0 and not placed >> fwd_bit & 1
                    source = self._stored[fwd_bit] if forwarded else last[addr_slot]
                    reads.append((self.node_eids[i], source))
                write = self._writes[i]
                if write is not None:
                    overwritten = last[write[0]]
                    last[write[0]] = self._stored[i]
                order.append(i)
                yield from walk(child, successor)
                order.pop()
                if write is not None:
                    last[write[0]] = overwritten
                if check is not None:
                    reads.pop()

        yield from walk(0, self._init_state)

    def _solve(
        self, placed: int, state: tuple[int, ...]
    ) -> frozenset[tuple[int, ...]]:
        if placed == self._full:
            token_values = self._token_values
            if token_values is None:
                return frozenset((state,))
            return frozenset(
                (tuple(token_values[t] for t in state[: len(self.addresses)]),)
            )
        key = (placed, state)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        solve = self._solve
        results: set[tuple[int, ...]] = set()
        for i, successor in self._successors(placed, state):
            results.update(solve(placed | 1 << i, successor))
        outcome = frozenset(results)
        self._memo[key] = outcome
        return outcome

    def _successors(
        self, placed: int, state: tuple[int, ...]
    ) -> list[tuple[int, tuple[int, ...]]]:
        """Each ready node ``i`` whose placement keeps the LoadValue axiom
        and the same-store rule, in ascending index, with the state after
        placing it."""
        pred_mask = self._pred_mask
        checks = self._checks
        rules = self._rules
        writes = self._writes
        children: list[tuple[int, tuple[int, ...]]] = []
        for i in range(self._n):
            bit = 1 << i
            if placed & bit or pred_mask[i] & ~placed:
                continue
            successor = state
            check = checks[i]
            if check is not None:
                addr_slot, accepted, fwd_bit, fwd_token = check
                if fwd_bit >= 0 and not placed >> fwd_bit & 1:
                    token = fwd_token
                else:
                    token = state[addr_slot]
                if token not in accepted:
                    continue
                rule = rules[i]
                if rule is not None:
                    successor = _apply_same_store(rule, placed, state, token)
                    if successor is None:
                        continue
            write = writes[i]
            if write is not None:
                addr_slot, token = write
                if successor[addr_slot] != token:
                    mutable = list(successor)
                    mutable[addr_slot] = token
                    successor = tuple(mutable)
            children.append((i, successor))
        return children


def _apply_same_store(
    rule: tuple[int, tuple[tuple[int, int], ...]],
    placed: int,
    state: tuple[int, ...],
    token: int,
) -> Optional[tuple[int, ...]]:
    """Place a load that read store ``token`` under the same-store rule.

    ``rule`` is ``(own_slot, partners)``: the slot holding the store this
    load must read if a younger partner was placed first (``_UNSET`` if it
    has no younger partner), and ``(older_node, slot)`` per older partner.
    Only the first younger partner placed is recorded: later ones read
    stores at least as coherence-late, and the older load, placed last,
    reads one at least as late again, so equality with the first implies
    equality with all.  Returns the successor state, or ``None`` if the
    rule is violated.
    """
    own_slot, partners = rule
    mutable = list(state)
    if own_slot >= 0:
        required = mutable[own_slot]
        if required != _UNSET:
            if required != token:
                return None
            mutable[own_slot] = _UNSET  # the slot is dead once its owner is placed
    for older_node, partner_slot in partners:
        if not placed >> older_node & 1 and mutable[partner_slot] == _UNSET:
            mutable[partner_slot] = token
    return tuple(mutable)
