"""Tests for the frontier-memoized enumeration kernel (repro.core.kernel).

The kernel is the only path behind ``is_allowed``, ``enumerate_outcomes``
and ``enumerate_executions``.  These tests hold it to a deliberately naive
reference that never touches the kernel (:func:`_naive_executions`: every
topological order, the literal LoadValue axiom, full-ppo and per-location
SC as post-filters) on every registered model and on ``.model`` variants
that reach each branch the kernel has: store identity, the same-store
rule, and the coherence edges under both load-value axioms.  The same
reference is cross-checked against the GAM and GAM0 abstract machines.
They also pin the solved-DP cache key and the outcome-directed register
pruning of ``is_allowed``.
"""

import pytest

from repro.core.axiomatic import (
    CandidatePrefix,
    MemoryModel,
    enumerate_executions,
    enumerate_outcomes,
    is_allowed,
    project_outcome,
)
from repro.core.events import Execution
from repro.core.operational import GAM0_MACHINE, GAM_MACHINE, operational_outcomes
from repro.core.perloc_sc import execution_is_per_location_sc
from repro.core.ppo import DynamicClause, compute_ppo, project_to_memory
from repro.litmus.dsl import LitmusBuilder
from repro.litmus.frontend.suite import resolve_suite
from repro.litmus.registry import all_tests, get_test
from repro.models.registry import MODELS, get_model

_ALPHA_PPO = "ppo SAMemSt\nppo SARmwLd\nppo FenceOrd\n"
_GAM0_PPO = _ALPHA_PPO + "ppo RegRAW\nppo SAStLd\nppo AddrSt\nppo BrSt\n"

VARIANTS = {
    "sclv-coherent": "loadvalue sc\ncoherence required\n" + _ALPHA_PPO,
    "ss-coherent": "coherence required\nppo PairwiseOrder(S,S)\n",
    "gam0-coherent": "coherence required\n" + _GAM0_PPO,
    "arm-coherent": "coherence required\n" + _GAM0_PPO + "dynamic SALdLdARM\n",
    "alpha-arm": _ALPHA_PPO + "dynamic SALdLdARM\n",
}
"""``.model`` bodies that, with ``arm`` and ``plsc``, reach every kernel
branch: coherence edges under LoadValueSC and LoadValueGAM, coherence
without SAMemSt, coherence combined with SALdLdARM, and SALdLdARM over
the weakest static DAG."""


def _variant(name):
    return MemoryModel.from_spec(f"model {name}\n{VARIANTS[name]}")


def _sweep_models():
    return [get_model(name) for name in MODELS] + [_variant(n) for n in VARIANTS]


def _naive_executions(test, model, extra_values=(), prefix=None):
    """Every execution by brute force, never calling the kernel.

    Each topological order of the static DAG (ready nodes in ascending
    index, an RMW's store half right after its load half) is a candidate
    ``mo``; it survives if every load reads what the literal LoadValue
    axiom gives it, if it respects every (static + dynamic) ppo edge, and,
    under ``coherence required``, if the execution is per-location SC.
    """
    if prefix is None or not prefix.covers(extra_values):
        prefix = CandidatePrefix(test, extra_values)
    for combo_index in range(len(prefix.combos)):
        candidate = prefix.candidate(combo_index, model)
        if candidate is None:
            continue
        pairs = candidate.rmw_pairs
        nodes = [e.eid for e in candidate.events if e.eid not in pairs.values()]
        node_of = {eid: eid for eid in nodes} | {st: ld for ld, st in pairs.items()}
        preds = {node: set() for node in nodes}
        for a, b in candidate.mem_edges:
            if node_of[a] != node_of[b]:
                preds[node_of[b]].add(node_of[a])
        for order in _topological_orders(nodes, preds, ()):
            mo = tuple(e.eid for e in candidate.inits)
            for node in order:
                mo += (node, pairs[node]) if node in pairs else (node,)
            execution = _naive_execution(candidate, model, mo)
            if execution is not None and (
                not model.requires_coherence
                or execution_is_per_location_sc(execution)
            ):
                yield execution


def _topological_orders(nodes, preds, order):
    if len(order) == len(nodes):
        yield order
    placed = set(order)
    for node in nodes:
        if node not in placed and preds[node] <= placed:
            yield from _topological_orders(nodes, preds, order + (node,))


def _naive_execution(candidate, model, mo):
    position = {eid: i for i, eid in enumerate(mo)}
    stores = [e for e in candidate.inits + candidate.events if e.is_store]
    rf, final_mem = {}, {}
    for eid in mo:
        event = candidate.event_by_id[eid]
        if event.is_store:
            final_mem[event.addr] = event.value
            continue
        visible = [
            s
            for s in stores
            if s.addr == event.addr and position[s.eid] < position[eid]
        ]
        if model.load_value == "gam" and eid not in candidate.no_forward:
            visible += candidate.po_stores.get(eid, ())
        source = max(visible, key=lambda s: position[s.eid])
        if source.value != event.value:
            return None
        rf[eid] = source.eid
    for proc, ctx in enumerate(candidate.contexts):
        rf_local = {index: src for (p, index), src in rf.items() if p == proc}
        ppo = compute_ppo(ctx, model.clauses, model.dynamic_clauses, rf_local)
        for a, b in project_to_memory(ctx, ppo):
            if position[candidate.src_eid(proc, a)] >= position[(proc, b)]:
                return None
    return Execution(
        runs=candidate.runs,
        events=candidate.events,
        inits=candidate.inits,
        mo=mo,
        rf=rf,
        final_regs={
            (proc, reg): value
            for proc, run in enumerate(candidate.runs)
            for reg, value in run.final_regs.items()
        },
        final_mem=final_mem,
    )


def _reference_allowed(test, model, outcome, prefix=None):
    """The verdict read off every execution of the naive reference."""
    extra = {v for _, _, v in outcome.regs} | {v for _, v in outcome.mem}
    return any(
        outcome.matches(execution.final_regs, execution.final_mem)
        for execution in _naive_executions(test, model, extra, prefix=prefix)
    )


def _assert_parity(test, models, prefix=None):
    """``enumerate_executions`` must yield the naive reference's sequence,
    and kernel outcome sets and verdicts must equal its projection."""
    for model in models:
        executions = list(_naive_executions(test, model, prefix=prefix))
        assert list(enumerate_executions(test, model, prefix=prefix)) == executions, (
            f"{test.name} x {model.name}: execution sequences diverge"
        )
        reference = frozenset(
            project_outcome(test, e.final_regs, e.final_mem, "full")
            for e in executions
        )
        kernel = enumerate_outcomes(test, model, project="full", prefix=prefix)
        assert kernel == reference, f"{test.name} x {model.name}: outcome sets diverge"
        if test.asked is not None:
            expected = any(
                test.asked.matches(e.final_regs, e.final_mem) for e in executions
            )
            assert is_allowed(test, model, prefix=prefix) == expected, (
                f"{test.name} x {model.name}: verdicts diverge"
            )


def _assert_machine_parity(test):
    """The naive reference's full outcome set must equal what the GAM and
    GAM0 abstract machines reach: axioms and machines cross-checked without
    the kernel in between."""
    for name, variant in (("gam", GAM_MACHINE), ("gam0", GAM0_MACHINE)):
        reference = frozenset(
            project_outcome(test, e.final_regs, e.final_mem, "full")
            for e in _naive_executions(test, get_model(name))
        )
        machine = operational_outcomes(test, variant, project="full")
        assert reference == machine, (
            f"{test.name} x {name}: reference-only "
            f"{sorted(map(str, reference - machine))[:3]}, machine-only "
            f"{sorted(map(str, machine - reference))[:3]}"
        )


class TestDispatch:
    def test_auto_uses_kernel_for_static_models(self):
        test = get_test("dekker")
        prefix = CandidatePrefix(test)
        enumerate_outcomes(test, get_model("gam"), prefix=prefix)
        assert prefix._kernels

    @pytest.mark.parametrize("name", ["arm", "plsc"])
    def test_dynamic_and_coherent_models_use_the_kernel(self, name):
        test = get_test("corr")
        prefix = CandidatePrefix(test)
        enumerate_outcomes(test, get_model(name), prefix=prefix)
        assert prefix._kernels

    def test_unknown_dynamic_clause_rejected(self):
        class Unknown(DynamicClause):
            name = "Unknown"

            def edges(self, ctx, rf_local):
                return ()

        base = get_model("gam0")
        model = MemoryModel(
            name="unknown-dynamic",
            clauses=base.clauses,
            dynamic_clauses=(Unknown(),),
        )
        with pytest.raises(ValueError, match="Unknown"):
            enumerate_outcomes(get_test("mp"), model)


class TestKernelInternals:
    def test_models_with_equal_dags_share_one_kernel(self):
        # gam0 and rmo are the same clause set; the prefix must solve one DP.
        test = get_test("corr")
        prefix = CandidatePrefix(test)
        enumerate_outcomes(test, get_model("gam0"), prefix=prefix)
        kernels_after_first = len(prefix._kernels)
        enumerate_outcomes(test, get_model("rmo"), prefix=prefix)
        assert len(prefix._kernels) == kernels_after_first

    @pytest.mark.parametrize(
        "weaker, stronger, test_name",
        [
            ("gam0", "arm", "rnsw"),
            ("alpha_like", "plsc", "corr"),
            ("alpha_like", "plsc", "corr3"),
        ],
    )
    def test_memo_key_separates_models_sharing_a_dag(
        self, weaker, stronger, test_name
    ):
        # arm shares gam0's static DAG and plsc shares alpha_like's; a
        # kernel key without the dynamic clauses and coherence flag would
        # hand the stronger model the weaker one's solved DP.
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        assert is_allowed(test, get_model(weaker), prefix=prefix)
        assert not is_allowed(test, get_model(stronger), prefix=prefix)

    def test_final_memories_align_with_addresses(self):
        test = get_test("coww")
        prefix = CandidatePrefix(test)
        model = get_model("gam")
        candidate = prefix.candidate(0, model)
        kernel = prefix.kernel_for(0, candidate, model)
        for values in kernel.final_memories():
            assert len(values) == len(kernel.addresses)
            memory = kernel.as_memory(values)
            assert set(memory) == set(kernel.addresses)

    def test_unrealizable_combo_has_no_final_memory(self):
        # A single processor reading 1 from 'a' with no store to 'a' builds
        # no candidate at all; a load of a never-stored *feasible* value is
        # pruned inside the DP instead.  Exercise the DP branch: r1=0 then
        # r1=1 from the same address with only one store of 1 — the 0-then-
        # missing orderings die mid-placement, yet outcomes survive.
        builder = LitmusBuilder("kernel-prune", locations=("a",))
        builder.proc().st("a", 1)
        builder.proc().ld("r1", "a").ld("r2", "a")
        test = builder.build(asked={"P1.r1": 1, "P1.r2": 0})
        for name in ("sc", "arm", "plsc"):
            model = get_model(name)
            assert is_allowed(test, model) == _reference_allowed(
                test, model, test.asked
            ), name

    @pytest.mark.parametrize("test_name", ["rmw-swap", "rmw-fetch-add", "rmw+ld"])
    def test_rmw_composite_nodes(self, test_name):
        test = get_test(test_name)
        _assert_parity(test, _sweep_models())


class TestParityQuick:
    """Kernel vs the naive reference on representative figures (tier-1)."""

    @pytest.mark.parametrize(
        "test_name",
        ["dekker", "mp", "corr", "coww", "iriw", "rsw", "store-forwarding"],
    )
    def test_paper_figures_parity(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        _assert_parity(test, [get_model(n) for n in ("sc", "gam", "wmm")], prefix)

    @pytest.mark.parametrize(
        "test_name",
        ["rsw", "rnsw", "corr", "coww", "mp", "corw1", "cowr", "iriw", "dekker"],
    )
    def test_dynamic_and_coherent_parity(self, test_name):
        test = get_test(test_name)
        _assert_parity(test, _sweep_models(), CandidatePrefix(test))

    def test_explicit_outcome_with_memory_constraint(self):
        test = get_test("coww")
        addr_outcome = test.parse_outcome({"a": 2})
        for name in ("sc", "gam", "arm", "plsc"):
            model = get_model(name)
            assert is_allowed(test, model, addr_outcome) == _reference_allowed(
                test, model, addr_outcome
            ), name


class TestMachineParity:
    """The naive reference vs the GAM and GAM0 abstract machines."""

    @pytest.mark.parametrize("test_name", ["dekker", "mp", "corr", "iriw", "rsw"])
    def test_paper_figures(self, test_name):
        _assert_machine_parity(get_test(test_name))

    @pytest.mark.slow
    def test_registered_suite(self):
        for test in all_tests():
            _assert_machine_parity(test)

    @pytest.mark.slow
    def test_random_suite(self):
        # Includes rand-1-8 and rand-1-14, where GAM0's store-address kill
        # search once stopped at an unissued same-address load.
        for test in resolve_suite("rand:n=40,seed=1"):
            _assert_machine_parity(test)


@pytest.mark.slow
class TestParityFull:
    """The differential parity sweep: every registered model and the
    ``.model`` variants over the registered suite, a generated suite and a
    random-program sample."""

    def test_registered_suite_parity(self):
        models = _sweep_models()
        for test in all_tests():
            _assert_parity(test, models, CandidatePrefix(test))

    def test_generated_suite_parity(self):
        models = _sweep_models()
        for test in resolve_suite("gen:edges=4"):
            _assert_parity(test, models, CandidatePrefix(test))

    def test_random_suite_parity(self):
        models = _sweep_models()
        for test in resolve_suite("rand:n=100,seed=1"):
            _assert_parity(test, models, CandidatePrefix(test))
