"""Tests for the frontier-memoized enumeration kernel (repro.core.kernel).

The kernel is the only path behind ``is_allowed`` and
``enumerate_outcomes``.  These tests hold it to the exact order
enumerator behind ``enumerate_executions`` (differential parity — the
exactness argument made executable) on every registered model and on
``.model`` variants that reach each branch the kernel has: store
identity, the same-store rule, and the coherence edges under both
load-value axioms.  They also pin the solved-DP cache key and the
outcome-directed register pruning of ``is_allowed``.
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
from repro.core.ppo import DynamicClause
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


def _reference_allowed(test, model, outcome, prefix=None):
    """The verdict read off every execution the order enumerator yields."""
    extra = {v for _, _, v in outcome.regs} | {v for _, v in outcome.mem}
    return any(
        outcome.matches(execution.final_regs, execution.final_mem)
        for execution in enumerate_executions(test, model, extra, prefix=prefix)
    )


def _assert_parity(test, models, prefix=None):
    """Kernel outcome sets and verdicts must equal the projected
    executions of :func:`enumerate_executions`."""
    for model in models:
        executions = list(enumerate_executions(test, model, prefix=prefix))
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
    """Kernel vs order enumerator on representative figures (tier-1)."""

    @pytest.mark.parametrize(
        "test_name",
        ["dekker", "mp", "corr", "coww", "iriw", "rsw", "store-forwarding"],
    )
    def test_paper_figures_parity(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        _assert_parity(test, [get_model(n) for n in ("sc", "gam", "wmm")], prefix)

    @pytest.mark.parametrize(
        "test_name", ["rsw", "rnsw", "corr", "coww", "mp", "corw1", "cowr"]
    )
    def test_dynamic_and_coherent_parity(self, test_name):
        test = get_test(test_name)
        prefix = CandidatePrefix(test)
        models = [get_model("arm"), get_model("plsc")]
        _assert_parity(test, models + [_variant(n) for n in VARIANTS], prefix)

    def test_explicit_outcome_with_memory_constraint(self):
        test = get_test("coww")
        addr_outcome = test.parse_outcome({"a": 2})
        for name in ("sc", "gam", "arm", "plsc"):
            model = get_model(name)
            assert is_allowed(test, model, addr_outcome) == _reference_allowed(
                test, model, addr_outcome
            ), name


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
