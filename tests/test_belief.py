import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pentestplan.belief import (
    BeliefError,
    DependencyModel,
    MarkovChain,
    ProgramModel,
    check_normalized,
    evolve_chain,
    initial_belief,
)


def two_state_chain(stay=0.9):
    return MarkovChain(("old", "new"), [[stay, 1 - stay], [0.0, 1.0]])


class TestMarkovChain:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(BeliefError):
            MarkovChain(("a", "b"), [[0.5, 0.4], [0.0, 1.0]])

    def test_entries_must_be_probabilities(self):
        with pytest.raises(BeliefError):
            MarkovChain(("a", "b"), [[1.5, -0.5], [0.0, 1.0]])

    def test_shape_must_match_states(self):
        with pytest.raises(BeliefError):
            MarkovChain(("a", "b", "c"), [[1.0, 0.0], [0.0, 1.0]])

    def test_unknown_label(self):
        with pytest.raises(BeliefError):
            two_state_chain().index("missing")


class TestEvolveChain:
    def test_zero_days_is_a_point_mass(self):
        assert evolve_chain(two_state_chain(), "old", 0) == {"old": 1.0}

    def test_matches_independent_matrix_power(self):
        # oracle: plain numpy matrix power, computed right here
        stay, days = 0.93, 17
        expected_old = stay**days
        dist = evolve_chain(two_state_chain(stay), "old", days)
        assert dist["old"] == pytest.approx(expected_old, abs=1e-12)
        assert dist["new"] == pytest.approx(1 - expected_old, abs=1e-12)

    def test_absorbing_state_stays_put(self):
        assert evolve_chain(two_state_chain(), "new", 40) == {"new": 1.0}

    def test_negative_days_rejected(self):
        with pytest.raises(BeliefError):
            evolve_chain(two_state_chain(), "old", -1)


class TestDependencyModel:
    def test_duplicate_names_rejected(self):
        p = ProgramModel("a", two_state_chain())
        with pytest.raises(BeliefError):
            DependencyModel(programs=(p, p))

    def test_unknown_parent_rejected(self):
        p = ProgramModel("a", two_state_chain(), parents=("ghost",))
        with pytest.raises(BeliefError):
            DependencyModel(programs=(p,))

    def test_dependency_cycle_rejected(self):
        a = ProgramModel("a", two_state_chain(), parents=("b",))
        b = ProgramModel("b", two_state_chain(), parents=("a",))
        with pytest.raises(BeliefError, match="cycle"):
            DependencyModel(programs=(a, b))

    def test_compatibility_filters_tuples(self):
        os = ProgramModel("os", two_state_chain())
        app = ProgramModel("app", two_state_chain(), parents=("os",))
        model = DependencyModel(
            programs=(app, os),
            compatibility={"app": {("old", "old"), ("new", "new")}},
        )
        assert model.compatible(("old", "old"))
        assert not model.compatible(("old", "new"))

    def test_compatible_reads_parents_by_name(self):
        # parents listed out of program order, one unconstrained program in
        # between: compare against the constraint read by program name
        chain = MarkovChain(("a", "b", "c"), np.eye(3))
        top = ProgramModel("top", chain, parents=("low", "base"))
        mid = ProgramModel("mid", chain)
        base = ProgramModel("base", chain)
        low = ProgramModel("low", chain, parents=("base",))
        compatibility = {
            "top": {("a", "a", "a"), ("b", "c", "a"), ("c", "b", "c")},
            "low": {("a", "a"), ("c", "a"), ("b", "c")},
        }
        model = DependencyModel(programs=(top, mid, base, low), compatibility=compatibility)
        seen = set()
        for config in itertools.product("abc", repeat=4):
            v = dict(zip(("top", "mid", "base", "low"), config))
            expected = (
                (v["top"], v["low"], v["base"]) in compatibility["top"]
                and (v["low"], v["base"]) in compatibility["low"]
            )
            assert model.compatible(config) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_program_by_name(self):
        a = ProgramModel("a", two_state_chain())
        b = ProgramModel("b", two_state_chain(), port=80)
        model = DependencyModel(programs=(a, b))
        assert model.program("b") is b and model.program("a") is a
        with pytest.raises(KeyError):
            model.program("ghost")


class TestInitialBelief:
    def test_independent_programs_are_a_product(self):
        a = ProgramModel("a", two_state_chain(0.8))
        b = ProgramModel("b", two_state_chain(0.6))
        model = DependencyModel(programs=(a, b))
        belief = initial_belief(model, ("old", "old"), 3)
        # oracle: closed-form product of the two marginals
        pa, pb = 0.8**3, 0.6**3
        assert belief[("old", "old")] == pytest.approx(pa * pb, abs=1e-12)
        assert belief[("new", "new")] == pytest.approx((1 - pa) * (1 - pb), abs=1e-12)
        check_normalized(belief)

    def test_fast_path_agrees_with_daily_expansion(self):
        # an all-permissive constraint forces the day-by-day joint expansion
        a = ProgramModel("a", two_state_chain(0.8))
        b = ProgramModel("b", two_state_chain(0.6))
        free = DependencyModel(programs=(a, b))
        every = {("old", ), ("new", )}
        constrained = DependencyModel(programs=(a, b), compatibility={"a": every})
        fast = initial_belief(free, ("old", "old"), 7)
        slow = initial_belief(constrained, ("old", "old"), 7)
        assert set(fast) == set(slow)
        for config in fast:
            assert fast[config] == pytest.approx(slow[config], abs=1e-9)

    def test_incompatible_start_rejected(self):
        os = ProgramModel("os", two_state_chain())
        app = ProgramModel("app", two_state_chain(), parents=("os",))
        model = DependencyModel(
            programs=(app, os), compatibility={"app": {("new", "new")}}
        )
        with pytest.raises(BeliefError, match="incompatible"):
            initial_belief(model, ("old", "old"), 1)

    def test_filtering_renormalizes(self):
        # app must track os exactly; surviving mass is renormalized daily
        os = ProgramModel("os", two_state_chain(0.5))
        app = ProgramModel("app", two_state_chain(0.5), parents=("os",))
        model = DependencyModel(
            programs=(app, os),
            compatibility={"app": {("old", "old"), ("new", "new")}},
        )
        belief = initial_belief(model, ("old", "old"), 5)
        check_normalized(belief)
        for config in belief:
            assert config in {("old", "old"), ("new", "new")}


@settings(max_examples=50, deadline=None)
@given(
    stay_a=st.floats(0.05, 0.95),
    stay_b=st.floats(0.05, 0.95),
    days=st.integers(0, 40),
)
def test_initial_belief_is_always_normalized(stay_a, stay_b, days):
    model = DependencyModel(
        programs=(
            ProgramModel("a", two_state_chain(stay_a)),
            ProgramModel("b", two_state_chain(stay_b)),
        )
    )
    check_normalized(initial_belief(model, ("old", "old"), days))
