"""Domain model: validation, costs, and both file formats."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import DIAMOND_TEXT, chain_instance, gen, network_of, routed_networks, scrambled_flow
from rmcif import (
    ABSOLUTE,
    CapacityViolation,
    ConservationViolation,
    Instance,
    InstanceFormatError,
    Network,
    SolutionRecord,
    WrongFlowValue,
    compute_optima,
    flow_value_of,
    format_solution,
    parse_instance,
    validate_flow,
    write_instance,
)
from rmcif import core


class TestNetworkValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="source and a sink"):
            network_of(1, [])

    def test_vertex_range(self):
        with pytest.raises(ValueError, match="arc 1"):
            network_of(3, [(1, 4, 1)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            network_of(3, [(2, 2, 1)])

    def test_duplicate_pair(self):
        with pytest.raises(ValueError, match="duplicate"):
            network_of(3, [(1, 2, 1), (1, 2, 2)])

    def test_reverse_pair_allowed(self):
        net = network_of(3, [(1, 2, 1), (2, 1, 1), (2, 3, 1)])
        assert net.arc_count == 3

    def test_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            network_of(2, [(1, 2, -1)])

    def test_adjacency_indices(self):
        net = network_of(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        assert net.out_arcs[1] == (0, 2)
        assert [i for i, forward, _ in net.residual_adjacency[3] if not forward] == [1, 2]
        assert net.source == 1 and net.sink == 3

    def test_tails_follow_declaration_order(self):
        net = network_of(3, [(3, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 1), (2, 1, 0)])
        assert net.tails == (3, 1, 2, 1, 2)
        assert net.residual_adjacency[1] == (
            (0, False, 3), (1, True, 2), (3, True, 3), (4, False, 2)
        )
        assert net.residual_adjacency[2] == ((1, False, 1), (2, True, 3), (4, True, 1))
        assert net.arc_rows == (
            (0, 3, 1, 1), (1, 1, 2, 1), (2, 2, 3, 1), (3, 1, 3, 1), (4, 2, 1, 0)
        )

    @pytest.mark.parametrize("tails, heads, capacities", [
        ((1,), (2, 3), (1, 1)),
        ((1, 2), (2,), (1, 1)),
        ((1, 2), (2, 3), (1,)),
    ], ids=["tails", "heads", "capacities"])
    def test_short_array(self, tails, heads, capacities):
        message = "^tails, heads and capacities must have the same length$"
        with pytest.raises(ValueError, match=message):
            Network(3, tails, heads, capacities)

    def test_list_arguments_are_stored_as_tuples(self):
        tails, heads, capacities = [1, 2], [2, 3], [1, 1]
        net = Network(3, tails, heads, capacities)
        assert (net.tails, net.heads, net.capacities) == ((1, 2), (2, 3), (1, 1))
        assert net.out_arcs[1] == (0,)
        tails.append(1)
        heads.append(3)
        capacities.append(1)
        assert net.arc_count == 2
        assert net.out_arcs[1] == (0,)
        assert net.arc_rows == ((0, 1, 2, 1), (1, 2, 3, 1))
        assert Network(3, (1, 2), (2, 3), (1, 1)).out_arcs == net.out_arcs
        assert hash(net) == hash(Network(3, (1, 2), (2, 3), (1, 1)))


class TestScenarioSet:
    """The instance's cost rows: one per scenario, each judged against the arc count."""

    TWO_ARCS = Network(3, (1, 2), (2, 3), (1, 1))

    def test_empty(self):
        with pytest.raises(ValueError, match="^at least one scenario is required$"):
            Instance(self.TWO_ARCS, (), 1)

    def test_ragged(self):
        message = "^scenario 2: length mismatch: expected 2 costs, found 1$"
        with pytest.raises(ValueError, match=message):
            Instance(self.TWO_ARCS, ((1, 2), (1,)), 1)

    def test_negative_cost(self):
        with pytest.raises(ValueError, match="^scenario 1: cost must be nonnegative, got -2$"):
            Instance(self.TWO_ARCS, ((1, -2),), 1)

    def test_zero_costs_allowed(self):
        assert Instance(self.TWO_ARCS, ((0, 0),), 1).costs == ((0, 0),)

    def test_plain_rows_accepted(self):
        instance = Instance(Network(2, (1,), (2,), (1,)), ((1,),), 1)
        assert instance.costs == ((1,),)
        assert Instance._fields == ("network", "costs", "flow_value")

    def test_rows_are_stored_as_tuples(self):
        rows = [[1, 1, 5], [5, 5, 1]]
        network = network_of(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
        instance = Instance(network, rows, 1)
        assert instance.costs == ((1, 1, 5), (5, 5, 1))
        assert compute_optima(instance).costs == (2, 1)
        rows[0][2] = 0
        fresh = Instance(network, ((1, 1, 5), (5, 5, 1)), 1)
        assert instance.costs == fresh.costs
        assert hash(instance) == hash(fresh)
        assert compute_optima(instance) == compute_optima(fresh)


class TestInstanceValidation:
    def test_row_width(self):
        net = network_of(2, [(1, 2, 1)])
        message = "^scenario 1: length mismatch: expected 1 costs, found 2$"
        with pytest.raises(ValueError, match=message):
            Instance(net, ((1, 2),), 1)

    def test_flow_value_exceeds_max_flow(self):
        net = network_of(2, [(1, 2, 3)])
        with pytest.raises(ValueError, match="maximum flow"):
            Instance(net, ((1,),), 4)

    def test_zero_flow_value(self):
        inst = chain_instance(3, 2, 0)
        assert inst.flow_value == 0

    def test_numpy_integers_are_stored_as_ints(self, diamond):
        network = diamond.network
        columns = (network.tails, network.heads, network.capacities)
        judged = Instance(
            Network(np.int64(network.vertex_count), *map(np.array, columns)),
            np.array(diamond.costs),
            np.int64(diamond.flow_value),
        )
        assert judged == diamond
        network = judged.network
        values = [network.vertex_count, judged.flow_value]
        for column in (network.tails, network.heads, network.capacities, *judged.costs):
            values += column
        assert {type(value) for value in values} == {int}
        assert write_instance(judged) == write_instance(diamond)


class TestFlowChecks:
    def test_flow_value_counts_returning_arcs(self):
        net = network_of(3, [(1, 2, 2), (2, 1, 2), (2, 3, 2)])
        assert flow_value_of(net, (2, 1, 1)) == 1

    @given(routed_networks(), st.integers(0, 2_000), st.data())
    @settings(max_examples=80)
    def test_flow_value_of_equals_validate_flow(self, network, seed, data):
        value = data.draw(st.integers(0, oracles.max_flow(network)))
        values = scrambled_flow(network, value, seed)
        instance = Instance(network, ((0,) * network.arc_count,), value)
        assert flow_value_of(network, values) == validate_flow(instance, values) == value

    @pytest.mark.parametrize("seed", range(4))
    def test_flow_value_of_on_flow_into_the_source(self, seed):
        instance = parse_instance((Path(__file__).parent / "data" / "cyc.rmcif").read_text())
        network = instance.network
        values = scrambled_flow(network, instance.flow_value, seed)
        # cyc.rmcif's source has in-arcs, and each of these flows uses one
        assert any(values[i] for i, forward, _ in network.residual_adjacency[1] if not forward)
        assert flow_value_of(network, values) == validate_flow(instance, values) == 5

    def test_validate_flow_value(self, diamond):
        assert validate_flow(diamond, (1, 0, 1, 0)) == 1
        assert validate_flow(diamond, (1, 1, 1, 1)) == 2

    def test_validate_flow_capacity(self, diamond):
        with pytest.raises(CapacityViolation) as err:
            validate_flow(diamond, (2, 0, 2, 0))
        assert err.value.arc_index == 0
        assert "arc 1" in str(err.value)

    def test_validate_flow_conservation(self, diamond):
        with pytest.raises(ConservationViolation) as err:
            validate_flow(diamond, (1, 0, 0, 1))
        assert err.value.vertex in (2, 3)



class TestInstanceFormat:
    def test_roundtrip(self, diamond):
        assert write_instance(diamond) == DIAMOND_TEXT
        assert parse_instance(write_instance(diamond)) == diamond

    def test_bytes_accepted(self):
        assert parse_instance(DIAMOND_TEXT.encode()) == parse_instance(DIAMOND_TEXT)

    def test_non_ascii_bytes_rejected(self):
        broken = DIAMOND_TEXT.encode().replace(b"s 2", b"c \xff\ns 2")
        with pytest.raises(InstanceFormatError, match="line 7: byte 0xff is not ASCII"):
            parse_instance(broken)

    def test_comments_and_blank_lines(self):
        text = "c a comment\n\n" + DIAMOND_TEXT + "c trailing\n"
        assert parse_instance(text) == parse_instance(DIAMOND_TEXT)

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            (lambda t: t.replace("p rmcif 4 4 2 1", "p rmcif 4 4"), "malformed problem"),
            (lambda t: t.replace("p rmcif", "p other"), "malformed problem"),
            (lambda t: "a 1 2 1\n" + t, "before problem line"),
            (lambda t: t + "p rmcif 4 4 2 1\n", "duplicate problem"),
            (lambda t: "".join(t.splitlines(True)[:4]), "expected 4 arc lines"),
            (lambda t: t.replace("s 1", "a 2 3 1\ns 1"), "more than 4 arc lines"),
            (lambda t: t.replace("a 1 3 1", "a 1 9 1"), "out of range"),
            (lambda t: t.replace("a 1 3 1", "a 3 3 1"), "self-loop"),
            (lambda t: t.replace("a 1 3 1", "a 1 2 1"), "duplicate arc"),
            (lambda t: t.replace("a 1 3 1", "a 1 3 -1"), "capacity must be nonnegative"),
            (lambda t: t.replace("s 1 1 2 1 2", "s 2 1 2 1 2"), "out of order"),
            (lambda t: t.replace("s 1 1 2 1 2", "s 1 1 2 1"), "length mismatch"),
            (lambda t: t.replace("s 1 1 2 1 2", "s 1 1 2 -1 2"), "cost must be nonnegative"),
            (lambda t: t.replace("s 2 2 1 2 1\n", ""), "expected 2 scenario lines"),
            (lambda t: t.replace("a 1 2 1", "a 1 2 x"), "not an integer"),
            (lambda t: t.replace("s 1", "q 1"), "unknown line tag"),
            (lambda t: "", "missing problem line"),
            (lambda t: t.replace("4 2 1\n", "4 2 9\n"), "maximum flow"),
            (lambda t: t.replace("p rmcif 4 4", "p rmcif 11 4"), "more vertices than 4 arcs"),
            (lambda t: "p rmcif 2000000 0 1 0\ns 1\n", "more vertices than 0 arcs"),
        ],
    )
    def test_rejects_malformed_text(self, mutation, fragment):
        with pytest.raises(InstanceFormatError, match=fragment):
            parse_instance(mutation(DIAMOND_TEXT))

    def test_error_carries_line_number(self):
        broken = DIAMOND_TEXT.replace("a 1 3 1", "a 1 3 -1")
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(broken)
        assert err.value.line == 3
        assert str(err.value).startswith("line 3:")

    @pytest.mark.parametrize("row, message", [
        ("s 1 1 2 1", "length mismatch: expected 4 costs, found 3"),
        ("s 1 1 2 -1 2", "cost must be nonnegative, got -1"),
    ])
    def test_scenario_error_carries_line_number(self, row, message):
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(DIAMOND_TEXT.replace("s 1 1 2 1 2", row))
        assert err.value.line == 6
        assert str(err.value) == f"line 6: {message}"

    def test_bad_cost_names_its_own_scenario_line(self):
        # the second scenario line, after a good first one
        with pytest.raises(InstanceFormatError) as err:
            parse_instance(DIAMOND_TEXT.replace("s 2 2 1 2 1", "s 2 2 1 -7 1"))
        assert err.value.line == 7
        assert str(err.value) == "line 7: cost must be nonnegative, got -7"

    def test_each_row_judged_once_per_parse(self, monkeypatch):
        judged = []
        check_costs = core.check_costs

        def counting(row, width):
            judged.append(tuple(row))
            return check_costs(row, width)

        monkeypatch.setattr(core, "check_costs", counting)
        instance = gen(3, widths=(3, 3), scenarios=4)
        text = write_instance(instance)
        del judged[:]
        assert parse_instance(text) == instance
        assert judged == list(instance.costs)

    def test_vertex_count_bound(self):
        text = "p rmcif {} 1 1 0\na 1 {} 1\ns 1 5\n"
        assert parse_instance(text.format(4, 4)).network.vertex_count == 4
        with pytest.raises(InstanceFormatError) as err:
            parse_instance("c header\n" + text.format(5, 5))
        assert err.value.line == 2
        assert "at most 2m + 2 = 4" in str(err.value)

    def test_scenario_line_must_follow_all_arcs(self):
        lines = DIAMOND_TEXT.splitlines()
        reordered = "\n".join(lines[:3] + [lines[5]] + lines[3:5] + [lines[6]]) + "\n"
        with pytest.raises(InstanceFormatError, match="before all arcs"):
            parse_instance(reordered)

    @given(st.integers(0, 10_000))
    def test_generated_instances_roundtrip(self, seed):
        instance = gen(seed, widths=(2, 3), scenarios=3, caps=(0, 5), costs=(0, 7),
                       density=0.7)
        assert parse_instance(write_instance(instance)) == instance


class TestSolutionFormat:
    def test_roundtrip(self, diamond):
        record = SolutionRecord(ABSOLUTE, "ls2", 4, (1, 0, 1, 0), 7, 0.25)
        text = format_solution(record, diamond)
        assert text == "o absolute ls2 4 7\nx 1 2 1\nx 2 4 1\n"

    def test_timing_left_out_of_the_file(self, diamond):
        fast = SolutionRecord(ABSOLUTE, "ls2", 4, (1, 0, 1, 0), 7, 0.001)
        slow = SolutionRecord(ABSOLUTE, "ls2", 4, (1, 0, 1, 0), 7, 9.999)
        assert format_solution(fast, diamond) == format_solution(slow, diamond)

    def test_rejects_unknown_tags(self, diamond):
        record = SolutionRecord("best", "ls2", 4, (1, 0, 1, 0), 7)
        with pytest.raises(ValueError, match="variant"):
            format_solution(record, diamond)
        record = SolutionRecord(ABSOLUTE, "ls9", 4, (1, 0, 1, 0), 7)
        with pytest.raises(ValueError, match="solver"):
            format_solution(record, diamond)

    def test_rejects_wrong_value(self, diamond):
        record = SolutionRecord(ABSOLUTE, "ls2", 6, (1, 1, 1, 1), 7)
        with pytest.raises(WrongFlowValue):
            format_solution(record, diamond)

    def test_rejects_infeasible_flow(self, diamond):
        record = SolutionRecord(ABSOLUTE, "ls2", 4, (1, 0, 0, 1), 7)
        with pytest.raises(ConservationViolation):
            format_solution(record, diamond)
