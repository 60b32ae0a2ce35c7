import pytest
from hypothesis import given, strategies as st

from pentestplan.netmodel import (
    EMPTY_FIREWALL,
    Firewall,
    LogicalNetwork,
    Machine,
    ScenarioValidationError,
    action_usable,
    check_port,
)
from pentestplan.pomdp import ActionSpec


def simple_network():
    return LogicalNetwork(
        subnetworks={
            "start": (Machine("attacker", None, 0.0),),
            "dmz": (Machine("web", "t0", 100.0), Machine("mail", "t0", 0.0)),
            "lan": (Machine("db", "t0", 500.0),),
        },
        arcs={
            ("start", "dmz"): Firewall(frozenset({80})),
            ("dmz", "lan"): EMPTY_FIREWALL,
        },
        start="start",
    )


class TestFirewall:
    def test_empty_firewall_blocks_nothing(self):
        assert not EMPTY_FIREWALL.blocks(80)
        assert not EMPTY_FIREWALL.blocks(65535)

    def test_blocks_listed_ports_only(self):
        fw = Firewall(frozenset({80, 443}))
        assert fw.blocks(80)
        assert fw.blocks(443)
        assert not fw.blocks(22)

    def test_rejects_out_of_range_ports(self):
        with pytest.raises(ScenarioValidationError):
            Firewall(frozenset({0}))
        with pytest.raises(ScenarioValidationError):
            Firewall(frozenset({70000}))


@given(st.integers())
def test_check_port_accepts_exactly_the_valid_range(port):
    if 1 <= port <= 65535:
        assert check_port(port) == port
    else:
        with pytest.raises(ScenarioValidationError):
            check_port(port)


def test_check_port_rejects_bool():
    with pytest.raises(ScenarioValidationError):
        check_port(True)


class TestNetworkValidation:
    def test_valid_network(self):
        net = simple_network()
        assert net.start_machine.id == "attacker"
        assert net.subnetwork_of("db") == "lan"
        assert net.machine("web").reward == 100.0
        # "dmz" is given as (web, mail)
        assert [m.id for m in net.subnetworks["dmz"]] == ["mail", "web"]
        with pytest.raises(KeyError):
            net.machine("nowhere")
        with pytest.raises(KeyError):
            net.subnetwork_of("nowhere")

    def test_machine_ids_are_the_ids_of_machines(self):
        net = simple_network()
        ids = net.machine_ids
        assert ids == {m.id for m in net.machines()} == {"attacker", "web", "mail", "db"}
        assert len(ids) == len(list(net.machines()))
        with pytest.raises(AttributeError):  # a read-only view
            ids.add("intruder")
        assert {"db", "web"} <= ids and "intruder" not in ids

    def test_duplicate_machine_id(self):
        with pytest.raises(ScenarioValidationError, match="duplicate"):
            LogicalNetwork(
                subnetworks={
                    "start": (Machine("a", None, 0.0),),
                    "x": (Machine("a", "t0", 0.0),),
                },
                start="start",
            )

    def test_start_must_exist(self):
        with pytest.raises(ScenarioValidationError):
            LogicalNetwork(subnetworks={"x": (Machine("a", None, 0.0),)}, start="start")

    def test_start_machine_must_have_zero_reward(self):
        with pytest.raises(ScenarioValidationError):
            LogicalNetwork(
                subnetworks={"start": (Machine("a", None, 5.0),)}, start="start"
            )

    def test_no_self_arcs(self):
        with pytest.raises(ScenarioValidationError, match="self-arc"):
            LogicalNetwork(
                subnetworks={"start": (Machine("a", None, 0.0),)},
                arcs={("start", "start"): EMPTY_FIREWALL},
                start="start",
            )

    def test_arc_endpoints_must_exist(self):
        with pytest.raises(ScenarioValidationError, match="unknown subnetwork"):
            LogicalNetwork(
                subnetworks={"start": (Machine("a", None, 0.0),)},
                arcs={("start", "nowhere"): EMPTY_FIREWALL},
                start="start",
            )

    def test_negative_machine_reward(self):
        with pytest.raises(ScenarioValidationError):
            Machine("m", "t0", -1.0)


class TestActionUsable:
    def test_port_action_through_blocking_firewall(self):
        scan = ActionSpec(id="s", kind="port_scan", port=80)
        assert not action_usable(scan, Firewall(frozenset({80})))
        assert action_usable(scan, Firewall(frozenset({81})))
        assert action_usable(scan, EMPTY_FIREWALL)

    def test_port_free_action_always_usable(self):
        detect = ActionSpec(id="d", kind="os_detect")
        assert action_usable(detect, Firewall(frozenset({80, 443})))
