"""Router construction, verification, routing queries, and the loss model."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wdmqkd.router import (
    ChannelId,
    FOURPORT_LOSS_DB,
    PortId,
    RouterSpec,
    UnroutableWavelengthError,
    WavelengthAssignment,
    build_assignment,
    export_assignment,
    export_loss_matrix,
    format_assignment_table,
    fourport_router_spec,
    import_loss_matrix,
    path_loss_db,
    route,
    uniform_router_spec,
    verify_assignment,
    wavelength_for,
    wdm_requirements,
)


def proper_by_exhaustion(assignment: WavelengthAssignment) -> bool:
    """Independent properness check: every port sees distinct channels."""
    n = assignment.n_ports
    for i in range(n):
        seen = [
            assignment.pair_channel(i, j).index for j in range(n) if j != i
        ]
        if len(seen) != len(set(seen)):
            return False
    return True


def reference_build_assignment(n_ports, nm=None):
    """The circle method with an even and an odd branch, pair -> channel.

    Even N rotates a wheel of N-1 ports around the last port, odd N a wheel
    of all N ports, one sitting out of each round; at N = 4 the rounds map
    to channels (0, 2, 1) to match the shipped unit.  The channels set the
    time offsets and so the bytes of every event log.
    """
    rounds = {}
    if n_ports % 2 == 0:
        m = n_ports - 1
        for r in range(m):
            rounds[(r, n_ports - 1)] = r
            for k in range(1, n_ports // 2):
                rounds[tuple(sorted(((r + k) % m, (r - k) % m)))] = r
        n_channels = m
    else:
        for r in range(n_ports):
            for k in range(1, (n_ports - 1) // 2 + 1):
                rounds[tuple(sorted(((r + k) % n_ports, (r - k) % n_ports)))] = r
        n_channels = n_ports
    relabel = (0, 2, 1) if n_ports == 4 else tuple(range(n_channels))
    return {
        pair: ChannelId(relabel[r], None if nm is None else nm[relabel[r]])
        for pair, r in rounds.items()
    }


# Fixed design of the 4-port unit: unordered pair -> channel index.
FOURPORT_TABLE = {
    ("A", "B"): 1,
    ("A", "C"): 2,
    ("A", "D"): 0,
    ("B", "C"): 0,
    ("B", "D"): 2,
    ("C", "D"): 1,
}


class TestBuildAssignment:
    def test_fourport_matches_shipped_unit(self):
        a = build_assignment(4)
        for (x, y), ch in FOURPORT_TABLE.items():
            assert wavelength_for(a, x, y).index == ch
            assert wavelength_for(a, y, x).index == ch

    def test_fourport_wavelength_tags(self):
        a = build_assignment(4, nm=(1510.0, 1530.0, 1550.0))
        assert wavelength_for(a, "A", "D").nm == 1510.0
        assert wavelength_for(a, "A", "B").nm == 1530.0
        assert wavelength_for(a, "A", "C").nm == 1550.0
        assert [c.label for c in a.channels] == ["λ1", "λ2", "λ3"]

    def test_two_ports_single_channel(self):
        a = build_assignment(2)
        assert wavelength_for(a, 0, 1).index == 0
        assert len(a.channels) == 1

    @pytest.mark.parametrize("n", [*range(2, 65), 127, 128, 255, 256])
    def test_every_pair_channel_pinned(self, n):
        _, n_channels = wdm_requirements(n)
        nm = tuple(1500.0 + 0.5 * c for c in range(n_channels))
        for tags in (None, nm):
            a = build_assignment(n, nm=tags)
            assert a.channel_of == reference_build_assignment(n, nm=tags)
            assert len(a.channels) == n_channels

    def test_channel_counts_follow_parity(self):
        for n in range(2, 13):
            a = build_assignment(n)
            want = n - 1 if n % 2 == 0 else n
            assert len(a.channels) == want, f"n={n}"

    def test_every_pair_covered(self):
        for n in (2, 3, 4, 5, 8, 9):
            a = build_assignment(n)
            assert set(a.channel_of) == {
                (i, j) for i in range(n) for j in range(i + 1, n)
            }

    def test_proper_for_small_n(self):
        for n in range(2, 16):
            assert proper_by_exhaustion(build_assignment(n)), f"n={n}"

    def test_odd_n_port_skips_one_channel(self):
        a = build_assignment(5)
        for i in range(5):
            used = {a.pair_channel(i, j).index for j in range(5) if j != i}
            assert len(used) == 4  # one of the 5 channels is dark at each port

    def test_wavelength_tag_count_must_match(self):
        with pytest.raises(ValueError):
            build_assignment(4, nm=(1510.0, 1530.0))
        with pytest.raises(ValueError):
            build_assignment(5, nm=(1510.0, 1530.0, 1550.0, 1570.0))

    def test_too_few_ports(self):
        with pytest.raises(ValueError):
            build_assignment(1)


class TestRouting:
    def test_fourport_routes(self):
        spec = fourport_router_spec()
        cases = [
            ("A", 0, "D"),
            ("B", 0, "C"),
            ("A", 1, "B"),
            ("C", 1, "D"),
            ("A", 2, "C"),
            ("B", 2, "D"),
        ]
        for src, ch, dst in cases:
            assert route(spec, src, ch).label == dst

    def test_route_accepts_channelid(self):
        a = build_assignment(4)
        assert route(a, "A", ChannelId(0)).label == "D"

    def test_route_is_involution(self):
        for n in (2, 4, 5, 7, 8):
            a = build_assignment(n)
            for p in range(n):
                for ch in a.channels:
                    try:
                        q = route(a, p, ch)
                    except UnroutableWavelengthError:
                        continue
                    assert route(a, q, ch).index == p

    def test_unconnected_channel_raises(self):
        a = build_assignment(5)
        # with the identity labeling, channel r is dark at port r
        with pytest.raises(UnroutableWavelengthError):
            route(a, 0, 0)
        with pytest.raises(UnroutableWavelengthError):
            route(a, 3, 99)

    def test_self_loop_rejected(self):
        a = build_assignment(4)
        with pytest.raises(ValueError, match="no channel from port B to itself"):
            wavelength_for(a, "B", "B")


class TestVerification:
    def test_built_assignments_verify(self):
        for n in range(2, 12):
            report = verify_assignment(build_assignment(n))
            assert report.ok, str(report)

    def test_properness_violation_detected(self):
        # give port 0 the same channel twice by hand
        ch = ChannelId(0)
        broken = WavelengthAssignment(
            n_ports=3,
            channel_of={(0, 1): ch, (0, 2): ch, (1, 2): ChannelId(1)},
        )
        report = verify_assignment(broken)
        assert not report.ok
        names = {c.name for c in report.failures()}
        assert "properness" in names

    def test_missing_pair_detected(self):
        partial = WavelengthAssignment(
            n_ports=3, channel_of={(0, 1): ChannelId(0)}
        )
        report = verify_assignment(partial)
        assert not report.ok
        assert any(c.name == "totality" for c in report.failures())
        assert "[FAIL] totality: missing=[(0, 2), (1, 2)]\n" in str(report)

    def test_properness_checked_over_the_pairs_present(self):
        # port A sees λ1 on both of its pairs; pair (1, 2) is missing
        partial = WavelengthAssignment(
            n_ports=3, channel_of={(0, 1): ChannelId(0), (0, 2): ChannelId(0)}
        )
        failures = {c.name: c.detail for c in verify_assignment(partial).failures()}
        assert failures["properness"] == "repeated channel at [('A', 0)]"

    def test_wrong_channel_count_detected(self):
        # proper but wasteful: C(3,2) pairs, 3 distinct channels is the rule
        # for n=3, so use a 4th anywhere and the count check must fire
        wasteful = WavelengthAssignment(
            n_ports=4,
            channel_of={
                (0, 1): ChannelId(0),
                (2, 3): ChannelId(5),
                (0, 2): ChannelId(1),
                (1, 3): ChannelId(4),
                (0, 3): ChannelId(2),
                (1, 2): ChannelId(3),
            },
        )
        report = verify_assignment(wasteful)
        assert any(c.name == "channel-count" for c in report.failures())

    @given(
        n=st.integers(min_value=2, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_channel_relabeling_preserves_properness(self, n, seed):
        import random

        a = build_assignment(n)
        k = len(a.channels)
        perm = list(range(k))
        random.Random(seed).shuffle(perm)
        relabeled = WavelengthAssignment(
            n_ports=n,
            channel_of={
                pair: ChannelId(perm[ch.index])
                for pair, ch in a.channel_of.items()
            },
        )
        assert proper_by_exhaustion(relabeled)
        assert verify_assignment(relabeled).ok


class TestWdmRequirements:
    @pytest.mark.parametrize(
        "n,want",
        [(2, (2, 1)), (3, (3, 3)), (4, (4, 3)), (5, (5, 5)), (6, (6, 5)), (7, (7, 7)), (16, (16, 15))],
    )
    def test_counts(self, n, want):
        assert wdm_requirements(n) == want

    def test_matches_built_channel_count(self):
        for n in range(2, 12):
            _, per_wdm = wdm_requirements(n)
            assert len(build_assignment(n).channels) == per_wdm


class TestLossModel:
    def test_fourport_measured_losses(self):
        spec = fourport_router_spec()
        assert path_loss_db(spec, "A", "B") == 1.70
        assert path_loss_db(spec, "B", "A") == 2.17
        assert path_loss_db(spec, "B", "C") == 1.64
        assert path_loss_db(spec, "B", "D") == 2.74
        assert path_loss_db(spec, "D", "A") == 1.96

    def test_losses_are_directed(self):
        spec = fourport_router_spec()
        asym = [
            (a, b)
            for a, b in itertools.permutations("ABCD", 2)
            if path_loss_db(spec, a, b) != path_loss_db(spec, b, a)
        ]
        assert asym  # the measured unit is not symmetric

    def test_loss_diagonal_rejected(self):
        spec = fourport_router_spec()
        with pytest.raises(ValueError, match="no loss figure from port C to itself"):
            path_loss_db(spec, "C", "C")

    def test_spec_requires_total_loss_matrix(self):
        a = build_assignment(4)
        with pytest.raises(ValueError):
            RouterSpec(a, {(0, 1): 2.0})

    def test_uniform_spec(self):
        spec = uniform_router_spec(build_assignment(6), loss_db=1.5)
        for i, j in itertools.permutations(range(6), 2):
            assert path_loss_db(spec, i, j) == 1.5


class TestTextFormats:
    def test_loss_matrix_round_trip_exact(self):
        spec = fourport_router_spec()
        text = export_loss_matrix(spec)
        back = import_loss_matrix(text, spec.assignment)
        assert back.insertion_loss_db == spec.insertion_loss_db

    def test_loss_import_fills_default(self):
        a = build_assignment(4)
        spec = import_loss_matrix("A B 3.5\n", a, default_db=2.2)
        assert path_loss_db(spec, "A", "B") == 3.5
        assert path_loss_db(spec, "B", "A") == 2.2
        assert path_loss_db(spec, "C", "D") == 2.2

    def test_loss_import_rejects_garbage(self):
        a = build_assignment(4)
        with pytest.raises(ValueError):
            import_loss_matrix("A B\n", a)
        with pytest.raises(ValueError):
            import_loss_matrix("A A 2.0\n", a)
        with pytest.raises(ValueError):
            import_loss_matrix("A B -1.0\n", a)
        with pytest.raises(ValueError):
            import_loss_matrix("A Z 2.0\n", a)

    def test_loss_import_ignores_comments_and_blanks(self):
        a = build_assignment(4)
        spec = import_loss_matrix("# header\n\nA B 3.0  # trailing\n", a)
        assert path_loss_db(spec, "A", "B") == 3.0

    def test_assignment_export_lists_every_pair(self):
        a = build_assignment(4, nm=(1510.0, 1530.0, 1550.0))
        text = export_assignment(a)
        rows = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(rows) == 6
        assert "A D 0 1510.0" in rows
        assert "A B 1 1530.0" in rows
        assert "B C 0 1510.0" in rows

    def test_table_format_has_diagonal_dashes(self):
        table = format_assignment_table(build_assignment(4))
        lines = table.splitlines()
        assert len(lines) == 5
        assert "λ2" in lines[1] and "—" in lines[1]
        # row A: dash, then channels for B, C, D
        row_a = lines[1].split()
        assert row_a[:2] == ["Port", "A"]
        assert row_a[2:] == ["—", "λ2", "λ3", "λ1"]


class TestIds:
    def test_port_id_validation(self):
        with pytest.raises(ValueError):
            PortId(-1)
        assert PortId(2).label == "C"
        assert PortId(29).label == "P29"

    def test_channel_id_validation(self):
        with pytest.raises(ValueError):
            ChannelId(-2)
        with pytest.raises(ValueError):
            ChannelId(0, nm=-1000.0)
        assert ChannelId(2).label == "λ3"

    def test_port_lookup_by_label_and_index(self):
        a = build_assignment(4)
        assert a.port("C").index == 2
        assert a.port(2).label == "C"
        with pytest.raises(ValueError):
            a.port("Z")
        with pytest.raises(ValueError):
            a.port(9)

    def test_port_references_past_z(self):
        a = build_assignment(30)
        assert a.port("P29").index == 29
        assert a.port(PortId(29)) == PortId(29)
        with pytest.raises(ValueError, match="unknown port label 'P5'"):
            a.port("P5")  # port 5 is F
        assert a.port(5).label == "F"
        ch = a.pair_channel("A", "P29")
        assert route(a, "A", ch).label == "P29"
        assert route(a, 0, ch.index) == PortId(29)

    @pytest.mark.parametrize("ref", [True, False, 2.0, 1.5, None, "2"])
    def test_port_reference_must_be_an_index_label_or_port_id(self, ref):
        a = build_assignment(4)
        with pytest.raises(ValueError):
            a.port(ref)
        with pytest.raises(ValueError):
            a.pair_channel(ref, 3)
        with pytest.raises(ValueError):
            path_loss_db(uniform_router_spec(a), 3, ref)

    @pytest.mark.parametrize("channel", [True, 1.5, 1.0])
    def test_route_channel_must_be_an_index_or_channel_id(self, channel):
        with pytest.raises(ValueError, match="expected a channel, got "):
            route(build_assignment(4), "A", channel)

    def test_numpy_integer_references_resolve(self):
        a = build_assignment(4)
        assert a.port(np.int64(2)) == PortId(2)
        assert a.pair_channel(np.int32(0), np.int64(3)) == a.pair_channel(0, 3)
        assert route(a, np.int64(0), np.int64(0)).label == "D"
        assert path_loss_db(fourport_router_spec(), np.int16(0), np.uint8(1)) == 1.70

    def test_wavelength_for_is_pair_channel(self):
        assert wavelength_for is WavelengthAssignment.pair_channel

    def test_measured_loss_fixture_is_total(self):
        labels = "ABCD"
        assert set(FOURPORT_LOSS_DB) == {
            (a, b) for a in labels for b in labels if a != b
        }
