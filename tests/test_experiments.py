"""Extremal-set experiments: constructions, certification, determinism."""

import pytest

from cayleygap import (
    GroupSubset,
    emit_report,
    make_group,
    run_additive_basis,
    run_interval_union,
    run_sidon,
    run_triple_free,
)
from cayleygap.experiments import (
    certify_triple_free_maximality,
    grow_additive_basis,
    grow_bk_set,
    grow_triple_free,
    is_bk_set,
)
from cayleygap.errors import GroupTooLarge, HypothesisFail, IoFailure, NotBk


class TestTripleFree:
    def test_z2_singleton(self):
        result = run_triple_free(make_group("cyclic(2)"), 0)
        construction = result.records[0]
        assert construction["set"] == "1"
        assert result.passed

    def test_z13_maximality(self):
        group = make_group("cyclic(13)")
        result = run_triple_free(group, 0)
        assert result.passed
        indices = [int(x) for x in result.records[0]["set"].split()]
        assert certify_triple_free_maximality(GroupSubset.from_indices(group, indices))

    def test_dihedral5(self):
        result = run_triple_free(make_group("dihedral(5)"), 1)
        assert result.passed

    def test_greedy_set_has_no_identity_triple(self, d6):
        a = grow_triple_free(d6, 3)
        found = False
        for x in a.indices:
            for y in a.indices:
                for z in a.indices:
                    if d6.mul(d6.mul(int(x), int(y)), int(z)) == 0:
                        found = True
        assert not found

    def test_cap(self):
        with pytest.raises(GroupTooLarge):
            run_triple_free(make_group("cyclic(501)"), 0)


class TestSidon:
    def test_singleton_edge(self):
        assert is_bk_set([1], 2)

    def test_bk_checker(self):
        assert is_bk_set([1, 2, 5, 11], 2)
        assert not is_bk_set([1, 2, 3], 2)  # 1+3 = 2+2

    def test_bk_checker_is_capped(self):
        # |A|^k = 39^6 lies above the 10^7 cap, so nothing is enumerated
        with pytest.raises(NotBk, match="capped"):
            is_bk_set(list(range(1, 40)), 6)

    def test_greedy_is_bk(self):
        for k in (2, 3):
            elements = grow_bk_set(101, k, seed=5)
            assert is_bk_set(elements, k)
            assert len(elements) >= 3

    def test_n101(self):
        result = run_sidon(101, 2, 7)
        assert result.passed
        construction = result.records[0]
        assert construction["expansion_constant"] > 0

    def test_n257(self):
        result = run_sidon(257, 2, 1)
        assert result.passed
        assert result.records[0]["expansion_constant"] > 0

    def test_b3_sets(self):
        result = run_sidon(61, 3, 2)
        assert result.passed
        assert result.records[0]["k"] == 3

    def test_size_hypothesis_flag(self):
        # an enormous size constant keeps the positivity row vacuous
        result = run_sidon(61, 2, 2, size_constant=100.0)
        rows = {r["instance"]: r for r in result.records}
        assert rows["00-construction"]["size_hypothesis_met"] is False
        assert rows["02-positivity"]["verdict"] in ("vacuous-pass", "pass")

    @pytest.mark.parametrize(
        "size_constant, verdict, passed",
        # A = {1} on Z/2 has expansion constant 0: a failure when |A| >= c_k N^(1/k)
        # holds (1 >= 0.5 sqrt 2), vacuous when it does not (1 < sqrt 2)
        [(0.5, "fail", False), (1.0, "vacuous-pass", True)],
    )
    def test_positivity_without_expansion(self, size_constant, verdict, passed):
        result = run_sidon(2, 2, 0, size_constant)
        rows = {r["instance"]: r for r in result.records}
        assert rows["00-construction"]["expansion_constant"] == 0.0
        assert rows["02-positivity"]["verdict"] == verdict
        assert result.passed is passed

    def test_composite_rejected(self):
        with pytest.raises(HypothesisFail):
            run_sidon(100, 2, 0)


class TestAdditiveBasis:
    def test_greedy_covers(self):
        n = 101
        elements = grow_additive_basis(n, 2)
        sums = {a + b for a in elements for b in elements}
        assert set(range(2, n + 1)) <= sums

    def test_n211(self):
        result = run_additive_basis(211, 3)
        assert result.passed
        assert result.records[0]["omega_size"] <= 211 / 4

    def test_n401(self):
        result = run_additive_basis(401, 1)
        assert result.passed
        assert result.records[0]["expansion_constant"] > 0

    def test_full_range_trivial(self):
        # {1..N-1} is trivially a 2-basis with a tiny exceptional set
        result = run_additive_basis(101, 0)
        assert result.passed


class TestIntervalUnion:
    def test_no_interval(self):
        result = run_interval_union(101, 2, 0, 0)
        assert result.passed
        assert len(result.records) == 2  # construction + progression bound

    def test_n1009(self):
        result = run_interval_union(1009, 2, 8, 0)
        assert result.passed
        names = [r.get("bound_name") for r in result.records if "bound_name" in r]
        assert "interval_char_adjusted" in names

    def test_heuristic_not_asserted(self):
        result = run_interval_union(1009, 2, 8, 0)
        heuristic = [r for r in result.records if r.get("bound_name") == "interval_char_heuristic"]
        assert heuristic and heuristic[0]["asserted"] is False


class TestDeterminism:
    @pytest.mark.parametrize(
        "runner,args",
        [
            (run_triple_free, (13, 4)),
            (run_sidon, (61, 2, 4)),
            (run_additive_basis, (101, 4)),
            (run_interval_union, (101, 2.0, 3.0, 4)),
        ],
    )
    def test_identical_runs(self, runner, args):
        if runner is run_triple_free:
            group = make_group(f"cyclic({args[0]})")
            first = runner(group, args[1])
            second = runner(group, args[1])
        else:
            first = runner(*args)
            second = runner(*args)
        assert first.records == second.records


class TestEmitReport:
    def test_empty_gives_header_only(self, tmp_path):
        path = emit_report([], "csv", tmp_path / "empty.csv")
        text = path.read_text()
        assert text.count("\n") == 1

    def test_single_row(self, tmp_path):
        records = [{"instance": "a", "bound": 0.123456789012345, "holds": True}]
        path = emit_report(records, "csv", tmp_path / "one.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "instance,bound,holds"
        assert lines[1] == "a,0.123456789012,true"

    def test_json_round_trip(self, tmp_path):
        import json

        records = [{"instance": "a", "value": 1.0 / 3.0}]
        path = emit_report(records, "json", tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded[0]["value"] == pytest.approx(1 / 3, abs=1e-12)

    def test_sorted_by_instance(self, tmp_path):
        records = [{"instance": "b", "x": 1}, {"instance": "a", "x": 2}]
        path = emit_report(records, "csv", tmp_path / "s.csv")
        lines = path.read_text().splitlines()
        assert lines[1].startswith("a,") and lines[2].startswith("b,")

    def test_bad_format(self, tmp_path):
        with pytest.raises(IoFailure):
            emit_report([], "xml", tmp_path / "x.xml")

    def test_byte_identical(self, tmp_path):
        result = run_sidon(61, 2, 9)
        p1 = emit_report(result.records, "csv", tmp_path / "a.csv")
        p2 = emit_report(result.records, "csv", tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()
