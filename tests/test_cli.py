"""Command-line interface: commands, formats, exit codes, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from alontarsi import (
    Graph,
    Orientation,
    atn_from_polynomial,
    canon,
    chromatic_index_class,
    cli,
    coefficient_of,
    coloring,
    complete_bipartite,
    efl,
    graphs_with_edge_budget,
    line_graph,
    named_graph,
    parse_edge_list_text,
    polynomials,
    to_edge_list_text,
    verify,
)
from alontarsi.cli import main
from alontarsi.verify import run_campaign

SRC = Path(cli.__file__).resolve().parents[1]


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.edges"
    path.write_text(to_edge_list_text(named_graph("K4")))
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    path = tmp_path / "k3.edges"
    path.write_text(to_edge_list_text(named_graph("K3")))
    return str(path)


class TestConstruct:
    def test_line_of_k4(self, k4_file, tmp_path, capsys):
        out = tmp_path / "lk4.edges"
        code = main(["construct", "line", k4_file, "-o", str(out)])
        assert code == 0
        g = parse_edge_list_text(out.read_text())
        assert (g.n, g.m) == (6, 12)
        # the numbering is the contract: no side map is written
        with pytest.raises(SystemExit) as exc:
            main(["construct", "line", k4_file, "--map", str(tmp_path / "map.json")])
        assert exc.value.code == 2
        assert not (tmp_path / "map.json").exists()

    def test_total_of_k2_is_triangle(self, tmp_path, capsys):
        src = tmp_path / "k2.edges"
        src.write_text("2 1\n0 1\n")
        code = main(["construct", "total", str(src)])
        assert code == 0
        g = parse_edge_list_text(capsys.readouterr().out)
        assert (g.n, g.m) == (3, 3)

    def test_efl_p3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 2, "cliques": [[0, 1], [1, 2]]}')
        code = main(["construct", "efl", str(cfg)])
        assert code == 0
        g = parse_edge_list_text(capsys.readouterr().out)
        assert (g.n, g.m) == (3, 2)

    def test_round_trip_identity(self, k4_file, tmp_path, capsys):
        out = tmp_path / "copy.edges"
        code = main(["construct", "double", k4_file, "-o", str(out)])
        assert code == 0
        g = parse_edge_list_text(out.read_text())
        assert to_edge_list_text(g) == out.read_text()

    def test_augment_rejects_class1(self, k4_file, capsys):
        assert main(["construct", "augment", k4_file]) == 2


class TestAtn:
    def test_both_methods_agree(self, k3_file, capsys):
        code = main(["atn", k3_file, "--method", "both", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["atn"] == 3
        assert payload["certificates"]["poly"]["kind"] == "monomial"
        assert payload["certificates"]["orient"]["kind"] == "orientation"

    def test_text_format(self, k3_file, capsys):
        assert main(["atn", k3_file]) == 0
        assert "ATN = 3" in capsys.readouterr().out

    def test_edgeless(self, tmp_path, capsys):
        src = tmp_path / "e.edges"
        src.write_text("5 0\n")
        assert main(["atn", str(src), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["atn"] == 1

    def test_guard_exit_code(self, tmp_path, capsys):
        src = tmp_path / "k7.edges"
        src.write_text(to_edge_list_text(named_graph("K7")))
        assert main(["atn", str(src), "--method", "orient", "--max-edges", "10"]) == 3

    def test_missing_file(self, capsys):
        assert main(["atn", "no-such-file.edges"]) == 2

    def test_both_refuses_at_orientation_guard_before_expanding(
        self, tmp_path, monkeypatch, capsys
    ):
        def no_expansion(*args, **kwargs):
            raise AssertionError("the polynomial was expanded")

        monkeypatch.setattr(cli, "atn_from_polynomial", no_expansion)
        src = tmp_path / "k38.edges"
        src.write_text(to_edge_list_text(complete_bipartite(3, 8)))  # 24 edges
        assert main(["atn", str(src), "--method", "both"]) == 3
        assert "orientation guard" in capsys.readouterr().err


class TestCensus:
    def test_acyclic(self, k4_file, capsys):
        assert main(["census", k4_file, "--bits", "0x0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "alonTarsi": True,
            "even": 1,
            "maxOutdegree": 3,
            "odd": 0,
        }

    def test_cyclic_triangle(self, k3_file, capsys):
        assert main(["census", k3_file, "--bits", "0x2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["even"], payload["odd"]) == (1, 1)
        assert payload["alonTarsi"] is False

    def test_bits_out_of_range(self, k3_file, capsys):
        assert main(["census", k3_file, "--bits", "0xff"]) == 2


class TestChoosable:
    def test_triangle_not_2_choosable(self, k3_file, capsys):
        code = main(["choosable", k3_file, "-k", "2", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["choosable"] is False
        assert payload["witness"] == [[0, 1], [0, 1], [0, 1]]

    def test_guard(self, tmp_path, capsys):
        src = tmp_path / "k44.edges"
        src.write_text(to_edge_list_text(named_graph("K4,4")))
        assert main(["choosable", str(src), "-k", "3", "--max-nodes", "1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "guard violation: is_k_choosable: nodes 1001 exceed guard 1000 "
            "(core n=8, k=3)\n"
        )

    def test_negative_k_is_bad_input(self, k3_file, capsys):
        assert main(["choosable", k3_file, "-k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input" in captured.err


class TestEfl:
    def test_generate_counts(self, capsys):
        assert main(["efl", "generate", "-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(ln)["k"] == 3 for ln in lines)

    def test_certify_catalog(self, capsys):
        assert main(["efl", "certify", "-k", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # k=1 and both k=2 configs
        for ln in lines:
            rep = json.loads(ln)
            assert rep["conclusion_holds"] and rep["engines_agree"]

    def test_certify_single_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 3, "cliques": [[0,1,2],[0,3,4],[0,5,6]]}')
        assert main(["efl", "certify", "--config", str(cfg)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["atn"] == 3

    def test_generate_guard(self, capsys):
        assert main(["efl", "generate", "-k", "6"]) == 3

    @pytest.mark.parametrize("action", ["generate", "certify"])
    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_k_is_bad_input(self, action, k, capsys):
        assert main(["efl", action, "-k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "k must be positive" in captured.err

    def test_certify_k4_skips_only_the_orientation_engine(self, capsys):
        # m = 24 at k = 4 is past the orientation guard; the polynomial
        # engine still decides every configuration
        assert main(["efl", "certify", "-k", "4"]) == 0
        reports = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert len(reports) == 1 + 2 + 5 + 16
        for rep in reports[8:]:
            assert rep["engines_agree"] == "SKIP"
            assert rep["atn"] == 4 and rep["conclusion_holds"]
        assert all(rep["engines_agree"] is True for rep in reports[:8])

    @pytest.mark.parametrize("argv", [["efl", "certify", "-k", "6"], ["verify", "thm4"]])
    def test_guard_refuses_before_generating(self, argv, tmp_path, monkeypatch, capsys):
        def generate_all(k):
            raise AssertionError(f"generated k={k} past the guard")

        monkeypatch.setattr(efl, "generate_all", generate_all)
        if argv[0] == "verify":
            argv = argv + ["--config", _config_file(tmp_path, {"max_k": 6})]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "k=6 > 5" in captured.err

    def test_invalid_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"k": 2, "cliques": [[0,1],[0,1]]}')
        assert main(["efl", "certify", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "obj",
        [
            [1, 2],
            {"k": 2},
            {"k": 2, "cliques": 5},
            {"k": 2, "cliques": [[0, 1], [1, "a"]]},
            {"k": 2.5, "cliques": [[0, 1], [1, 2]]},
            {"k": True, "cliques": [[0]]},
            {"k": 0, "cliques": []},
        ],
    )
    @pytest.mark.parametrize("argv", [["efl", "certify", "--config"], ["construct", "efl"]])
    def test_malformed_config_rejected(self, obj, argv, tmp_path, capsys):
        cfg = _config_file(tmp_path, obj)
        assert main(argv + [cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "Traceback" not in captured.err


class TestVerify:
    def test_reader_closing_early_exits_141(self):
        # duality at max_edges 9 prints far more than a pipe buffer holds
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "alontarsi.cli", "verify", "duality", "--max-edges", "9"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            rc = proc.wait(timeout=120)
        assert json.loads(first)["campaign"] == "duality"
        assert rc == 141
        assert "invalid input" not in err and "Traceback" not in err and "Exception" not in err

    def test_thm1_json_stream(self, capsys):
        assert main(["verify", "thm1", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for ln in lines:
            rep = json.loads(ln)
            assert rep["pass"] is True
            assert rep["campaign"] == "thm1"

    def test_thm1_edgeless_graphs_skip(self, tmp_path, capsys):
        # Delta = 0 lies outside Theorem 1: L(G) is the null graph, ATN 1
        cfg = _config_file(tmp_path, {"graphs": ["4K1", "K0"]})
        assert main(["verify", "thm1", "--config", cfg]) == 0
        reports = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert [rep["instance"] for rep in reports] == ["thm1/000-4K1", "thm1/001-K0"]
        for rep in reports:
            assert set(rep["claims"].values()) == {"SKIP"}
            assert rep["values"]["applicable"] is False and rep["pass"] is True

    def test_text_format(self, capsys):
        assert main(["verify", "cor3", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_text_notes_a_guard_that_skips_no_claim(self, monkeypatch, capsys):
        # a host factorization guard trips after thm2's one listed claim is
        # decided, so the report has no "SKIP"; the text line still names it
        monkeypatch.setattr(verify, "EMBED_HOST_GUARD", 12)
        assert main(["verify", "thm2", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        guarded = [ln for ln in lines if "factorization guard" in ln]
        assert len(lines) == 52 and len(guarded) == 15
        assert all(re.fullmatch(r"PASS thm2/\S+ \(factorization guard: n=\d+ > 12\)", ln) for ln in guarded)

    def test_reports_deterministic_except_wall_time(self):
        def strip(reports):
            return [{k: v for k, v in r.items() if k != "wall_ms"} for r in reports]

        a = strip(run_campaign("thm4"))
        b = strip(run_campaign("thm4"))
        assert a == b

    def test_thm2_hosts_fit_the_host_guard(self, thm2_reports):
        # a base with n <= 5 has Delta <= 4, so its host has at most 4 copies
        # and 20 vertices: EMBED_HOST_GUARD never trips and every host is
        # factorized
        for rep in thm2_reports:
            assert "SKIP" not in rep["claims"].values() and "guard" not in rep["values"]
        embeds = [
            rep["values"]
            for rep in thm2_reports
            if rep["values"]["class"] == 1 and rep["values"]["graph"]["n"] <= verify.EMBED_MAX_N
        ]
        assert len(embeds) > 0
        for values in embeds:
            assert values["host_one_factorizable"] is True and values["host"]["n"] <= 20

    def test_thm2_class1_equality_fails_on_k33(self):
        # K3,3 is class 1 with Delta = 3, but the only monomial of L(K3,3)
        # with every exponent <= 2 is the all-2 one, and its coefficient is
        # ELS(3) - OLS(3) = 0: the gated equality is False there
        g = named_graph("K3,3")
        assert chromatic_index_class(g) == 1 and g.max_degree() == 3
        lg = line_graph(g)
        assert atn_from_polynomial(lg)[0] == 4
        assert coefficient_of(lg, (2,) * 9) == 0
        claims, values = {}, {}
        verify._run_thm2(claims, values, g)
        assert claims == {
            "atn_line_le_delta_plus_1": True,
            "class1_atn_line_equals_delta": False,
        }
        assert values["class"] == 1 and values["atn_line"] == 4

    def test_max_edges_shrinks_family(self, capsys):
        assert main(["verify", "thm2", "--max-edges", "3", "--format", "json"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # connected graphs with 1 <= m <= 3

    def test_unknown_campaign_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "nope"])

    def test_flags_skip_campaigns_without_the_knob(self, capsys):
        assert main(["verify", "thm4", "--seed", "1", "--max-edges", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 8

    @pytest.mark.parametrize(
        "campaign, expected",
        [
            ("thm1", {"graphs": ["2K2", "C4", "K4"]}),
            ("thm2", {"max_edges": 6}),
            ("cor3", {"graphs": ["K2", "P3", "P4", "K3", "C4", "K1,3"]}),
            ("thm4", {"max_k": 3}),
            ("duality", {"max_edges": 8, "engine_max_n": 5, "seed": 0}),
            ("sandwich", {"max_n": 5}),
        ],
    )
    def test_default_config(self, campaign, expected):
        cfg = verify.default_config(campaign)
        assert list(cfg.items()) == list(expected.items())
        # a caller's edits do not reach the registry
        for value in cfg.values():
            if isinstance(value, list):
                value.append("X")
        assert list(verify.default_config(campaign).items()) == list(expected.items())


def _config_file(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


def census_by_orientation(g):
    """Oracle for the duality census worker: its claims and values, one
    orientation at a time, with the coefficient read through pack."""
    even, odd = verify.orientation_census_table(g)
    poly = verify.full_expansion(g)
    full = (1 << g.m) - 1
    matches = symmetric = True
    alon_tarsi = 0
    for value in range(1 << g.m):
        out = Orientation.from_int(g, value).outdegrees()
        diff = even[value] - odd[value]
        matches &= abs(poly.terms.get(poly.pack(out), 0)) == abs(diff)
        symmetric &= abs(diff) == abs(even[full ^ value] - odd[full ^ value])
        alon_tarsi += diff != 0
    claims = {"census_matches_coefficients": matches, "arc_reversal_symmetric": symmetric}
    values = {
        "graph": verify._graph_descriptor(g),
        "orientations": 1 << g.m,
        "alon_tarsi_orientations": alon_tarsi,
    }
    return claims, values


class TestVerifyGuards:
    def test_memory_guard_gives_skip_reports(self, monkeypatch, capsys):
        # the term guard trips in the last claim's expansion: the claims
        # decided before it stand, and only that claim is "SKIP"
        monkeypatch.setattr(polynomials, "TERM_GUARD", 4)
        assert main(["verify", "cor3"]) == 0
        reports = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert len(reports) == 6
        for rep in reports:
            assert rep["claims"] == {
                "half_square_original_is_base": True,
                "half_square_edge_is_line": True,
                "cross_edges_are_subdivision": True,
                "atn_total_le_delta_plus_3": "SKIP",
            }
            assert rep["pass"] is True
            assert sorted(rep["values"]) == ["delta", "graph", "guard", "total"]
            assert rep["values"]["guard"].endswith("exceed guard 4")

    def test_size_guard_skip_keeps_default_claim_keys(self, tmp_path, capsys):
        # C14 is 2-regular on 14 vertices, past FACTORIZATION_GUARD = 12
        cfg = _config_file(tmp_path, {"graphs": ["C14"]})
        assert main(["verify", "thm1", "--config", cfg]) == 0
        (rep,) = [json.loads(ln) for ln in capsys.readouterr().out.strip().splitlines()]
        assert rep["instance"] == "thm1/000-C14"
        assert rep["claims"] == dict.fromkeys(
            ("factor_structure", "pair_all_ones_monomial", "atn_line_equals_delta"), "SKIP"
        )
        assert rep["values"] == {
            "graph": {"n": 14, "edges": [list(e) for e in named_graph("C14").edges]},
            "delta": 2,
            "guard": "factorization guard: n=14 > 12",
        }

    def test_choosability_guard_skips_only_the_ch_claims(self, monkeypatch):
        # a budget of 10 nodes covers every chi on n <= 4 and every
        # choosability call but two: C4 at k = 2 and K4 at k = 3 trip it
        # after chi and ATN are known
        monkeypatch.setattr(coloring, "COLORING_GUARD", 10)
        reports = run_campaign("sandwich", overrides={"max_n": 4})
        assert len(reports) == 18
        skipped = {r["instance"]: r for r in reports if "guard" in r["values"]}
        for rep in reports:
            assert ("SKIP" in rep["claims"].values()) == (rep["instance"] in skipped)
        assert sorted(skipped) == ["sandwich/014-4v4e", "sandwich/017-4v6e"]
        for iid, chi, atn, k in [("sandwich/014-4v4e", 2, 2, 2), ("sandwich/017-4v6e", 4, 4, 3)]:
            rep = skipped[iid]
            assert rep["claims"] == {"chi_le_atn": True, "chi_le_ch": "SKIP", "ch_le_atn": "SKIP"}
            assert (rep["values"]["chi"], rep["values"]["atn"]) == (chi, atn)
            assert "ch" not in rep["values"]
            assert rep["values"]["guard"] == (
                f"is_k_choosable: nodes 11 exceed guard 10 (core n=4, k={k})"
            )
            assert rep["pass"] is True

    def test_default_sandwich_fits_a_tenth_of_the_budget(self, monkeypatch):
        monkeypatch.setattr(coloring, "COLORING_GUARD", 100_000)
        reports = run_campaign("sandwich")
        assert len(reports) == 52
        assert all(r["pass"] and "guard" not in r["values"] for r in reports)

    def test_orientation_guard_skips_only_its_claim(self, monkeypatch):
        # L(2K4) has m = 24: the factorization claims finish, the orientation
        # engine's guard (CENSUS_GUARD = 22) trips
        overrides = {"graphs": ["2K4"]}
        (rep,) = run_campaign("thm1", overrides=overrides)
        assert rep["claims"] == {
            "factor_structure": True,
            "pair_all_ones_monomial": True,
            "atn_line_equals_delta": "SKIP",
        }
        assert rep["values"]["atn_line"] == 3 and rep["pass"] is True
        assert rep["values"]["guard"] == "orientation guard: m=24 > 22"

        # a polynomial value off Delta fails without running the other engine
        real = verify.atn_from_polynomial
        monkeypatch.setattr(verify, "atn_from_polynomial", lambda g: (real(g)[0] + 1, real(g)[1]))
        (rep,) = run_campaign("thm1", overrides=overrides)
        assert rep["claims"]["atn_line_equals_delta"] is False and rep["pass"] is False
        assert "guard" not in rep["values"]

    def test_duality_census_checks_every_orientation(self, monkeypatch):
        # one nonzero coefficient of K4 goes missing: the identity claim
        # fails, and the other claim and the Alon-Tarsi count still cover
        # all 64 orientations
        g = named_graph("K4")
        claims, values = {}, {}
        verify._run_duality_census(claims, values, g)
        assert claims == {"census_matches_coefficients": True, "arc_reversal_symmetric": True}
        real = verify.full_expansion

        def dropped(h):
            poly = real(h)
            del poly.terms[max(poly.terms)]
            return poly

        monkeypatch.setattr(verify, "full_expansion", dropped)
        bad_claims, bad_values = {}, {}
        verify._run_duality_census(bad_claims, bad_values, g)
        assert bad_claims == {
            "census_matches_coefficients": False,
            "arc_reversal_symmetric": True,
        }
        assert bad_values == values and values["alon_tarsi_orientations"] > 0

    def test_duality_census_matches_a_per_orientation_loop(self):
        for g in graphs_with_edge_budget(7):
            claims, values = {}, {}
            verify._run_duality_census(claims, values, g)
            assert (claims, values) == census_by_orientation(g), g.edges

    def test_duality_census_catches_a_corrupted_table(self, monkeypatch):
        # K4's orientation 0 is transitive, so its census is 1/0 and both it
        # and its reversal have coefficient +-1; one extra even subdigraph
        # breaks the identity and the reversal symmetry at once
        g = named_graph("K4")
        real = verify.orientation_census_table

        def bumped(h):
            even, odd = real(h)
            even[0] += 1
            return even, odd

        monkeypatch.setattr(verify, "orientation_census_table", bumped)
        claims, values = {}, {}
        verify._run_duality_census(claims, values, g)
        assert claims == {"census_matches_coefficients": False, "arc_reversal_symmetric": False}
        assert (claims, values) == census_by_orientation(g)

    def test_enumeration_guard_still_exits_3(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, {"max_k": 6})
        assert main(["verify", "thm4", "--config", cfg]) == 3
        assert capsys.readouterr().out == ""

    def test_thm4_nonpositive_max_k_is_bad_input(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, {"max_k": 0})
        assert main(["verify", "thm4", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "k must be positive" in captured.err

    def test_sandwich_catalog_guard_exits_3(self, tmp_path, monkeypatch, capsys):
        def canonical_key(g):
            raise AssertionError("enumerated past the catalog guard")

        monkeypatch.setattr(canon, "canonical_key", canonical_key)
        cfg = _config_file(tmp_path, {"max_n": 8})
        assert main(["verify", "sandwich", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "n=8 > 7" in captured.err

    def test_connected_catalog_guard_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(canon, "CATALOG_GUARD", 20)
        assert main(["verify", "thm2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "catalog guard: 21 connected graphs > 20 at max_edges=6" in captured.err

    @pytest.mark.parametrize(
        "campaign, obj", [("sandwich", {"max_n": 0}), ("duality", {"engine_max_n": 0})]
    )
    def test_nonpositive_vertex_bound_is_bad_input(self, campaign, obj, tmp_path, capsys):
        cfg = _config_file(tmp_path, obj)
        assert main(["verify", campaign, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid input" in captured.err

    @pytest.mark.parametrize("campaign", ["thm2", "duality"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_negative_edge_budget_is_bad_input(self, campaign, via, tmp_path, capsys):
        # the catalogs refuse it: no vacuous pass on K1 or the empty graph
        if via == "flag":
            argv = ["verify", campaign, "--max-edges", "-1"]
        else:
            argv = ["verify", campaign, "--config", _config_file(tmp_path, {"max_edges": -1})]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input: edge budget must be non-negative" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # explicit ids keep each case's name fixed when rows are added or removed
            pytest.param(
                ["atn", "{g}", "--method", "orient", "--max-edges", "-1"],
                "edge guard",
                id="argv1-edge guard",
            ),
            pytest.param(
                ["census", "{g}", "--bits", "0x0", "--max-edges", "-1"],
                "edge guard",
                id="argv2-edge guard",
            ),
            pytest.param(
                ["choosable", "{g}", "-k", "2", "--max-nodes", "-1"],
                "k and max_nodes",
                id="argv3-k and max_nodes",
            ),
        ],
    )
    def test_negative_guard_is_bad_input(self, argv, message, k3_file, capsys):
        assert main([a.format(g=k3_file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"invalid input: {message} must be non-negative, got " in captured.err
        assert captured.err.endswith("-1\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ["atn", "{g}", "--max-terms", "5"],
            ["efl", "certify", "--max-terms", "5"],
            ["verify", "cor3", "--max-terms", "4"],
        ],
    )
    def test_term_guard_is_no_option(self, argv, k3_file, capsys):
        # the term guard is the module constant polynomials.TERM_GUARD
        with pytest.raises(SystemExit) as exc:
            main([a.format(g=k3_file) for a in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --max-terms" in captured.err

    def test_duality_census_uses_the_table_guard(self):
        # the worker sees no campaign config: the census table's own guard
        # applies, and the empty graph has its one orientation censused
        claims = {}
        verify._run_duality_census(claims, {}, Graph(0, []))
        assert claims == {"census_matches_coefficients": True, "arc_reversal_symmetric": True}

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        # all but the first were config keys: constants in verify, or guards
        # read from their module constants
        for campaign, key, value in [
            ("thm1", "graphz", ["K4"]),
            ("thm2", "embed_max_n", 5),
            ("thm2", "embed_max_edges", 6),
            ("duality", "eval_points", 100),
            ("duality", "eval_max_edges", 10),
            ("thm1", "factorization_max_n", 12),
            ("thm1", "orientation_max_edges", 22),
            ("thm2", "host_factorization_max_n", 24),
            ("sandwich", "choosable_max_n", 6),
            ("sandwich", "choosable_max_k", 4),
            ("cor3", "max_terms", 10_000_000),
        ]:
            cfg = _config_file(tmp_path, {key: value})
            assert main(["verify", campaign, "--config", cfg]) == 2
            assert capsys.readouterr().out == ""
            with pytest.raises(ValueError, match=key):
                run_campaign(campaign, overrides={key: value})

    @pytest.mark.parametrize(
        "campaign, obj",
        [
            ("thm2", [1]),
            ("thm2", {"max_edges": "x"}),
            ("thm2", {"max_edges": True}),
            ("thm1", {"graphs": ["K4", 3]}),
            # a list given as a string, and configs that select no instance
            ("cor3", {"graphs": "K4"}),
            ("thm1", {"graphs": []}),
            ("cor3", {"graphs": []}),
            ("thm2", {"max_edges": 0}),
        ],
    )
    def test_malformed_config_rejected(self, campaign, obj, tmp_path, capsys):
        cfg = _config_file(tmp_path, obj)
        assert main(["verify", campaign, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err and "Traceback" not in captured.err

    def test_null_config_value_keeps_default(self, tmp_path, capsys):
        cfg = _config_file(tmp_path, {"graphs": None})
        assert main(["verify", "thm1", "--config", cfg]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize("jobs", ["2", "3", "0", "-3"])
    def test_jobs_out_of_range_rejected(self, jobs, monkeypatch, capsys):
        # campaigns run in one process: --jobs is no option at all
        import multiprocessing

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "cor3", "--jobs", jobs])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestReportAggregation:
    def test_skip_is_not_failure(self):
        from alontarsi.verify import campaign_passed, report_passed

        good = {"claims": {"a": True, "b": "SKIP"}}
        bad = {"claims": {"a": True, "b": False}}
        assert report_passed(good) and not report_passed(bad)
        assert campaign_passed([good]) and not campaign_passed([good, bad])

    def test_report_lines_are_json(self, capsys):
        import json as _json

        from alontarsi.verify import report_line, run_campaign

        for report in run_campaign("thm4"):
            parsed = _json.loads(report_line(report))
            assert parsed["campaign"] == "thm4"

    def test_unknown_campaign_config(self):
        import pytest as _pytest

        from alontarsi.verify import default_config

        with _pytest.raises(ValueError):
            default_config("nope")


def readme_synopsis() -> dict[str, str]:
    """Subcommand -> its usage lines under README's "Command line" heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines_of = {}
    current = None
    for line in block.splitlines():
        if line.startswith("alontarsi "):
            current = line.split()[1]
        if current is not None and line.strip():
            lines_of.setdefault(current, []).append(line)
    return {name: "\n".join(lines) for name, lines in lines_of.items()}


def parser_options() -> dict[str, list[list[str]]]:
    """Subcommand -> the option strings of each option, -h/--help left out."""
    sub = next(a for a in cli.build_parser()._actions if a.choices and a.dest == "command")
    return {
        name: [a.option_strings for a in parser._actions if a.option_strings and a.dest != "help"]
        for name, parser in sub.choices.items()
    }


class TestReadmeSynopsis:
    def test_every_option_is_listed(self):
        synopsis = readme_synopsis()
        for name, options in parser_options().items():
            text = synopsis.get(name, "")
            assert text, f"README synopsis lacks '{name}'"
            for strings in options:
                assert any(
                    re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", text) for opt in strings
                ), f"README synopsis of '{name}' lacks {strings}"

    def test_no_option_the_parser_lacks(self):
        synopsis = readme_synopsis()
        options = parser_options()
        assert set(synopsis) == set(options)
        for name, text in synopsis.items():
            named = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", text))
            known = {opt for strings in options[name] for opt in strings}
            assert named <= known, f"README synopsis of '{name}' names {sorted(named - known)}"


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that grows by one on every ArgumentParser construction."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


# valid argv for every command; parsing opens no file
VALID_ARGV = [
    ["construct", "line", "g.txt"],
    ["construct", "efl", "cfg.json", "-o", "-"],
    ["construct", "augment", "g.txt", "--output", "out.txt"],
    ["atn", "g.txt"],
    ["atn", "g.txt", "--meth", "orient", "--format", "json"],
    ["atn", "g.txt", "--method", "both", "--max-edges", "5", "--format", "text"],
    ["census", "g.txt", "--bits", "0x2a"],
    ["census", "g.txt", "--max-edges", "3", "--bits", "1"],
    ["choosable", "g.txt", "-k", "2"],
    ["choosable", "g.txt", "-k", "3", "--max-nodes", "4", "--format", "json"],
    ["verify", "thm1"],
    ["verify", "duality", "--config", "cfg.json", "--max-edges", "4", "--format", "text"],
    ["verify", "cor3", "--seed", "3", "--format", "json"],
    ["efl", "generate"],
    ["efl", "certify", "-k", "2", "--config", "cfg.json"],
]

# argv that end in SystemExit: help, usage and errors of every kind
EXITING_ARGV = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["atn"],
    *([name, "-h"] for name in ["construct", "atn", "census", "choosable", "verify", "efl"]),
    ["construct", "line"],
    ["census", "g.txt"],
    ["atn", "g.txt", "--method", "nope"],
    ["choosable", "g.txt", "-k", "x"],
    ["atn", "g.txt", "--bogus"],
    ["atn", "g.txt", "extra"],
    ["atn", "--bogus"],
    ["verify", "thm1", "--jobs", "2"],
    ["verify", "nope"],
    ["efl", "frob"],
    ["-h", "atn"],
    ["atn", "--help", "g.txt"],
]


class TestParserPerCommand:
    """main builds only the named command's parser, with the full parser's
    results: the same namespace, and the same exit code, help and errors."""

    @pytest.mark.parametrize("argv", VALID_ARGV, ids=" ".join)
    def test_namespace_matches_full_parser(self, argv, parsers_built):
        fast = vars(cli._parse(argv))
        assert parsers_built == [f"alontarsi {argv[0]}"]
        full = vars(cli.build_parser().parse_args(argv))
        assert fast == full and fast["command"] == argv[0]

    @pytest.mark.parametrize("argv", EXITING_ARGV, ids=lambda argv: " ".join(argv) or "none")
    def test_exit_and_text_match_full_parser(self, argv, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for parse in (main, cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            outcomes.append((exc.value.code, *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]

    def test_argv_defaults_to_sys_argv(self, k3_file, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["alontarsi", "atn", k3_file, "--format", "json"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["atn"] == 3

    def test_one_parser_per_call(self, k3_file, parsers_built, capsys):
        assert main(["atn", k3_file, "--format", "json"]) == 0
        assert parsers_built == ["alontarsi atn"]
        # an argument atn lacks: the full parser (7 parsers) reports it
        parsers_built.clear()
        with pytest.raises(SystemExit):
            main(["atn", k3_file, "--bogus"])
        assert len(parsers_built) == 1 + 7
        assert "alontarsi: error: unrecognized arguments: --bogus" in capsys.readouterr().err
