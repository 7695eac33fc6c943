import json
import os
import subprocess
import sys

import pytest

from hmfcert import lattice
from hmfcert.cli import load_config, run


@pytest.fixture
def q5_config(tmp_path):
    cfg = {
        "field": {"min_poly": [-5, 0, 1], "units": [["3/2", "1/2"]]},
        "weight": {"k": [4, 2]},
        "level": {"Delta": 20},
    }
    path = tmp_path / "q5.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestWeightsCommand:
    def test_text_output(self, capsys):
        assert run(["weights", "--k", "4,2"]) == 0
        out = capsys.readouterr().out
        assert "hodge multiset = {1, 2, 4, 5}" in out
        assert "MW = True" in out
        assert "min prime (II): 7" in out
        assert "min prime (exceptional): 13" in out

    def test_json_output(self, capsys):
        assert run(["--format", "json", "weights", "--k", "4,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hodge_multiset"] == [1, 2, 4, 5]
        assert payload["bounds"]["min_prime_combined"] == 13

    def test_invalid_weight(self, capsys):
        assert run(["weights", "--k", "3,2"]) == 1


class TestRecoverWeightsCommand:
    def test_example(self, capsys):
        assert run(["recover-weights", "--multiset", "1,2,4,5", "--d", "2"]) == 0
        assert "a = 3, parts = {0, 1}" in capsys.readouterr().out

    def test_inconsistent(self, capsys):
        assert run(["recover-weights", "--multiset", "0,1,2,5", "--d", "2"]) == 1

    @pytest.mark.parametrize("d", ["0", "-1"])
    def test_d_below_one_rejected(self, capsys, d):
        assert run(["recover-weights", "--multiset", "4", "--d", d]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: d = {d} must be at least 1\n"


class TestBggTableCommand:
    def test_text(self, capsys):
        assert run(["bgg-table", "--k", "4,2"]) == 0
        assert "r=2" in capsys.readouterr().out

    def test_json(self, capsys):
        assert run(["--format", "json", "bgg-table", "--k", "4,2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == [4, 2]


class TestExcludePrimesCommand:
    def test_flagship(self, q5_config, capsys):
        code = run(["exclude-primes", "--config", q5_config])
        out = capsys.readouterr().out
        assert code == 0
        assert "excluded set: [2, 3, 5, 7]" in out
        assert "bound: 13" in out

    def test_json_roundtrip(self, q5_config, capsys):
        assert run(["--format", "json", "exclude-primes", "--config", q5_config]) == 0
        raw = capsys.readouterr().out
        payload = json.loads(raw)
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == raw
        assert payload["excluded_set"] == [2, 3, 5, 7]
        assert payload["bound"] == 13

    def test_partial_exit_code(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-5, 0, 1]},
            "weight": {"k": [4, 2]},
            "level": {"Delta": 20},
        }
        path = tmp_path / "no-units.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 2

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-5, 0, 1], "bogus": 1},
            "weight": {"k": [4, 2]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_not_totally_real_config(self, tmp_path, capsys):
        cfg = {"field": {"min_poly": [1, 0, 1]}, "weight": {"k": [4, 2]}}
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 1


class TestMalformedConfig:
    """A malformed config ends in one error line and exit 1, not a traceback."""

    Q5 = {"field": {"min_poly": [-5, 0, 1], "units": [["3/2", "1/2"]]},
          "weight": {"k": [4, 2]}}

    def _run(self, tmp_path, capsys, cfg, command="exclude-primes"):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = run([command, "--config", str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return code, captured.err

    @pytest.mark.parametrize("entry", ["1/0", [1, 0]])
    @pytest.mark.parametrize("where", ["unit", "delta"])
    def test_zero_denominator(self, tmp_path, capsys, entry, where):
        cfg = json.loads(json.dumps(self.Q5))
        if where == "unit":
            cfg["field"]["units"] = [[entry, "1/2"]]
        else:
            cfg["criteria"] = {"quadratic_extensions": [{"delta": [entry, 1], "units": []}]}
        code, err = self._run(tmp_path, capsys, cfg)
        assert code == 1
        assert err == f"error: zero denominator in rational {entry!r}\n"

    def test_zero_denominator_in_split(self, tmp_path, capsys):
        cfg = {"lattice": [[1, 0], [0, 5]], "p": 5,
               "split": {"v1": [["1/0", 0]], "v2": [[0, 1]]}}
        code, err = self._run(tmp_path, capsys, cfg, "congruence-module")
        assert code == 1
        assert err == "error: zero denominator in rational '1/0'\n"

    @pytest.mark.parametrize("entry", [0.5, True])
    def test_split_entry_not_a_rational(self, tmp_path, capsys, entry):
        cfg = {"lattice": [[1, 0], [0, 5]], "p": 5,
               "split": {"v1": [[entry, 1]], "v2": [[0, 1]]}}
        code, err = self._run(tmp_path, capsys, cfg, "congruence-module")
        assert (code, err) == (1, f"error: cannot parse rational from {entry!r}\n")

    @pytest.mark.parametrize("cfg", [[{"a": 1}], [1, 2], "field", 3, None])
    def test_top_level_not_an_object(self, tmp_path, capsys, cfg):
        assert self._run(tmp_path, capsys, cfg) == (1, "error: config is not a JSON object\n")

    @pytest.mark.parametrize("block,value", [
        ("field", [1]), ("weight", [[4, 2]]), ("level", 20), ("criteria", []),
        ("output", "json"),
    ])
    def test_block_not_an_object(self, tmp_path, capsys, block, value):
        cfg = dict(self.Q5, **{block: value})
        assert self._run(tmp_path, capsys, cfg) == (1, f"error: {block} is not a JSON object\n")

    def test_quadratic_extension_entry_not_an_object(self, tmp_path, capsys):
        cfg = dict(self.Q5, criteria={"quadratic_extensions": [[[2], []]]})
        assert self._run(tmp_path, capsys, cfg) == (
            1, "error: quadratic_extensions entry is not a JSON object\n")

    @pytest.mark.parametrize("cfg,message", [
        ([{"lattice": [[1]]}], "congruence-module config is not a JSON object"),
        ({"lattice": [[1, 0], [0, 5]], "p": 5, "split": [[1, 0]]},
         "congruence-module split is neither an integer nor a JSON object"),
    ])
    def test_congruence_module_not_an_object(self, tmp_path, capsys, cfg, message):
        assert self._run(tmp_path, capsys, cfg, "congruence-module") == (1, f"error: {message}\n")

    GLUED3 = {"lattice": [[1, 1, 1], [0, 15, 0], [0, 0, 15]], "p": 5}

    @pytest.mark.parametrize("split,message", [
        (-1, "congruence-module split -1 is not in 1..2"),
        (0, "congruence-module split 0 is not in 1..2"),
        (3, "congruence-module split 3 is not in 1..2"),
        (7, "congruence-module split 7 is not in 1..2"),
        (True, "congruence-module split is neither an integer nor a JSON object"),
        ({"v1": 3, "v2": [[0, 1]]}, "congruence-module split v1 is not a list of rows of length 3"),
        ({"v1": [[1, 0, 0]], "v2": [[0, 1]]},
         "congruence-module split v2 is not a list of rows of length 3"),
        ({"v1": [[1, 0, 0]], "v2": [[0, 1, 0], 5]},
         "congruence-module split v2 is not a list of rows of length 3"),
    ])
    def test_congruence_module_bad_split(self, tmp_path, capsys, split, message):
        cfg = dict(self.GLUED3, split=split)
        assert self._run(tmp_path, capsys, cfg, "congruence-module") == (1, f"error: {message}\n")

    @pytest.mark.parametrize("ops,message", [
        ([[[1]]], "error: congruence-module ops entry is not a list of rows of length 2"),
        ([[[1, 0]]], "validation error: operator is not 2x2"),
        ([[[1, 0], [0, 1], [0, 0]]], "validation error: operator is not 2x2"),
        (3, "error: congruence-module ops is not a list of matrices"),
        ([3], "error: congruence-module ops entry is not a list of rows of length 2"),
    ])
    def test_congruence_module_bad_ops(self, tmp_path, capsys, ops, message):
        cfg = {"lattice": [[1, 0], [0, 5]], "split": 1, "p": 5, "ops": ops}
        assert self._run(tmp_path, capsys, cfg, "congruence-module") == (1, message + "\n")

    @pytest.mark.parametrize("cfg,message", [
        ({"lattice": [[1.9, 1], [0, 5]], "split": 1, "p": 5.7},
         "congruence-module lattice entry must be an integer, not 1.9"),
        ({"lattice": [[1, 1], [0, 5]], "split": 1, "p": 5.7},
         "congruence-module 'p' entry must be an integer, not 5.7"),
        ({"lattice": [[1, 1], [0, 5]], "split": 1, "p": [5, 7.0]},
         "congruence-module 'p' entry must be an integer, not 7.0"),
        ({"lattice": [[1, 0], [0, 5]], "split": 1, "p": 5, "ops": [[[1, 0], [0, 2.5]]]},
         "congruence-module ops entry must be an integer, not 2.5"),
    ])
    def test_congruence_module_non_integer(self, tmp_path, capsys, cfg, message):
        assert self._run(tmp_path, capsys, cfg, "congruence-module") == (
            1, f"validation error: {message}\n")

    @pytest.mark.parametrize("field,level,message", [
        ({"min_poly": [-5.0, 0, 1]}, {}, "min_poly coefficient must be an integer, not -5.0"),
        ({"min_poly": [-5, 0, 1.5]}, {}, "min_poly coefficient must be an integer, not 1.5"),
        ({}, {"h_F": 1.5}, "level h_F must be an integer, not 1.5"),
        ({}, {"h_F": True}, "level h_F must be an integer, not True"),
        ({}, {"h_F": 0}, "level h_F must be a positive integer"),
    ])
    def test_exclude_primes_non_integer(self, tmp_path, capsys, field, level, message):
        cfg = dict(self.Q5, field=dict(self.Q5["field"], **field), level=level)
        assert self._run(tmp_path, capsys, cfg) == (1, f"validation error: {message}\n")

    @pytest.mark.parametrize("block,entries,message", [
        ("weight", {"k": [4.7, 2]}, "weight entry must be an integer, not 4.7"),
        ("level", {"Delta": 20.9}, "level Delta must be an integer, not 20.9"),
        ("field", {"galois": [[0, 1], [1.9, 0]]}, "galois entry must be an integer, not 1.9"),
        ("output", {"precision_cap": 512.5},
         "output precision_cap must be an integer, not 512.5"),
        ("criteria", {"fiber_partitions": [[[0, 1.0]]]},
         "fiber_partitions entry must be an integer, not 1.0"),
        ("field", {"units": [[[3, 2.0], [1, 2]]]},
         "rational denominator must be an integer, not 2.0"),
        ("field", {"units": [[[1.5, 1], [1, 2]]]},
         "rational numerator must be an integer, not 1.5"),
    ])
    def test_exclude_primes_non_integer_entry(self, tmp_path, capsys, block, entries, message):
        cfg = dict(self.Q5, **{block: dict(self.Q5.get(block, {}), **entries)})
        assert self._run(tmp_path, capsys, cfg) == (1, f"validation error: {message}\n")

    @pytest.mark.parametrize("block,value,message", [
        ("field", {"units": [["3/2", "1/2"]]}, "field lacks keys ['min_poly']"),
        ("weight", {}, "weight lacks keys ['k']"),
        ("criteria", {"quadratic_extensions": [{"units": []}]},
         "quadratic_extensions entry lacks keys ['delta']"),
    ])
    def test_exclude_primes_missing_key(self, tmp_path, capsys, block, value, message):
        cfg = dict(self.Q5, **{block: value})
        assert self._run(tmp_path, capsys, cfg) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("block,entries,message", [
        ("field", {"units": [5]}, "field units entry is not a list"),
        ("field", {"units": 5}, "field units is not a list"),
        ("field", {"min_poly": 5}, "field min_poly is not a list"),
        ("field", {"galois": [5, 5]}, "field galois entry is not a list"),
        ("weight", {"k": 4}, "weight k is not a list"),
        ("criteria", {"fiber_partitions": [[0, 1]]}, "fiber_partitions block is not a list"),
        ("criteria", {"fiber_partitions": [5]}, "fiber_partitions partition is not a list"),
        ("criteria", {"fiber_partitions": 5}, "criteria fiber_partitions is not a list"),
        ("criteria", {"quadratic_extensions": 5}, "criteria quadratic_extensions is not a list"),
        ("criteria", {"quadratic_extensions": [{"delta": 3}]},
         "quadratic_extensions delta is not a list"),
        ("criteria", {"quadratic_extensions": [{"delta": [3], "units": [5]}]},
         "quadratic_extensions units entry is not a list"),
        ("criteria", {"quadratic_extensions": [{"delta": [3], "units": [[5, [1]]]}]},
         "quadratic_extensions unit is not a list"),
    ])
    def test_exclude_primes_scalar_for_list(self, tmp_path, capsys, block, entries, message):
        cfg = dict(self.Q5, **{block: dict(self.Q5.get(block, {}), **entries)})
        assert self._run(tmp_path, capsys, cfg) == (1, f"error: {message}\n")

    @pytest.mark.parametrize("units", [[[[1]]], [[[1], [1], [1]]], [[]]])
    def test_exclude_primes_unit_pair_length(self, tmp_path, capsys, units):
        cfg = dict(self.Q5, criteria={"quadratic_extensions": [{"delta": [3], "units": units}]})
        assert self._run(tmp_path, capsys, cfg) == (
            1, "error: quadratic_extensions units entry is not an [a, b] pair\n")

    @pytest.mark.parametrize("rows,message", [
        (5, "congruence-module lattice is not a list"),
        ([5], "congruence-module lattice row is not a list"),
        ([[1, 0], 5], "congruence-module lattice row is not a list"),
    ])
    def test_congruence_module_scalar_lattice(self, tmp_path, capsys, rows, message):
        cfg = {"lattice": rows, "split": 1, "p": 5}
        assert self._run(tmp_path, capsys, cfg, "congruence-module") == (1, f"error: {message}\n")

    def test_exclude_primes_boolean_coordinate(self, tmp_path, capsys):
        cfg = dict(self.Q5, field=dict(self.Q5["field"], units=[[True, False]]))
        assert self._run(tmp_path, capsys, cfg) == (1, "error: cannot parse rational from True\n")

    def test_congruence_module_split_bounds_accepted(self, tmp_path, capsys):
        for split, factors in ((1, "[5]"), (2, "[5]")):
            path = tmp_path / "cm.json"
            path.write_text(json.dumps(dict(self.GLUED3, split=split)))
            assert run(["congruence-module", "--config", str(path)]) == 0
            assert f"invariant factors {factors} (order 5)" in capsys.readouterr().out


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

NON_INTEGRAL_Q2 = {"field": {"min_poly": [-2, 0, 1], "units": [["113/49", "72/49"]]},
                   "weight": {"k": [4, 2]}}
# (x + 3)^3 / 17 in x^3 - 3x + 1: norm 1, totally positive, not integral
NON_INTEGRAL_CUBIC = {"field": {"min_poly": [1, -3, 0, 1],
                                "units": [["26/17", "30/17", "9/17"]]},
                      "weight": {"k": [6, 4, 2]}}
NON_INTEGRAL_K_UNIT = {"field": {"min_poly": [0, 1], "units": [["1"]]},
                       "weight": {"k": [2]},
                       "criteria": {"quadratic_extensions": [
                           {"delta": ["2"], "units": [[["113/49"], ["72/49"]]]}]}}


def _cm(**cfg):
    return dict({"lattice": [[1, 0], [0, 5]], "split": 1, "p": 5}, **cfg)


class TestOneLineErrorsInSubprocess:
    """Bad input ends in one error line and exit 1 from a fresh CLI process."""

    CASES = {
        "non_integral_quadratic_unit": (
            "exclude-primes", NON_INTEGRAL_Q2,
            "validation error: unit FieldElem(Fraction(113, 49), Fraction(72, 49)) "
            "is not an algebraic integer"),
        "non_integral_cubic_unit": (
            "exclude-primes", NON_INTEGRAL_CUBIC,
            "validation error: unit FieldElem(Fraction(26, 17), Fraction(30, 17), "
            "Fraction(9, 17)) is not an algebraic integer"),
        "non_integral_k_unit": (
            "exclude-primes", NON_INTEGRAL_K_UNIT,
            "validation error: K: FieldElem(Fraction(113, 49),) + FieldElem(Fraction(72, 49),) "
            "sqrt(delta) is not an algebraic integer"),
        "dependent_split": (
            "congruence-module", _cm(split={"v1": [[1, 0]], "v2": [[2, 0]]}),
            "validation error: V1 and V2 do not span complementary subspaces"),
        "non_commuting_ops": (
            "congruence-module",
            _cm(lattice=[[1, 0], [0, 1]], ops=[[[1, 1], [0, 1]], [[1, 0], [1, 1]]]),
            "validation error: operators do not commute"),
        "no_lattice": ("congruence-module", {"split": 1, "p": 5},
                       "error: congruence-module config lacks keys ['lattice']"),
        "no_split": ("congruence-module", {"lattice": [[1, 0], [0, 5]], "p": 5},
                     "error: congruence-module config lacks keys ['split']"),
        "no_p": ("congruence-module", {"lattice": [[1, 0], [0, 5]], "split": 1},
                 "error: congruence-module config lacks keys ['p']"),
        "split_without_v1": ("congruence-module", _cm(split={"v2": [[0, 1]]}),
                             "error: congruence-module split lacks keys ['v1']"),
        "split_without_v2": ("congruence-module", _cm(split={"v1": [[1, 0]]}),
                             "error: congruence-module split lacks keys ['v2']"),
        "split_unknown_key": (
            "congruence-module", _cm(split={"v1": [[1, 0]], "v2": [[0, 1]], "v3": []}),
            "error: unknown keys in congruence-module split: ['v3']"),
        "empty_lattice": ("congruence-module", _cm(lattice=[]),
                          "error: congruence-module 'lattice' has no rows"),
    }

    @staticmethod
    def _cli(*argv):
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        return subprocess.run([sys.executable, "-B", "-m", "hmfcert.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_config_error(self, tmp_path, name):
        command, cfg, message = self.CASES[name]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = self._cli(command, "--config", str(path))
        assert (out.returncode, out.stdout, out.stderr) == (1, "", message + "\n")

    def test_closure_cap_exceeded(self):
        out = self._cli("classify-image", "--p", "7", "--gens", "1,1,0,1;1,0,1,1", "--cap", "10")
        assert (out.returncode, out.stdout, out.stderr) == (
            1, "", "validation error: closure exceeded 10 elements\n")


class TestPrecisionCap:
    """A cap below 64 bits, where certification starts, is rejected up front."""

    @pytest.fixture
    def cubic_config(self, tmp_path):
        def write(output=None):
            cfg = {
                "field": {"min_poly": [-1, -3, 0, 1], "units": [["0", "0", "1"]]},
                "weight": {"k": [6, 4, 2]},
            }
            if output is not None:
                cfg["output"] = output
            path = tmp_path / "cubic.json"
            path.write_text(json.dumps(cfg))
            return str(path)
        return write

    @pytest.mark.parametrize("cap", ["32", "-5", "0", "63"])
    def test_flag_below_64_is_a_validation_error(self, cubic_config, capsys, cap):
        path = cubic_config({"precision_cap": 4096})
        assert run(["--precision-cap", cap, "exclude-primes", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"precision cap {cap} is below 64" in captured.err

    def test_config_cap_below_64_is_a_validation_error(self, cubic_config, capsys):
        assert run(["exclude-primes", "--config", cubic_config({"precision_cap": 32})]) == 1
        assert "precision cap 32 is below 64" in capsys.readouterr().err

    def test_cap_64_runs(self, cubic_config, capsys):
        path = cubic_config({"precision_cap": 32})
        assert run(["--precision-cap", "64", "exclude-primes", "--config", path]) == 0
        assert "excluded set:" in capsys.readouterr().out


class TestCongruenceModuleCommand:
    def test_basic(self, tmp_path, capsys):
        cfg = {"lattice": [[1, 1], [0, 5]], "split": 1, "p": 5,
               "ops": [[[2, 0], [0, 7]]]}
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(cfg))
        assert run(["congruence-module", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "invariant factors [5]" in out
        assert "[2] = [7] mod 5" in out

    CFG = {"lattice": [[1, 1, 1], [0, 15, 0], [0, 0, 15]], "split": 1,
           "ops": [[[2, 0, 0], [0, 17, 0], [0, 0, 17]]]}

    def _run(self, tmp_path, capsys, p, *fmt):
        path = tmp_path / "cm.json"
        path.write_text(json.dumps(dict(self.CFG, p=p)))
        code = run([*fmt, "congruence-module", "--config", str(path)])
        return code, capsys.readouterr()

    def test_several_primes_json(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, [5, 3, 7], "--format", "json")
        assert code == 0
        payloads = json.loads(out.out)
        assert [pl["p"] for pl in payloads] == [5, 3, 7]
        for pl in payloads:
            code, single = self._run(tmp_path, capsys, pl["p"], "--format", "json")
            assert code == 0
            assert json.loads(single.out) == pl
        assert payloads[0]["invariant_factors"] == [5]
        assert payloads[1]["invariant_factors"] == [3]
        assert payloads[2]["invariant_factors"] == []

    def test_several_primes_text(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, [7, 5])
        assert code == 0
        blocks = [self._run(tmp_path, capsys, p)[1].out for p in (7, 5)]
        assert out.out == "".join(blocks)
        assert out.out.startswith("congruence module at p=7:")

    def test_several_primes_split_once(self, tmp_path, capsys, monkeypatch):
        # the split and both sides' eigensystems do not depend on p
        calls = {"split": 0, "eigensystems": 0}
        split, eigensystems = lattice.split_lattice, lattice._split_eigensystems

        def counted_split(*args):
            calls["split"] += 1
            return split(*args)

        def counted_eigensystems(*args):
            calls["eigensystems"] += 1
            return eigensystems(*args)

        monkeypatch.setattr(lattice, "split_lattice", counted_split)
        monkeypatch.setattr(lattice, "_split_eigensystems", counted_eigensystems)
        code, out = self._run(tmp_path, capsys, [5, 3, 7], "--format", "json")
        assert code == 0
        assert [pl["p"] for pl in json.loads(out.out)] == [5, 3, 7]
        assert calls == {"split": 1, "eigensystems": 2}

    def test_rational_split_entries(self, tmp_path, capsys):
        # split entries are read as unit coordinates are: "p/q" and [p, q] agree
        outputs = []
        for entry in ["1/2", [1, 2]]:
            path = tmp_path / "cm.json"
            path.write_text(json.dumps({"lattice": [[1, 1], [0, 5]], "p": 5,
                                        "split": {"v1": [[entry, 1]], "v2": [[0, 1]]}}))
            assert run(["--format", "json", "congruence-module", "--config", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["p"] == 5

    @pytest.mark.parametrize("p", [[], [5, 4], [1], 6])
    def test_rejects_empty_or_non_prime(self, tmp_path, capsys, p):
        code, out = self._run(tmp_path, capsys, p)
        assert code == 1
        assert out.out == ""
        assert "congruence-module 'p'" in out.err


class TestClassifyImageCommand:
    def test_psl27(self, capsys):
        assert run(["classify-image", "--p", "7",
                    "--gens", "1,1,0,1;1,0,1,1", "--li"]) == 0
        out = capsys.readouterr().out
        assert "PSL2(7)" in out
        assert "large-image subfield: 7" in out

    def test_json(self, capsys):
        assert run(["--format", "json", "classify-image", "--p", "5",
                    "--gens", "2,0,0,1;1,0,0,2;0,1,1,0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classification"] == "Dihedral(4)"


class TestAdjointCheckCommand:
    def test_passes(self, capsys):
        assert run(["adjoint-check", "--samples", "10"]) == 0
        out = capsys.readouterr().out
        assert "max error" in out and "broken" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, capsys, samples):
        """Zero draws would report a max error of 0 and pass vacuously."""
        assert run(["adjoint-check", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: adjoint-check --samples {samples} draws no parameters\n")

    def test_seed_reproducible(self, capsys):
        run(["--format", "json", "--seed", "5", "adjoint-check", "--samples", "5"])
        first = capsys.readouterr().out
        run(["--format", "json", "--seed", "5", "adjoint-check", "--samples", "5"])
        second = capsys.readouterr().out
        assert first == second


class TestConfigLoader:
    def test_unknown_top_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"field": {"min_poly": [0, 1]},
                                    "weight": {"k": [2]}, "extra": 1}))
        from hmfcert.cli import UsageError
        with pytest.raises(UsageError):
            load_config(str(path))

    def test_quadratic_extension_block(self, tmp_path):
        cfg = {
            "field": {"min_poly": [0, 1]},
            "weight": {"k": [2]},
            "level": {"Delta": 8},
            "criteria": {"quadratic_extensions": [
                {"delta": [2], "units": [[[1], [1]]], "label": "Qsqrt2"}
            ]},
        }
        path = tmp_path / "k.json"
        path.write_text(json.dumps(cfg))
        from hmfcert.cli import build_inputs
        inputs = build_inputs(load_config(str(path)))
        assert len(inputs.quadratic_extensions) == 1
        assert inputs.quadratic_extensions[0].label == "Qsqrt2"


class TestGaloisConfigKey:
    def test_explicit_galois_permutations(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-5, 0, 1], "galois": [[0, 1], [1, 0]],
                      "units": [["3/2", "1/2"]]},
            "weight": {"k": [4, 2]},
            "level": {"Delta": 20},
        }
        path = tmp_path / "g.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 0

    def test_invalid_galois_rejected(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-5, 0, 1], "galois": [[0, 1], [1, 1]]},
            "weight": {"k": [4, 2]},
        }
        path = tmp_path / "g2.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 1


class TestClassifyExtensionField:
    def test_extension_with_default_modulus(self, capsys):
        assert run(["classify-image", "--p", "3", "--r", "2",
                    "--gens", "1,1,0,1;1,0,1,1"]) == 0
        assert "PSL2(3)" in capsys.readouterr().out

    def test_extension_with_explicit_modulus(self, capsys):
        # x^2 + x + 2 over F_3
        assert run(["classify-image", "--p", "3", "--r", "2",
                    "--modulus", "2,1,1", "--gens", "1,1,0,1;1,0,1,1"]) == 0
        assert "PSL2(3)" in capsys.readouterr().out

    def test_entries_are_encoded_elements(self, capsys):
        # 3 encodes x, a generator of F_9^x, so the scalars of F_9 join
        assert run(["--format", "json", "classify-image", "--p", "3", "--r", "2",
                    "--gens", "1,1,0,1;1,0,1,1;3,0,0,3"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "PSL2(3)"
        assert run(["classify-image", "--p", "3", "--r", "2",
                    "--gens", "1,1,0,1;1,0,9,1"]) == 1
        assert "encoded elements 0..8" in capsys.readouterr().err

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_degree_below_one_rejected(self, capsys, r):
        assert run(["classify-image", "--p", "5", "--r", r, "--gens", "1,1,0,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"validation error: r = {r} must be at least 1\n"

    @pytest.mark.parametrize("modulus", ["1,2,1", "1", "3,0"])
    def test_prime_field_modulus_checked(self, capsys, modulus):
        assert run(["classify-image", "--p", "5", "--modulus", modulus,
                    "--gens", "1,1,0,1;1,0,1,1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "validation error: modulus must be monic of degree r\n")

    def test_prime_field_linear_modulus(self, capsys):
        assert run(["classify-image", "--p", "5", "--modulus", "2,1",
                    "--gens", "1,1,0,1;1,0,1,1"]) == 0
        assert capsys.readouterr().out == "group over F_5: PSL2(5), projective order 60\n"

    def test_prime_field_entries_reduce(self, capsys):
        assert run(["classify-image", "--p", "7", "--gens", "8,8,7,8;-6,0,1,1"]) == 0
        assert "PSL2(7)" in capsys.readouterr().out


class TestFullConfigGolden:
    def test_everything_config(self, tmp_path, capsys):
        cfg = {
            "field": {"min_poly": [-5, 0, 1], "galois": [[0, 1], [1, 0]],
                      "units": [["3/2", "1/2"]]},
            "weight": {"k": [4, 2]},
            "level": {"Delta": 20, "h_F": 1},
            "criteria": {
                "quadratic_extensions": [
                    {"delta": [3], "units": [[[2], [1]]], "label": "Fsqrt3"}
                ],
                "fiber_partitions": [[[0, 1]]],
            },
            "output": {"format": "json"},
        }
        path = tmp_path / "full.json"
        path.write_text(json.dumps(cfg))
        assert run(["exclude-primes", "--config", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["excluded_set"] == [2, 3, 5, 7]
        assert payload["bound"] == 13
        assert payload["status"] == "certified"
        assert payload["dihedral"][0]["excluded_primes"] == [2, 3]
        assert payload["non_induced"] == [{"partition": "0,1", "non_induced": True}]
