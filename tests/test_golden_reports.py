"""exclude-primes JSON reports, byte for byte against committed files.

The README promises deterministic reports; these configs cover the exact
quadratic path with a dihedral extension, a cyclic cubic, a non-Galois
cubic with a dihedral extension over intervals, and a Klein-four quartic
whose exact-zero subsets stop at a 256-bit cap.  A file under golden/
changes only when a report is meant to change.
"""

import json
from pathlib import Path

import pytest

from hmfcert.cli import run

GOLDEN = Path(__file__).parent / "golden"

X_SQUARED = {3: ["0", "0", "1"], 4: ["0", "0", "1", "0"]}

CONFIGS = {
    "q5_fsqrt3": ({
        "field": {"min_poly": [-5, 0, 1], "galois": [[0, 1], [1, 0]],
                  "units": [["3/2", "1/2"]]},
        "weight": {"k": [4, 2]},
        "level": {"Delta": 20, "h_F": 1},
        "criteria": {
            "quadratic_extensions": [{"delta": [3], "units": [[[2], [1]]],
                                      "label": "Fsqrt3"}],
            "fiber_partitions": [[[0, 1]]],
        },
    }, 0),
    "cubic_cyclic": ({
        "field": {"min_poly": [-1, -3, 0, 1],
                  "galois": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
                  "units": [X_SQUARED[3]]},
        "weight": {"k": [6, 4, 2]},
        "level": {"Delta": 7},
    }, 0),
    "cubic_fsqrt2": ({
        "field": {"min_poly": [1, -4, 0, 1], "units": [X_SQUARED[3]]},
        "weight": {"k": [4, 2, 2]},
        "level": {"Delta": 1},
        "criteria": {
            "quadratic_extensions": [{"delta": ["2"], "units": [[["1"], ["1"]]],
                                      "label": "Fsqrt2"}],
        },
    }, 0),
    "quartic_klein_cap256": ({
        "field": {"min_poly": [1, 0, -4, 0, 1],
                  "galois": [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]],
                  "units": [X_SQUARED[4]]},
        "weight": {"k": [4, 2, 2, 2]},
        "level": {"Delta": 1},
        "output": {"precision_cap": 256},
    }, 2),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_exclude_primes_json_matches_golden(name, tmp_path, capsys):
    cfg, code = CONFIGS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    assert run(["--format", "json", "exclude-primes", "--config", str(path)]) == code
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
