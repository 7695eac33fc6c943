"""exclude-primes and classify-image JSON reports, byte for byte against
committed files.

The README promises deterministic reports; the exclude-primes configs cover
the exact quadratic path with a dihedral extension, a cyclic cubic, a
non-Galois cubic with a dihedral extension over intervals, and a
Klein-four quartic under a 256-bit cap whose exact-zero subsets are
proven degenerate.  The classify-image cases cover the large-image check
on SL2 conjugates over F_7, F_11 and F_13, SL2(F_3) (not perfect),
GL2(F_3) inside GL2(F_9), the full GL2(F_9), GL2(F_3) extended by the
scalars of F_9, and a dihedral group that fails it.  A file under golden/
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


# name -> classify-image arguments.  With --r 2 every entry is an encoded
# element of F_9 (3 encodes x, a generator of F_9^x).
CLASSIFY = {
    "classify_sl2_f7_li": ["--p", "7", "--gens", "1,0,2,1;1,4,0,1", "--li"],
    "classify_sl2_f11_li": ["--p", "11", "--gens", "5,4,7,8;9,6,4,4", "--li"],
    "classify_sl2_f13_li": ["--p", "13", "--gens", "11,3,10,4;6,3,9,9", "--li"],
    "classify_sl2_f3_li": ["--p", "3", "--gens", "1,1,0,1;1,0,1,1", "--li"],
    "classify_gl2_f3_r2_li": ["--p", "3", "--r", "2", "--gens",
                              "1,1,0,1;1,0,1,1;2,0,0,1", "--li"],
    "classify_gl2_f9_li": ["--p", "3", "--r", "2", "--gens",
                           "1,1,0,1;1,0,1,1;3,0,0,1", "--li"],
    "classify_gl2_f3_f9_scalars_li": ["--p", "3", "--r", "2", "--gens",
                                      "1,1,0,1;1,0,1,1;2,0,0,1;3,0,0,3", "--li"],
    "classify_dihedral_f5_li": ["--p", "5", "--gens", "2,0,0,1;1,0,0,2;0,1,1,0", "--li"],
}


@pytest.mark.parametrize("name", sorted(CLASSIFY))
def test_classify_image_json_matches_golden(name, capsys):
    assert run(["--format", "json", "classify-image"] + CLASSIFY[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
