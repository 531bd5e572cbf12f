"""Pinned sha256 digests of the CSV bytes `dlms run` writes.

The digests were computed with the scalar per-run simulator, before the
vectorized engine replaced it; a change to any of them is a change of the
simulated trajectories or of the file format.
"""

import hashlib

import pytest

from dlms.cli import main, metrics_path

# builtin: (trajectory CSV, metrics CSV) at --ensemble 4 --iterations 250
REDUCED = {
    "table1": ("2192ab5fe3d7d615646cab8a3a25b976a8018a49363a6e2a12e33f5aa7da6315",
               "dcfbb602ff744c06b4eced95bbfd8cddde2ae221d1c446c4d1a9605cbf59a58c"),
    "table2": ("cfaad52aac202ac964e43f7077ae1ca2638f053397bd9724cee850fcfc5aad1c",
               "6682cbacf35b833b72ce0badabcccea060f12546f6271470a67c7a102f087623"),
    "table3": ("5248dbe6e3b1d657c49805c5ce72220e6c55fcbadd0b075a69e2e3a37c590f2d",
               "4df39f747ecbc6cc9ed0cf0a7248f7bfe5b32eba0b00f95e0d8ff80cadebc9bf"),
    "table4": ("4a5d77c71334d6fd3b3bb279854d200cc3d474d1b9f8b3b2d8a85a403ef22fe3",
               "1ccea0fe52e90ea68f62eb5e185df119e7540dc190f605a0cf246a1b6a485c7e"),
    "table5": ("5c40b71939171964d03e6b3927d6cdacdd83c720673191ad9f90c0e68bda258d",
               "93b23d93085004d2655e2cb3a9b38d91a703dea8c0ccbc00ef65c9cbed62a55e"),
}
# table1 at its full size (100 runs x 1000 iterations, seed 42)
FULL_TABLE1 = ("dd98c82532f3961c1525acd34a1a203443ce1c0231b09e48ec8036fa7338ee80",
               "41871d50a7027d41f14e851fb6882e424b4435ed6584ae676831c4bf9decf56a")
# the other builtins at their full size, computed with the row-by-row
# csv.writer form of the trajectory writer
FULL = {
    "table2": ("cebf166ebd64997aa731b63b05a31919dbdaad2570dea9aa3332b1a1ee7dca26",
               "68df7a7e1d3478150421edeb0b0d162b63a449d7ddfc24be4d87d1e8bf2060a8"),
    "table3": ("903993ac20ac9a9375997b74881a31371b119f992872a6e46834ae67d0dc967f",
               "9458f203aa8cff85eaf617268d158da64bedaa791cb0b51abc67b59d4ccbfc89"),
    "table4": ("88cbd219cc382942c2c1f1be4fbd390fcf033c22f7788412d54fe1a4136c42e4",
               "2313685e2660117f7e463b6fa1b03d17cd167b5a48c80b2658dca516ebd950e2"),
    "table5": ("c5b151988023e8af8ebbf2b3af05c56213030c5330b7b13d68b82316bc8b4622",
               "f93f0a8e9f186ea325dcc32ae488d5ac3f00bbaec28711b291bb93b8952a45be"),
}


def _digests(tmp_path, *args):
    out = tmp_path / "t.csv"
    assert main(["run", *args, "--out", str(out)]) == 0
    return tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in (out, metrics_path(out)))


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_reduced_builtin_digests(tmp_path, name):
    assert _digests(tmp_path, name, "--ensemble", "4", "--iterations", "250") \
        == REDUCED[name]


def test_full_table1_digests(tmp_path):
    assert _digests(tmp_path, "table1") == FULL_TABLE1


@pytest.mark.parametrize("name", sorted(FULL))
def test_full_builtin_digests(tmp_path, name):
    assert _digests(tmp_path, name) == FULL[name]
