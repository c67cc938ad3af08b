"""Golden digests of every CLI report on small 60-digit configs, of one
300-digit collapse run and of one jittered run.

Refactors must not move a single byte of ``report.json`` or ``table.csv``:
the oracle-checked numbers are printed at full precision, so any change in
evaluation order shows up here.  Each command runs with the working
directory at a scratch directory and a fixed relative ``--out``, so the
``out`` value recorded inside ``report.json`` does not vary.

When a change alters a report on purpose, regenerate the digests at that
change with

    PYTHONPATH=src python tests/test_golden_reports.py

and paste the printed mapping over ``GOLDEN`` below (say in the change log
which reports moved and why).
"""

import contextlib
import hashlib
import io
import os
import sys

from eilab import cli

# Shared by trajectory, spectral and every verify suite (thm3-bounds runs the
# same trajectory).
BASE_CONFIG = """\
digits = 60
steps = 9
grid.l_max = 600
spectral.k_max = 20
verify.trials = 3
"""

CONTRAST_CONFIG = """\
digits = 60
steps = 29
grid.l_max = 120
kernel.variant = ou
objective = neg_gauss
"""

# The benchmark's collapse run: u reaches -1.5e4, so EI takes the
# raised-precision branch of the closed form, and the solve precision rises.
COLLAPSE_300_CONFIG = """\
digits = 300
steps = 6
grid.l_max = 600
"""

# The exploratory diagonal shift on the 60-digit collapse run: 13 points,
# with the solve precision rising 80 -> 100 -> 111 as in the unshifted run.
# The shift moves only the last choice: x_13 is 6.144e-6 against 0.5488
# without it.
JITTER_CONFIG = """\
digits = 60
steps = 12
grid.l_max = 600
jitter = 1
"""

CONFIGS = {
    "base.txt": BASE_CONFIG,
    "contrast.txt": CONTRAST_CONFIG,
    "collapse-300.txt": COLLAPSE_300_CONFIG,
    "jitter.txt": JITTER_CONFIG,
}

# Output name -> (argv, config file).
COMMANDS = {
    "trajectory": (["trajectory"], "base.txt"),
    "trajectory-300": (["trajectory"], "collapse-300.txt"),
    "trajectory-jitter": (["trajectory"], "jitter.txt"),
    "contrast": (["contrast"], "contrast.txt"),
    "spectral": (["spectral"], "base.txt"),
    **{f"verify-{suite}": (["verify", suite], "base.txt") for suite in cli.SUITES},
}

GOLDEN = {
    "contrast/report.json": "14c7f46e12b4f0a3b207f9925f5c48b20209a4add07274e4dfeaa2097c3bd4a5",
    "contrast/table.csv": "b69c54b6c91d7999ad9bd128226d5bfb805722f0c4da1ab1c319cf0484e3ccd3",
    "spectral/report.json": "598cef5ad604d90fdd29967eda41be8766ef5bae508503b41dd5c531b1100bab",
    "spectral/table.csv": "eb089bbc8c155fe57bab20be3abd691d46defb29557cbc5c4eacfc4e716af424",
    "trajectory-300/report.json": "33ef2c0335df62bb39a4cf4b161bb81b7e3e7ccbcd29babc2a74f878b94e2051",
    "trajectory-300/table.csv": "f21711adad68ea76d52f9f613f34cba608e568c6b854fe0d9bd400bb21ccf1ff",
    "trajectory-jitter/report.json": "74e6d90fe5d440a6a976aacc28ed149351412605ebd1fba8317260eb8b64d69c",
    "trajectory-jitter/table.csv": "d34ec6f87e02725aa575cdf4b08f7dc11c7a524c98e0fc84ec3cb66641a0a010",
    "trajectory/report.json": "700f55dd90fef7cadc6002b1c1576847c656b445dfac3afca8e8532597d801f4",
    "trajectory/table.csv": "3fccc503e4eb0e22e01cc0f6fcf1abd800b8c7044a15ccf7a32fc5a20eb08ba3",
    "verify-ei-oracle/report.json": "6b304115253f5195833e9b6a7002d7d057aa1d95338581361bb1c553bdc27692",
    "verify-ei-oracle/table.csv": "8dfc38bf1fdf93af9678bcfb60146999de08d5cc3b1fe1f065006b23875f76a6",
    "verify-lemma-vandermonde/report.json": "91b7bcfd66161028bb41d03fccf68a0e02964b29eb3cb7b003032ed301f0abe6",
    "verify-lemma-vandermonde/table.csv": "faeb7d3fdc31d819ea375d34eb961a04836d4e0dc8d7942b37b4c2e3ec1fd67b",
    "verify-lemma3-tails/report.json": "6c6dd4bdc66dea6438c07e8ee372b3b266b467e1a868a85c64248a42695fb276",
    "verify-lemma3-tails/table.csv": "784149c8ac6affbde97cc5c7dc77ba91fd30476a243bbbe57278bd094d08d619",
    "verify-posterior-markov/report.json": "5c7a87e6dd28d6965d55696b6c6a53b1d6b9b7333040bb0224f94acb1caddd67",
    "verify-posterior-markov/table.csv": "1b4b945a5f7d8d053412e477d7f7e23c0adf982fa2f4daedc31831ca7cc2b6c5",
    "verify-posterior-oracle/report.json": "dcb2ff1ccfc2cee7f914f92892e8b0bc00830e3e4df7109642ca6ec8be011fe3",
    "verify-posterior-oracle/table.csv": "5f5f2301a76f7a4b3a4dfd555db10363ee8b776e9aef63e210c24ce5b7d96048",
    "verify-thm1-decay/report.json": "bb380f62704e50b659b79760ad860bca13b482eff44bbe6d88067546f346f28f",
    "verify-thm1-decay/table.csv": "a77daf1fcc38a4e915fb0d429deaeb98312fe6b6972c2b82d0f2a415240bee5b",
    "verify-thm2-sandwich/report.json": "26969341eccd1b2efb4ae78530cd74f561e570231f43e494bcc2e6a71278a606",
    "verify-thm2-sandwich/table.csv": "31ac6069da794cb8b3b2c2dc1af06c6eef3008182b92075ebcc46a566a158f91",
    "verify-thm3-bounds/report.json": "3ad12ff635af30c89a9575dc2960c1e44491cf72f4591dd911f1d7609b24a9ad",
    "verify-thm3-bounds/table.csv": "eab1649ec60680d171ee85b9ef978ecfecf025a8814534b92cd6fa510c25b9ac",
}


def generate(workdir):
    """Run every command under ``workdir``; map each output file to its SHA-256."""
    os.chdir(workdir)
    for fname, text in CONFIGS.items():
        with open(fname, "w", encoding="utf-8") as fh:
            fh.write(text)
    digests = {}
    for name, (argv, config) in COMMANDS.items():
        out = f"golden-out/{name}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv + ["--config", config, "--out", out])
        assert rc == 0, f"{name} exited with {rc}"
        for fname in ("report.json", "table.csv"):
            with open(os.path.join(out, fname), "rb") as fh:
                digests[f"{name}/{fname}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def test_reports_match_golden_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    digests = generate(tmp_path)
    assert sorted(digests) == sorted(GOLDEN)
    changed = [key for key in GOLDEN if digests[key] != GOLDEN[key]]
    assert not changed, f"report bytes changed: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        digests = generate(workdir)
        os.chdir(os.path.dirname(os.path.abspath(__file__)))
    sys.stdout.write("GOLDEN = {\n")
    for key in sorted(digests):
        sys.stdout.write(f'    "{key}": "{digests[key]}",\n')
    sys.stdout.write("}\n")
