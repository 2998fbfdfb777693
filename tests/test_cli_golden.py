"""Golden CLI output: sha256 of the stdout of the README's example commands,
of high-order reversions and sequence tables, and of the pretty, csv and
latex renderers.

The CLI promises byte-identical output for identical invocations, and kernel
rewrites must keep that promise across versions.  Each digest below pins one
command's stdout, in ``--format json`` unless the entry gives its own
``--format``.  The commands run in order against one
scratch workspace (``define`` comes before the ``eval`` and ``list`` that read
it), given as the relative path ``umbrae.json`` so that the ``define`` output
does not depend on the temporary directory.

After an intended output change, print fresh digests by running this file
from the repository root: ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from umbralcalc.cli import main

CONNECT = [
    "connect",
    "--from-alpha", "2 . bell", "--from-gamma", "chi . (2 . bell)",
    "--to-alpha", "1 . bell", "--to-gamma", "chi . (1 . bell)",
    "--order", "4",
]

# (argv without --workspace, sha256 of the stdout); --format defaults to json
GOLDEN = [
    (["eval", "x . adj(u)", "--order", "4"],
     "4b91fb98a0345be4c5a3b5eed30d90218b82ee48b92efe7a6ac6763612592f19"),
    (["eval", "bell ^. 2", "--order", "3"],
     "51af160b26ae23c3834ccf33cc4953cbf35d47e473a4d43a2d26fae2dde011dc"),
    (["sheffer", "--alpha", "1 . bell", "--gamma", "chi . (1 . bell)", "--order", "4"],
     "92d691c3b9f90604e77d24bcb3346befd2e8e473fb28c5319d1c74a8cc060141"),
    (["associated", "--gamma", "u", "--order", "3"],
     "17d92430557f2668b20f953255384edfd7b2ff538d4f332a1911c7e547189347"),
    (["appell", "--alpha", "inv(bern)", "--order", "2"],
     "ea6ed78615b01923f779cb317ce0db5ba97525d969a900d2c84e6fa9e66f064b"),
    (CONNECT,
     "915ad221e0c7190aeb58c81fc8a9e720dc9811805e360243041b390bf5f68527"),
    (["stirling", "second", "--n", "6"],
     "faf35bb4bbb0b89574427a678312bf9e7c4b0dabe04e267306d4e330e0feb864"),
    (["abel", "--gamma", "u", "--order", "5"],
     "66be4d2936d9f1d7d6b621c836387c59a24bcbc3e2e60d068367e690ecd1d403"),
    (["example", "bernoulli-diff", "--order", "5"],
     "c8e12305904a7395e1a3a7cabdb909b41fcc87cd4866f0024a7f04f65df0e958"),
    (["define", "myu", "--moments", "1,1,2,5"],
     "f6e861afffe207272ca72ba34300be10c2be8de7741325786d03199a721d60fd"),
    (["eval", "myu", "--order", "3"],
     "f3bf963a62592cc9e42c4d73f89ad7a3540916018ed3c339c5d5a006c4083717"),
    (["list"],
     "513092fa70933faf47230b8065e9653a1b53f6b03aa8bceee150455e93a6c79d"),
    # High orders, where a reversion kernel rewrite would first show.
    (["eval", "cinv(bell)", "--order", "32"],
     "a4770d2039646965624c3fa305b7f0f377c82772f0eb6ee9e6c6acfefc85da83"),
    (["associated", "--gamma", "bell", "--order", "24"],
     "d8a7434bf819dc804c215f23c6882696cfd9279bd7876d5575c4c63d2ad2a65e"),
    # Sequence tables, where a table built from one umbra would first show.
    (["abel", "--gamma", "bell", "--order", "16"],
     "0f63e2efb97b4150a463622dcd054a9c3e6c2fa573639121e1ea19baf73ee8e8"),
    (["appell", "--alpha", "bell", "--order", "12"],
     "970a76049b69e0d58aad6ae319cefe52fcf8288b765390e6fbd518bcb238d778"),
    (["stirling", "first", "--n", "24"],
     "8a2cd193810d648473b2a7a4ccd1acd0c1449ba81df1e14012c99610a3ac30a7"),
    (["example", "backward-diff", "--order", "12"],
     "2e8aa8678178c21adfd000da6ac5ab0b5e656ce052a190b7989c4470407e2ff0"),
    # The worked difference equations, where a shared binomial row would first show.
    (["example", "bernoulli-diff", "--order", "24"],
     "78c561837414e2cc60453c011dd1f5992d79ecce4cda5f84e195cd3e4e9ef086"),
    (["example", "backward-diff", "--order", "24"],
     "f3d93d121b9ac652ae987e8e5461f466d8696cfee9b422957502fba16eaddd66"),
    (["example", "fibonacci", "--order", "24"],
     "6be59651f3d13b78ada1de4ea8002d39f6daa82050baec630dcc7c18092a05f7"),
    # The csv and latex table renderers, one entry per result key.
    (["stirling", "second", "--n", "6", "--format", "csv"],
     "9623f9cac959c580ff0adf1caccdf71389f89776c7b909a7e92cb41dcfc8f114"),
    (["stirling", "second", "--n", "6", "--format", "latex"],
     "ac9a7e03f02ce013ef1b97365ae19b27c076558e3bb6ef9e2a050e8af27eec48"),
    (["abel", "--gamma", "u", "--order", "5", "--format", "csv"],
     "9fb9d3bf5b1bb11a154a5f28f34c7ed8bad8893361b0b75b75b86ab1504de244"),
    (["abel", "--gamma", "u", "--order", "5", "--format", "latex"],
     "69c25b87663bf71dfbf1e615ee769ee9d6328752d5aac3f8714d274674f16ac4"),
    ([*CONNECT, "--format", "csv"],
     "94b8d2e8280768993584a5dd278808f0fe73b6d4d6cec37babf3fc40840e51cd"),
    ([*CONNECT, "--format", "latex"],
     "8cd5013e0d7ed1966aaaa494d1062c75d183a184aff91619d5d5c4e6840d6f01"),
    # Kernel paths not pinned above: exp of cumulants, the coefficient-form
    # define input, dot with x and with an umbra, reciprocal, rational power,
    # and a Sheffer table and connection constants past the README orders.
    (["define", "kap", "--cumulants", "1,1/2,-1/3,2,0,5"],
     "fb474620ef340f4a16d6701fc520649bd0b10be109b1b7a481f391c214cebd03"),
    (["define", "ser", "--egf", "1,1/2,1/3,1/4,1/5"],
     "4780e5fec3e31697c63836c58a3e397671c896a8aff241731798374c0f551277"),
    (["eval", "x . bell", "--order", "24"],
     "58d378f13584da40296e713c0463093a5c48e084e11b87c1b67490d79496b332"),
    (["eval", "chi . bern", "--order", "28"],
     "8aa79718040bb9bd09c58ee9aaf9c3b144f8a16fec4d9ee4d8a732d7c870c647"),
    (["eval", "inv(bell)", "--order", "28"],
     "7a1a8bd398723e12d464f4df0c525123238b3e5341b435c3bdfffe1718f0463a"),
    (["eval", "(3/2) . ubar", "--order", "28"],
     "c439424570d1264ea9a0626278754d7a355729591d4eaa4f5e820d19fe301eec"),
    (["sheffer", "--alpha", "bern", "--gamma", "uinv", "--order", "16"],
     "33df8e0b3e96c812df2ffff35de0d61105a4e7ba9d7af8b94fbf4b8140dc624f"),
    ([*CONNECT[:-1], "10"],
     "bc216ce73223719bd662edce9e9e5189ec0837cb65c2cc545e0cec050a866464"),
    # Linear forms on the kernel route, powers of them, and an atom-free power.
    (["eval", "u+chi+bell+bern", "--order", "24"],
     "01b7001f00300631a9f6f4776c12b7ffc5ff1314b439b8622eb1ac0190d8931a"),
    (["eval", "u+chi+bell+bern+x", "--order", "16"],
     "0b8c9ffde0dcfe63f482c6100cd020de306ca7d8cc501d45cd62fdb57a83329d"),
    (["eval", "(u+chi+bell+bern)^4", "--order", "4"],
     "32f542e91b94c84227f8fdf21f1f09754b4c1080f02ba3c135a86586fa7090c7"),
    (["eval", "(bell + x . u)^2", "--order", "12"],
     "f44ab97040f400fc0e408b172d2e6029f7eb901d94d05dc9c9860a42cfac1829"),
    (["eval", "(x + 1)^8", "--order", "16"],
     "88f7d3d73ffba691f28a26005f8c465e627c8cf1f4965c52676544910c4ff00f"),
    # The pretty, csv and latex renderers on Poly moments, checks and notes,
    # and the define and list renderers.
    (["eval", "y . bell + x . bern", "--order", "4", "--format", "pretty"],
     "837a5ee768d1542a0a84285e7cd789fe6f1458e1924ba31af588e34375803aba"),
    (["eval", "y . bell + x . bern", "--order", "4", "--format", "csv"],
     "b22a3c87f5e296482962fbd2ac999dd572a1ca689b4d138a9a44e184ca51d6d5"),
    (["eval", "y . bell + x . bern", "--order", "4", "--format", "latex"],
     "4b2fe0826d914fbdc661c0aa1af9cd1cf085f0e32eba085dba61b4bac2748821"),
    (["sheffer", "--alpha", "bern", "--gamma", "uinv", "--order", "6", "--format", "pretty"],
     "967898a286543e1658a33071b5d7e21a5d4e8a38969c6b2978cad733a9a11edf"),
    (["example", "backward-diff", "--order", "6", "--format", "pretty"],
     "70e1e35256589ea6962a9f07b4a9db8d3a1eb0baec118fe233616908f4372ade"),
    (["define", "pre", "--moments", "1,1/2,3", "--format", "pretty"],
     "5a6f4cce4fc62cb7ce010f36dcab12882d45f166d4d409e09fee17890f5076b3"),
    (["define", "com", "--egf", "1,2,1/3", "--format", "csv"],
     "5dfeac62ef813c8d37c1f2386e288c68c4fac8d283cdcbee86134402c64d540e"),
    (["list", "--format", "pretty"],
     "9682c8e3bff4ed1388d900abc106d87dbafe082b1587ca65a62de5c3cab898c9"),
    (["list", "--format", "csv"],
     "8d4cd86fff38e891b14257be99e569152a94526dcf3e231204a34267debe9aaf"),
]


def _digests() -> list[str]:
    """Run every golden command in order in the current directory."""
    out = []
    for argv, _ in GOLDEN:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            fmt = [] if "--format" in argv else ["--format", "json"]
            code = main([*argv, *fmt, "--workspace", "umbrae.json"])
        assert code == 0, argv
        out.append(hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())
    return out


def test_readme_commands_json_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("UMBRA_WORKSPACE", raising=False)
    monkeypatch.chdir(tmp_path)
    for (argv, expected), got in zip(GOLDEN, _digests()):
        assert got == expected, argv


if __name__ == "__main__":
    os.environ.pop("UMBRA_WORKSPACE", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for (argv, _), digest in zip(GOLDEN, _digests()):
            print(digest, argv)
