"""Output stability: stdout digests and exit codes pinned for a fixed command set.

Acceptance 10 compares reruns within one version; these pins compare
versions.  A refactor that claims unchanged behaviour must leave every
digest below as it is.  A deliberate output change updates the digests in
the same change and says why.
"""
from __future__ import annotations

import hashlib

import pytest

from flagchess.cli import main

GOLDEN = {
    "game --n 3 --eps 0 --mode fibration --emit text --validate":
        (1, "c5c5da7bbc62df65371a45726b40ed86f29fab344b025f6e1e93b3f8db98b084"),
    "game --n 3 --eps 0 --mode fibration --emit latex --validate":
        (1, "6bd4f1e53be8b59f62448105035b15c2ea195148063314d484d99d41e892ebb3"),
    "game --n 3 --eps 0 --mode fibration --emit json --validate":
        (1, "55d9eaa65474d4df627e85441f614a332df748b4a6c4ca25103dd28856a19e63"),
    "game --n 3 --eps 0 --mode fibration --emit json-lines --validate":
        (1, "4aa3801d61a3469faee08f2dea07ea34ebf47959191550270a5473fda0566de4"),
    "game --n 3 --eps 0 --mode flip --emit text --validate":
        (0, "c52a24e03572878fe9a590d0209a9916221a8f173460d6b6c08134231368ef29"),
    "game --n 3 --eps 0 --mode flip --emit latex --validate":
        (0, "555857086d9798f39939a1e5d3604e895f8a79fd03cb553e9ab0cba83490f029"),
    "game --n 3 --eps 0 --mode flip --emit json --validate":
        (0, "3d8e5e3aea7afbd787ff6fb78f2a732f915ab1ed1d10483ead1f8993a0542cd9"),
    "game --n 3 --eps 0 --mode flip --emit json-lines --validate":
        (0, "b7612634d9d27d03c4fade5e6240004647386a695e920588b8bde6530d6be20e"),
    "game --n 3 --eps 1 --mode fibration --emit text --validate":
        (0, "d84ca53bcc7b6a51ad5d4dfed073e0853b426dfdbf62c90bbaa8de2353baa4a0"),
    "game --n 3 --eps 1 --mode fibration --emit latex --validate":
        (0, "550c57c87e70b1857c02b2afca25b2ebba01841c7f8bfe36b17832110ed02745"),
    "game --n 3 --eps 1 --mode fibration --emit json --validate":
        (0, "9803a84b95ae70706fdbffe11f020a0c9d291f80bd44501913b51012091b05a4"),
    "game --n 3 --eps 1 --mode fibration --emit json-lines --validate":
        (0, "f98a70482555b8072f570fc93bd280b9bc2ba2bfe879cbb95d4a0a09f23b67dc"),
    "game --n 3 --eps 1 --mode flip --emit text --validate":
        (0, "57746dc44482b1ed9783f850a21da6b214763de5c883ac9fbf01e17063785953"),
    "game --n 3 --eps 1 --mode flip --emit latex --validate":
        (0, "efa9528cd39773df425d4eed6e4f5e28fb2eb5d364c05477b3eb33e46b101500"),
    "game --n 3 --eps 1 --mode flip --emit json --validate":
        (0, "cd3efa683797f4b32085a46446897dd86f800bb9f130452ea9083228b87654c5"),
    "game --n 3 --eps 1 --mode flip --emit json-lines --validate":
        (0, "10ccc618e73105c0a05179afa274479d8d8a4e16329cc737440c6bd6c0d90b8b"),
    "game --n 2 --eps 0 --emit text":
        (1, "a2606d583db287e39e5bcc7ef06505a2469a0247e989cce072e81a73f55dec1b"),
    "game --n 2 --eps 0 --emit latex":
        (1, "7212fb25eba92856582c5651e651724b28cff847108c51a3ad9356a92445997b"),
    "game --n 2 --eps 0 --emit json":
        (1, "18d75f3f84372a063fac7784fe553b4ca8ca97b8cfb8741af76aa017ed1ca206"),
    "game --n 2 --eps 0 --emit json-lines":
        (1, "5f8279df6176eaf2d43312d3e5a1e8bf9b3b82f3f92d4e6688fd247a9bc52bea"),
    "game --n 5 --eps 1 --emit text":
        (0, "88035dd75bded347becb376e3e6a4158e27e98f66bd47a239ece803c0ff78c35"),
    "game --n 5 --eps 1 --emit latex":
        (0, "32a73b02fd8a323d49063d7714f5d648e2c874f41be2ad10e3969ae2fc348655"),
    "game --n 5 --eps 1 --emit json":
        (0, "e53a5110978b5310324202f009298af3df3051bb3d707f031e92ca9f5fcd7b65"),
    "game --n 5 --eps 1 --emit json-lines":
        (0, "d713341e943f68ee70793696a847ddaabed937025e8285da278fcaf039d6230b"),
    "bwb --N 7 --x 2 --y -9":
        (0, "0a3504a2a1aabe24f79845063da72030e42ecb9ce1e85ec2ae97aa0bf3f18870"),
    "cohom --N 5 --m 2 --x -1 --y 1":
        (2, "7e1c305f098606eef03841f69695d80645ca7a644c543735c05e4b7b670de4a6"),
    "ext --N 5 --space M --src 0,2,0 --tgt 1,-1,1":
        (0, "dc9b27e4fdd140a830fd8893f55b9b4f2f32c0c2e14219027cce5fefad272393"),
    "lemma --which A4 --n 3 --eps 0":
        (0, "aeb185cf83fd9ab28ac34c03771971b8f6bc7e6188e032a516720050aad9fff2"),
    "degree --n 4 --eps 1":
        (0, "15ea2d2da4d655ff9a0bffbee368e3edeff6dc45ca98926d0f58d68c15882f25"),
    "degree --n 2 --eps 0":
        (0, "7025ef84d93f8668502fcf4002d84b72502d2e67d51baed017e77ed2036ae802"),
    "degree --n 100 --eps 1":
        (0, "0cf78e4e774d507488159f17563b5ec48cb413cdccca86b48c6f73d18b832067"),
    "conditions --n 2 --eps 1":
        (0, "a857dd7f10d41c7b4495d1a95a22e2fa434fcd69ff84e678fd47bf8aec69ef32"),
    "conditions --n 100 --eps 0":
        (0, "37188d6df55481ae4a9e329e7b3d31c4ee74d69f8d341fc6746b7fdb0d53ad79"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_and_exit_code_are_pinned(capsys, monkeypatch, command):
    monkeypatch.delenv("FLAGCHESS_EMIT", raising=False)
    code = main(command.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[command]
