"""Output stability: stdout digests and exit codes pinned for a fixed command set.

Acceptance 10 compares reruns within one version; these pins compare
versions.  A refactor that claims unchanged behaviour must leave every
digest below as it is.  A deliberate output change updates the digests in
the same change and says why.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import flagchess
from flagchess import (INDETERMINATE, MOVES, Board, Box, BundleDescriptor, MoveRefused, Opaque,
                       SymBlock, apply_record, ext_on_flag, ext_on_M, hom_bundle, play,
                       sym_cohomology, sym_cohomology_via_pushforward)
from flagchess.cli import main

GOLDEN = {
    "game --n 3 --eps 0 --mode fibration --emit text --validate":
        (1, "c5c5da7bbc62df65371a45726b40ed86f29fab344b025f6e1e93b3f8db98b084"),
    "game --n 3 --eps 0 --mode fibration --emit latex --validate":
        (1, "6bd4f1e53be8b59f62448105035b15c2ea195148063314d484d99d41e892ebb3"),
    "game --n 3 --eps 0 --mode fibration --emit json --validate":
        (1, "84f145b2443dc32dcbf14d12e8eca74cfb828b9c889d26f2ebe68f9124c173cb"),
    "game --n 3 --eps 0 --mode fibration --emit json-lines --validate":
        (1, "f17d2b93ee50301768669cc1f22777337a326405dde1c267cc351ca3833e305e"),
    "game --n 3 --eps 0 --mode flip --emit text --validate":
        (0, "c52a24e03572878fe9a590d0209a9916221a8f173460d6b6c08134231368ef29"),
    "game --n 3 --eps 0 --mode flip --emit latex --validate":
        (0, "555857086d9798f39939a1e5d3604e895f8a79fd03cb553e9ab0cba83490f029"),
    "game --n 3 --eps 0 --mode flip --emit json --validate":
        (0, "9f03adad635792777fbcacea0d53b201334231ee24e05e98f5c99af49684cf92"),
    "game --n 3 --eps 0 --mode flip --emit json-lines --validate":
        (0, "b43d58bd8e82d51e3302445bbf72a6f990b3b316e139a19ff63568e56669df6a"),
    "game --n 3 --eps 1 --mode fibration --emit text --validate":
        (0, "d84ca53bcc7b6a51ad5d4dfed073e0853b426dfdbf62c90bbaa8de2353baa4a0"),
    "game --n 3 --eps 1 --mode fibration --emit latex --validate":
        (0, "550c57c87e70b1857c02b2afca25b2ebba01841c7f8bfe36b17832110ed02745"),
    "game --n 3 --eps 1 --mode fibration --emit json --validate":
        (0, "06ce5d3146485c11b56e246925bb1dae072bfbf74928b116f3866c7cbab91145"),
    "game --n 3 --eps 1 --mode fibration --emit json-lines --validate":
        (0, "8bd852802e4a0b038ee1a30140cf1803864acabb3dab4b72e9b8972a3cf40f3c"),
    "game --n 3 --eps 1 --mode flip --emit text --validate":
        (0, "57746dc44482b1ed9783f850a21da6b214763de5c883ac9fbf01e17063785953"),
    "game --n 3 --eps 1 --mode flip --emit latex --validate":
        (0, "efa9528cd39773df425d4eed6e4f5e28fb2eb5d364c05477b3eb33e46b101500"),
    "game --n 3 --eps 1 --mode flip --emit json --validate":
        (0, "06a6668f076c2ba595e8e92f6970c1fe9cfc3e0d94543f2e7914a56c7d659f4c"),
    "game --n 3 --eps 1 --mode flip --emit json-lines --validate":
        (0, "13aae250287ba8067c7bc4125d460f91a4fd87d5f0dba7fd5af7c8e4ac85f85c"),
    "game --n 2 --eps 0 --emit text":
        (1, "a2606d583db287e39e5bcc7ef06505a2469a0247e989cce072e81a73f55dec1b"),
    "game --n 2 --eps 0 --emit latex":
        (1, "7212fb25eba92856582c5651e651724b28cff847108c51a3ad9356a92445997b"),
    "game --n 2 --eps 0 --emit json":
        (1, "19b03204fdbaf16f8b4373269a7244395f82b33d0e65ebfd2a494cb98d127464"),
    "game --n 2 --eps 0 --emit json-lines":
        (1, "de5984ff404c638de6d85a9b6a861ee0d40d8a378e07abe605e9fb00dca0ebfe"),
    "game --n 5 --eps 1 --emit text":
        (0, "88035dd75bded347becb376e3e6a4158e27e98f66bd47a239ece803c0ff78c35"),
    "game --n 5 --eps 1 --emit latex":
        (0, "32a73b02fd8a323d49063d7714f5d648e2c874f41be2ad10e3969ae2fc348655"),
    "game --n 5 --eps 1 --emit json":
        (0, "b0a2040bc43728719c4ebd39218611fe65398117f0426ca1b652fa8ab53058d6"),
    "game --n 5 --eps 1 --emit json-lines":
        (0, "5962d60ce6825fa5fe86c3ad99a980452f2204708ca13d00bc1552ac00181861"),
    "game --n 5 --eps 1 --emit json --no-validate":
        (0, "d9a38a76735238420f476ffa04ea09697bc3e2722178d2e50cadb7ccadb2042f"),
    "game --n 5 --eps 1 --emit json-lines --no-validate":
        (0, "78fcda6c44d8c5d943addd33f776e4faf49e7df0ae9be8c90b69e994980eff5a"),
    "bwb --N 7 --x 2 --y -9":
        (0, "0a3504a2a1aabe24f79845063da72030e42ecb9ce1e85ec2ae97aa0bf3f18870"),
    # 200 reflections down to H^200 at the N bound: pins the printed dominant weight
    "bwb --N 201 --x -210 --y 5":
        (0, "d7f16c7bed7961a396efecb2c23687611701c827739958b52897095b6e74ae51"),
    "cohom --N 5 --m 2 --x -1 --y 1":
        (2, "7e1c305f098606eef03841f69695d80645ca7a644c543735c05e4b7b670de4a6"),
    "ext --N 5 --space M --src 0,2,0 --tgt 1,-1,1":
        (0, "dc9b27e4fdd140a830fd8893f55b9b4f2f32c0c2e14219027cce5fefad272393"),
    # the filtration is indeterminate at these three, so the pushforward answers
    "ext --N 29 --space flag --src 0,0,0 --tgt 2,0,-60":
        (0, "34662114859335fe1da747d1f3ca1736edb535e725c5149b9db0e40b021b0d60"),
    "ext --N 201 --space flag --src 0,0,0 --tgt 2,0,6":
        (0, "422de8863adff80959f8d2df00ed88cca28682d8b8b9a3fe4d779cd641a7a429"),
    "ext --N 29 --space M --src 0,0,0 --tgt 2,0,-60":
        (0, "834cc50ef0b16150be2e02040a4d3d6308ba85401890b89bbf5d36f3e157e1d6"),
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


# ``python -m flagchess.cli`` owns its process, so ``main`` freezes the
# collector there and nowhere in-process: one game per emit format, a lemma
# and a bwb, each in a fresh interpreter, print the pinned stdout and nothing
# on stderr.
@pytest.mark.parametrize("command", [
    *(f"game --n 2 --eps 0 --emit {fmt}" for fmt in ("text", "latex", "json", "json-lines")),
    "lemma --which A4 --n 3 --eps 0",
    "bwb --N 7 --x 2 --y -9",
])
def test_a_fresh_process_prints_the_pinned_stdout(command):
    env = {key: value for key, value in os.environ.items() if key != "FLAGCHESS_EMIT"}
    env["PYTHONPATH"] = str(Path(flagchess.__file__).resolve().parent.parent)
    env["PYTHONIOENCODING"] = "utf-8"
    proc = subprocess.run([sys.executable, "-m", "flagchess.cli", *command.split()],
                          env=env, capture_output=True)
    assert proc.stderr == b""
    assert (proc.returncode, hashlib.sha256(proc.stdout).hexdigest()) == GOLDEN[command]


# One digest over seeded random ``play`` calls: every kind in MOVES, on the
# phase boards of the games at n <= 4 and on random small boards with random
# positions and parameters, and each logged move of those games, as it was or
# nudged, on the board it was played on.  Validation is on for about a third
# of the calls.  Each call adds the repr of its board and record, or its
# refusal text, so the digest pins each outcome, each refusal's wording and
# which refusal comes first.  Nothing below iterates over a set, so the
# digest does not depend on the hash seed.
MOVE_OUTCOMES = (4000, "cb8309fc37eba8c1f0b75440ed363221a081170436923bbc74a0b06029dfd9c5")


def _random_board(rng):
    """A random small board, and the positions of the pairing pair placed on
    it, if one was."""
    n, eps = rng.choice([(2, 0), (2, 1), (3, 0), (3, 1)])
    cells = {}
    for _ in range(rng.randint(0, 9)):
        pos = (rng.randint(-3, 3), rng.randint(0, 4))
        if rng.random() < 0.75:
            cells[pos] = SymBlock(rng.choice([0, 0, 0, 1, 1, 2]))
        else:
            cells[pos] = Opaque(rng.randint(1, 2))
    pair = []
    if rng.random() < 0.5:
        # a grade-0 block, then the grade t-1 block it pairs with, at relative twist (-1-t, 1)
        t, x, y = rng.randint(1, 3), rng.randint(-1, 3), rng.randint(0, 3)
        pair = [Box(x, y, SymBlock(0)), Box(x - 1 - t, y + 1, SymBlock(rng.choice([t - 1, t - 1, t])))]
        for box in pair:
            cells.pop(box.pos, None)
        if rng.random() < 0.3:
            pair.insert(1, Box(x - 1, y + 1, Opaque()))
            cells.pop((x - 1, y + 1), None)
    boxes = [Box(*pos, content) for pos, content in cells.items()]
    rng.shuffle(boxes)
    i = rng.randint(0, len(boxes))
    boxes[i:i] = pair
    return Board(n, eps, tuple(boxes)), (pair[0].pos, pair[-1].pos) if pair else None


def _random_position(rng, board):
    if board.boxes and rng.random() < 0.7:
        return board.boxes[rng.randrange(len(board.boxes))].pos
    return (rng.randint(-4, 4), rng.randint(-1, 5))


def _random_positions(rng, board, spec, pair):
    if spec.positions is None:
        return tuple(_random_position(rng, board) for _ in range(rng.randint(0, 3)))
    positions = [_random_position(rng, board) for _ in range(spec.positions)]
    if spec.positions != 2:
        return tuple(positions)
    roll = rng.random()
    if roll < 0.3 and pair:
        return pair
    if roll < 0.65 and len(board.boxes) > 1:
        # two boxes one or two SOD slots apart, mostly in SOD order
        i = rng.randrange(len(board.boxes) - 1)
        j = min(i + rng.randint(1, 2), len(board.boxes) - 1)
        positions = [board.boxes[i].pos, board.boxes[j].pos][::1 if roll < 0.55 else -1]
    elif roll < 0.85:
        # the second position down-left of the first and a row up, as absorb, rule1 and rule2 want
        x, y = positions[0]
        positions[1] = (x - rng.randint(1, 3), y + 1)
    return tuple(positions)


_PARAM_VALUES = {
    "y": lambda rng: rng.randint(-1, 5),
    "steps": lambda rng: rng.randint(-1, 9),
    "k": lambda rng: rng.randint(-1, 6),
    "dx": lambda rng: rng.randint(-3, 3),
    "dy": lambda rng: rng.randint(-3, 3),
    "note": lambda rng: rng.choice(["a", "normalize-flip-start"]),
    "count": lambda rng: rng.randint(-1, 5),
    "opacify": lambda rng: rng.random() < 0.5,
    "t": lambda rng: rng.randint(-1, 4),
    "r": lambda rng: rng.randint(0, 4),
}
_DIRECTIONS = {"serre_translate": ["left", "right", "up"],
               "serre_global": ["front_to_back", "back_to_front", "left"]}


def _random_params(rng, kind, spec):
    params = {}
    for name in spec.params:
        if name in spec.optional and rng.random() < 0.5:
            continue
        if name == "direction":
            params[name] = rng.choice(_DIRECTIONS[kind])
        else:
            params[name] = _PARAM_VALUES[name](rng)
    if params and rng.random() < 0.03:
        name = rng.choice(list(params))
        params[name] = rng.choice([True, "1", 1.0])  # a value of the wrong type
    return params


def _perturbed(rng, record):
    """A logged move's call, as it was or with one position or parameter moved by one."""
    positions, params = list(record.positions), dict(record.params)
    roll = rng.random()
    if roll < 0.3 and positions:
        i = rng.randrange(len(positions))
        x, y = positions[i]
        positions[i] = rng.choice([(x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)])
    elif roll < 0.45 and params:
        name = rng.choice(list(params))
        if type(params[name]) is int:
            params[name] += rng.choice([-1, 1])
    return tuple(positions), params


def _random_call(rng, phase_boards, steps):
    """One random ``play`` call's board, kind, positions and parameters."""
    roll = rng.random()
    if roll < 0.35:
        board, record = rng.choice(steps)
        return (board, record.kind, *_perturbed(rng, record))
    board, pair = (rng.choice(phase_boards), None) if roll < 0.65 else _random_board(rng)
    kind = rng.choice(list(MOVES))
    spec = MOVES[kind]
    return board, kind, _random_positions(rng, board, spec, pair), _random_params(rng, kind, spec)


def move_outcomes(calls, results, seed=17):
    """Digest of ``calls`` seeded random ``play`` calls on the phase boards
    and the move-by-move boards of the games ``results``, and on random ones."""
    rng = random.Random(seed)
    phase_boards = [board for result in results for _, board, _ in result.phases]
    steps = []  # (board before the move, the move's record) for every move of every game
    for result in results:
        board = result.initial
        for record in result.log:
            steps.append((board, record))
            board = apply_record(board, record)
    h = hashlib.sha256()
    for _ in range(calls):
        board, kind, positions, params = _random_call(rng, phase_boards, steps)
        try:
            outcome = repr(play(board, kind, positions, params, rng.random() < 1 / 3))
        except (MoveRefused, ValueError) as err:
            outcome = f"{type(err).__name__}: {err}"
        h.update(outcome.encode() + b"\n")
    return h.hexdigest()


def test_move_outcomes_are_pinned(game):
    calls, digest = MOVE_OUTCOMES
    results = [game(n, eps, mode) for n in (2, 3, 4) for eps in (0, 1) for mode in ("fibration", "flip")]
    assert move_outcomes(calls, results) == digest


def test_every_record_lists_its_params_in_the_table_order(game):
    # version 7 writes a move's params as their values in MOVES[kind].params
    # order, so each move_* must record them so, whatever order they are given in
    rng = random.Random(5)
    results = [game(n, eps, mode) for n in (2, 3, 4) for eps in (0, 1) for mode in ("fibration", "flip")]
    phase_boards = [board for result in results for _, board, _ in result.phases]
    steps = [(board, record) for result in results
             for board, record in zip(itertools.accumulate(result.log, apply_record,
                                                           initial=result.initial), result.log)]
    recorded = set()
    for _ in range(2000):
        board, kind, positions, params = _random_call(rng, phase_boards, steps)
        try:
            _, record = play(board, kind, positions, dict(reversed(params.items())), False)
        except (MoveRefused, ValueError):
            continue
        names = [name for name, _ in record.params]
        spec = MOVES[kind]
        assert names == [name for name in spec.params if name in names]
        assert set(spec.params) - set(spec.optional) <= set(names)
        recorded.add((kind, len(names)))
    assert {kind for kind, _ in recorded} == set(MOVES)
    assert {("global_twist", 2), ("global_twist", 3)} <= recorded


# One digest over the exact answers of ext_on_flag and ext_on_M: sources and
# targets of grade m <= 4, sources at two twists, targets over a 6 x 6 window
# of twists, on five flags.  The grid holds summands the filtration decides
# and 6,995 it leaves Indeterminate, which the pushforward then settles, and
# 2,042 answers on M that are themselves indeterminate.
EXT_ANSWERS = (9000, "8fb3ea3adce1ee34070c1e9ed77eafd77656e1d8778edf5efe88a24d85a420d2")


def ext_grid():
    for N, sm, (sx, sy), tm, tx, ty in itertools.product(
            (4, 5, 7, 13, 29), range(5), ((0, 0), (2, -1)), range(5), range(-3, 3), range(-3, 3)):
        yield BundleDescriptor(sm, sx, sy, N), BundleDescriptor(tm, tx, ty, N)


def test_ext_answers_are_pinned():
    h, calls = hashlib.sha256(), 0
    for source, target in ext_grid():
        answers = ext_on_flag(source, target), ext_on_M(source, target)
        h.update(f"{tuple(source)} {tuple(target)} {answers}\n".encode())
        calls += 1
    assert (calls, h.hexdigest()) == EXT_ANSWERS


def summed_summands(source, target):
    """Ext_F(source, target) by the route the oracle states: each summand of
    ``hom_bundle`` from the filtration, or from the pushforward where the
    filtration is indeterminate, summed by degree."""
    total = {}
    for summand in hom_bundle(source, target):
        answer = sym_cohomology(summand)
        if answer is INDETERMINATE:
            answer = sym_cohomology_via_pushforward(summand)
        for degree, dim in answer:
            total[degree] = total.get(degree, 0) + dim
    return tuple(sorted(total.items()))


def test_ext_on_flag_is_the_sum_over_hom_bundle_summands():
    # the memoized evaluator's body (``__wrapped__`` runs it on every call,
    # cached or not) and its cached answer both equal the reference route
    kernel = ext_on_flag.__wrapped__
    for source, target in ext_grid():
        wanted = summed_summands(source, target)
        assert kernel(source, target) == ext_on_flag(source, target) == wanted, (source, target)


def is_graded(answer) -> bool:
    """A tuple of (int, int) pairs with degrees strictly increasing and every dim >= 1."""
    return (type(answer) is tuple
            and all(type(pair) is tuple and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int
                    and pair[1] >= 1 for pair in answer)
            and all(a < b for (a, _), (b, _) in zip(answer, answer[1:])))


def test_ext_answers_come_sorted():
    # Every answer in the one form, as returned: a graded tuple, or the
    # indeterminate verdict on M and from the filtration; and ext_on_flag
    # hands out its cached answer itself, which no caller can change.
    summands = set()
    for source, target in ext_grid():
        flag = ext_on_flag(source, target)
        assert is_graded(flag) and ext_on_flag(source, target) is flag, (source, target, flag)
        on_M = ext_on_M(source, target)
        assert on_M == INDETERMINATE or is_graded(on_M), (source, target, on_M)
        summands.update(hom_bundle(source, target))
    for d in summands:
        filtered = sym_cohomology(d)
        assert filtered == INDETERMINATE or is_graded(filtered), (d, filtered)
        assert is_graded(sym_cohomology_via_pushforward(d)), d
