"""The replay contract: equal seeds give byte-identical outputs across versions.

Every digest below is the SHA-256 of the outputs of one small run, recorded
with the per-agent-object engine that preceded the flat-list one. A change to
the engine, the operators, the observer or the writers that alters a single
random draw or output byte fails here; such a change must bump the RNG
contract and re-record the digests on purpose. The last test checks that the
engine's target picks draw exactly what random.Random.randrange draws.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

import pytest

from gossipvote.cli import main
from gossipvote.engine import init, run, step
from gossipvote.model import SimConfig
from gossipvote.scenario import Scenario, simulate_scenario, sweep_scenario

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

BASE = dict(n=40, k=2, v=3, f=0, friend_prob=0.0, activation_prob=0.6, max_ticks=60, seed=17)

# name -> SimConfig overrides; each case runs two replications with every output
CASES = {
    "dominant_f0_self": dict(),
    "dominant_friends_noself": dict(k=1, v=4, f=3, friend_prob=1.0, include_self=False),
    "consensus_friends_self": dict(k=4, f=5, friend_prob=0.4, strategy="consensus"),
    "consensus_f0_noself": dict(k=5, v=2, strategy="consensus", include_self=False),
    "mixed_symmetric_self": dict(
        k=3, v=2, f=4, friend_prob=0.5, symmetric_friends=True,
        strategy="mixed", mixed_consensus_prob=0.5,
    ),
    "mixed_symmetric_noself": dict(
        n=41, k=6, f=2, friend_prob=0.3, symmetric_friends=True,
        strategy="mixed", mixed_consensus_prob=0.3, include_self=False,
    ),
    "solo": dict(n=1, k=3, activation_prob=1.0),
    "k0": dict(k=0, f=2, friend_prob=0.5),
    "baseline_n200": dict(n=200, k=1, v=3, f=20, friend_prob=0.4, activation_prob=0.5, max_ticks=120),
}

GOLDEN = {
    "dominant_f0_self": "d0bc17f2cd7afcbc22273717e1d1660dd08921bd81eaaca0018b6608220e9cbb",
    "dominant_friends_noself": "1fb1cd15b58e5f2503d2a6dddc4c7a1dfcb1d1ba1929218ac65fcce5117082e2",
    "consensus_friends_self": "ff8a6612ebd7d7bf88475a8f51d9385a782e270ca9f2a160190b2057b19a10aa",
    "consensus_f0_noself": "2cceb9102923951969c121607199a8a3529262056269a75b92df8dbe1efea275",
    "mixed_symmetric_self": "657018bd5427988ef791e88150a91c44bba165ea945cf3771542219f581f9e0a",
    "mixed_symmetric_noself": "5d5503aa8f3e3d9ffeea7941293bc9a22fbae3b4f6da080487458fb3e060a8e3",
    "solo": "88de08db4881123b5880dd0736cba23ddd77931c63189af9c58eacb1c0539f1e",
    "k0": "9d848ab8b00c7514181e6c5c08b2d1ae53ae2716fdd8310a74d87cf92b4eb303",
    "baseline_n200": "3d7903376546656832b2230fa2d8f3ea83524d600eaeb5d7f115f54d5bc18248",
    "sweep": "03e1f0bb1c84c0c69054f1acc56bb110eceb42c612230976944093f39a31a0c9",
    "forecast": "c8076c0013bb2805b97a19facc6fe56f7c3bcd1142d0c7ebf23aac268d74a3f5",
}


def _digest_files(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def case_digest(name: str, out_dir: Path) -> str:
    """SHA-256 of one case's output files plus every replication's tick events."""
    config = SimConfig(**{**BASE, **CASES[name]})
    simulate_scenario(Scenario(sim=config, replications=2, burn_in=5), str(out_dir))
    digest = hashlib.sha256(_digest_files(out_dir).encode())
    for seed in (config.seed, config.seed + 1):
        traj = run(SimConfig(**{**BASE, **CASES[name], "seed": seed}))
        for e in traj.events:
            digest.update(f"{e.sent},{e.delivered},{e.integrations},{e.changed};".encode())
    return digest.hexdigest()


def sweep_digest(out_dir: Path) -> str:
    scenario = Scenario(
        sim=SimConfig(**{**BASE, "f": 3, "friend_prob": 0.4}), replications=2, burn_in=10
    )
    sweep_scenario(scenario, {"v": [2, 4], "f": [0, 3]}, str(out_dir))
    return _digest_files(out_dir)


def forecast_digest(out_dir: Path) -> str:
    code = main([
        "forecast", str(DATA_DIR / "synthetic_predictions.csv"),
        str(DATA_DIR / "synthetic_actuals.csv"), "--seed", "3", "--out", str(out_dir),
    ])
    assert code == 0
    return _digest_files(out_dir)


@pytest.mark.parametrize("name", sorted(CASES))
def test_simulate_outputs_match_recorded_digest(name, tmp_path):
    assert case_digest(name, tmp_path) == GOLDEN[name]


def test_sweep_csv_matches_recorded_digest(tmp_path):
    assert sweep_digest(tmp_path) == GOLDEN["sweep"]


def test_forecast_report_matches_recorded_digest(tmp_path):
    assert forecast_digest(tmp_path) == GOLDEN["forecast"]


def _reference_tick(state, friend_branch: bool) -> tuple[list[list[int]], tuple]:
    """The inboxes and RNG state one tick of `state` must leave, drawn with randrange.

    Every agent is active and holds its id as its value; with friend_branch
    each agent's friends are all the others, so both branches map a pick to
    the same target and only the draws differ.
    """
    rng = random.Random()
    rng.setstate(state.rng.getstate())
    n = state.config.n
    inboxes: list[list[int]] = [[] for _ in range(n)]
    for sender in range(n):
        rng.random()  # activation coin
        if friend_branch:
            rng.random()  # friend coin
        pick = rng.randrange(n - 1)
        inboxes[pick + (pick >= sender)].append(sender)
    return inboxes, rng.getstate()


# m = n - 1 covers every bit length up to 9 bits and the worst rejection rate,
# just above a power of two; friend lists are m long, so that branch stops early
UNIFORM_SIZES = list(range(1, 301)) + [1023, 1025, 65_537]
FRIEND_SIZES = list(range(1, 34)) + [63, 64, 65, 127, 128, 129]


@pytest.mark.parametrize(
    "friend_branch, sizes", [(False, UNIFORM_SIZES), (True, FRIEND_SIZES)], ids=["uniform", "friend"]
)
def test_engine_draws_its_picks_as_randrange_does(friend_branch, sizes):
    for m in sizes:
        n = m + 1
        config = SimConfig(
            n=n, k=m, v=10**9, f=m if friend_branch else 0,
            friend_prob=1.0 if friend_branch else 0.0, activation_prob=1.0, seed=m,
        )
        state = init(config, values=list(range(n)))
        inboxes, rng_state = _reference_tick(state, friend_branch)
        step(state)
        assert state.inboxes == inboxes, f"m={m}"
        assert state.rng.getstate() == rng_state, f"m={m}"
