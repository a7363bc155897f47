"""The replay contract: equal seeds give byte-identical outputs across versions.

Each simulate case has two digests. FILES hashes the output files of one
small run; these bytes date back to the per-agent-object engine that
preceded the flat-list one. EVENTS hashes every stepped tick's TickEvents
counts; it was re-recorded when settled ticks stopped drawing and delivering
(SETTLED), which changed those counts but no output byte. A change to the
engine, the operators, the observer or the writers that alters a single
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
from gossipvote.engine import init, run_states, step
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

FILES = {
    "baseline_n200": "9b433196a12b9c2b356e7df515efdc0211b9ef3a3d92cb6e08d8f4cf5dd673f9",
    "consensus_f0_noself": "ca653ff92e316e357c52185c8bd17f771524be938d2c38ce0929100dd4f4aef2",
    "consensus_friends_self": "112a726a8b331c1e7eee11159d632a5c5bc99deb81471e44732ce5947f06b2ad",
    "dominant_f0_self": "710653fb3ed92d17484688857d52ef715345e2e7c62e99130ddb21d1959571a5",
    "dominant_friends_noself": "5e5a1566ecb20294c74fd2e7283f8fb58b8787e2a2b0923bd3bacacab5d3ed2d",
    "k0": "3b7549dbc99db23e498bde560645958664fb3ffaefa3a75ab2b28eb862ec6783",
    "mixed_symmetric_noself": "ddb4e70e6669aa310e2e5291d815e1ec8d477caba24e8bf29ac6cc4a2f946272",
    "mixed_symmetric_self": "895d129d891349ecc65721c9011932d77e5ee8f555e84e1d3797871fb6f2ccf1",
    "solo": "d96a6ef2fcbe93d99bddf1d00c3ac6c1789dd408003f33e1c48281df1605cf6c",
}

# k0 and solo start unanimous and take no tick: the digest of no events
EVENTS = {
    "baseline_n200": "93a92e4269285b8ae16a8e20f052788d658095b73d89267fb669e2e692a2ccaa",
    "consensus_f0_noself": "c221412c2d9da9c5f193c9acc6bc3a24f7a1558926f688f06c72c7d24efcdad2",
    "consensus_friends_self": "ec773591dab0e116aedb360f2177120aa706d0ea87fe2cbb317f525f439e8760",
    "dominant_f0_self": "09a665f8452b3fda0018a0d6952ecf85aa61c77354621ac6483711004dbc3718",
    "dominant_friends_noself": "fcf42e8697fa1ed076d914e970f11cff4e008c7bed2fd7c74c89b671f8a4d505",
    "k0": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "mixed_symmetric_noself": "15e661a630bd1113e0731b1b61adc7bec2364fc3e63d6ab521017765f4e5dc8d",
    "mixed_symmetric_self": "eb44f7f1b6a0a2f30d9aba94507384108dc3417f450305520fa895e359cb959b",
    "solo": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}

GOLDEN = {
    "sweep": "03e1f0bb1c84c0c69054f1acc56bb110eceb42c612230976944093f39a31a0c9",
    "forecast": "c8076c0013bb2805b97a19facc6fe56f7c3bcd1142d0c7ebf23aac268d74a3f5",
}


def _digest_files(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def case_digest(name: str, out_dir: Path) -> str:
    """SHA-256 of one case's output files (two replications)."""
    config = SimConfig(**{**BASE, **CASES[name]})
    simulate_scenario(Scenario(sim=config, replications=2, burn_in=5), str(out_dir))
    return _digest_files(out_dir)


def events_digest(name: str) -> str:
    """SHA-256 of the counts of every tick each of the case's two replications steps."""
    fields = {**BASE, **CASES[name]}
    digest = hashlib.sha256()
    for seed in (fields["seed"], fields["seed"] + 1):
        traj = run_states([init(SimConfig(**{**fields, "seed": seed}))])[0]
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
    assert case_digest(name, tmp_path) == FILES[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stepped_events_match_recorded_digest(name):
    assert events_digest(name) == EVENTS[name]


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
