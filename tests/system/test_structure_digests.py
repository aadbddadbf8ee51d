"""Digests of the global tasks each task structure builds.

For every structure (serial chain, random-count chain, parallel fan,
serial-parallel tree, and their width-1 and one-stage shapes) and every
placement policy, the first 200 tasks a simulation's global-task factory
builds are reduced to ``(notation, leaf node indices, leaf pex,
deadline)`` and hashed.  Each case runs with no live set and with live
sets that hold down nodes: one that leaves enough nodes up for every
fan, and one that leaves too few for a fan of four.

The pins fix every draw the factories make (count, execution, estimate,
placement, slack) and the deadline arithmetic, so a change to how global
tasks are built must reproduce them exactly.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import Simulation
from repro.system.config import (
    baseline_config,
    parallel_baseline_config,
    serial_parallel_config,
)
from repro.system.faults import LiveSet

STRUCTURES = {
    "chain": lambda **kw: baseline_config(**kw),
    "chain-range": lambda **kw: baseline_config(
        subtask_count_range=(2, 6), **kw
    ),
    "chain-1": lambda **kw: baseline_config(subtask_count=1, **kw),
    "chain-noisy": lambda **kw: baseline_config(pex_error=0.5, **kw),
    "fan": lambda **kw: parallel_baseline_config(**kw),
    "fan-1": lambda **kw: parallel_baseline_config(subtask_count=1, **kw),
    "fan-noisy": lambda **kw: parallel_baseline_config(pex_error=0.5, **kw),
    "tree": lambda **kw: serial_parallel_config(**kw),
    "tree-width-1": lambda **kw: serial_parallel_config(
        stages=3, stage_width=1, **kw
    ),
    "tree-one-stage": lambda **kw: serial_parallel_config(
        stages=1, stage_width=3, **kw
    ),
}

PLACEMENTS = ("uniform", "round-robin", "zipf", "least-outstanding")

#: Nodes held down in each live-set variant (``None``: no live set).
LIVE_SETS = {"none": None, "down-2": (1, 4), "up-2": (1, 2, 3, 4)}


def _digest(structure: str, placement: str, live: str) -> str:
    sim = Simulation(
        STRUCTURES[structure](placement=placement, placement_zipf_s=1.2, seed=5)
    )
    down = LIVE_SETS[live]
    if down is not None:
        live_set = LiveSet(sim.config.node_count)
        for index in down:
            live_set.mark_down(index)
        sim.placement_policy.attach_live_set(live_set)
    build = sim.global_source.factory.build
    rows = []
    for i in range(200):
        tree, deadline = build(2.5 * i)
        leaves = list(tree.leaves())
        rows.append((
            tree.notation(),
            tuple(leaf.node_index for leaf in leaves),
            tuple(repr(leaf.pex) for leaf in leaves),
            repr(deadline),
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


PINS = {
    "chain/uniform/none": "d880fcbbba4f5234",
    "chain/uniform/down-2": "488b862673d0bced",
    "chain/uniform/up-2": "4a24832e787138a4",
    "chain/round-robin/none": "f1477d46a02f3849",
    "chain/round-robin/down-2": "582343673f021364",
    "chain/round-robin/up-2": "0f35790730ba0475",
    "chain/zipf/none": "6fcad5e5196b3d14",
    "chain/zipf/down-2": "4b6ad333519c1a39",
    "chain/zipf/up-2": "d2784610019d8ebb",
    "chain/least-outstanding/none": "f57a3bf047045dfc",
    "chain/least-outstanding/down-2": "03ea1649b36e756d",
    "chain/least-outstanding/up-2": "941925efa88b14d5",
    "chain-range/uniform/none": "1d910993bcf24d03",
    "chain-range/uniform/down-2": "3fe5b2b9654bfd26",
    "chain-range/uniform/up-2": "23b1e216facb7c45",
    "chain-range/round-robin/none": "ff40c6fe17b73a5c",
    "chain-range/round-robin/down-2": "4398aab734b4c444",
    "chain-range/round-robin/up-2": "f7592e7b3d8f6af7",
    "chain-range/zipf/none": "b13774c5b0a89eca",
    "chain-range/zipf/down-2": "3969e6d4fb5c6a41",
    "chain-range/zipf/up-2": "f577956cfae67017",
    "chain-range/least-outstanding/none": "511175c156e70e87",
    "chain-range/least-outstanding/down-2": "496d8f29efb3aa0d",
    "chain-range/least-outstanding/up-2": "4b137a898df5b0d0",
    "chain-1/uniform/none": "bb7fb36a8950fbca",
    "chain-1/uniform/down-2": "f9ee7d04ecc2ad5e",
    "chain-1/uniform/up-2": "e7b8f4ce8194a4e1",
    "chain-1/round-robin/none": "b113a30c2bfb41b5",
    "chain-1/round-robin/down-2": "ded1ecaf4cd1a6ae",
    "chain-1/round-robin/up-2": "7edd47cacd686ace",
    "chain-1/zipf/none": "9194826335f606b6",
    "chain-1/zipf/down-2": "3f22aeb140542da2",
    "chain-1/zipf/up-2": "9d332de928f27dd6",
    "chain-1/least-outstanding/none": "4286a459069cfefe",
    "chain-1/least-outstanding/down-2": "168cb52b70713be3",
    "chain-1/least-outstanding/up-2": "7e740cb273864dc1",
    "chain-noisy/uniform/none": "3600770cf037427e",
    "chain-noisy/uniform/down-2": "bd9c339dd1af278e",
    "chain-noisy/uniform/up-2": "b2ac0d33a05dc463",
    "chain-noisy/round-robin/none": "3ec1a3bfff69d19b",
    "chain-noisy/round-robin/down-2": "49afcc57f766217a",
    "chain-noisy/round-robin/up-2": "d7474063ee3d6585",
    "chain-noisy/zipf/none": "4b09037bc02f43ea",
    "chain-noisy/zipf/down-2": "a1bda2ece529b7df",
    "chain-noisy/zipf/up-2": "4d9925f12aaf4bb8",
    "chain-noisy/least-outstanding/none": "46629f87cce98446",
    "chain-noisy/least-outstanding/down-2": "90606f4038e245b0",
    "chain-noisy/least-outstanding/up-2": "258f295ed0b9af97",
    "fan/uniform/none": "913248550d3144bc",
    "fan/uniform/down-2": "7546a505d3b5cdd1",
    "fan/uniform/up-2": "913248550d3144bc",
    "fan/round-robin/none": "5bdb38e03fa52d69",
    "fan/round-robin/down-2": "230bdda35c758ec6",
    "fan/round-robin/up-2": "5bdb38e03fa52d69",
    "fan/zipf/none": "2f98dc786acd356f",
    "fan/zipf/down-2": "51ecd07de298d949",
    "fan/zipf/up-2": "2f98dc786acd356f",
    "fan/least-outstanding/none": "0ad5e34b56789411",
    "fan/least-outstanding/down-2": "86a05d377c48c7bd",
    "fan/least-outstanding/up-2": "9cfb0242b828bef8",
    "fan-1/uniform/none": "2363292121449b18",
    "fan-1/uniform/down-2": "780920d54978935f",
    "fan-1/uniform/up-2": "8ef6b5baec398414",
    "fan-1/round-robin/none": "e32856864f2e6873",
    "fan-1/round-robin/down-2": "40ac8f9cd6cbc6a4",
    "fan-1/round-robin/up-2": "8bc24a1d0bdc6372",
    "fan-1/zipf/none": "32200e3852d451e1",
    "fan-1/zipf/down-2": "a82c2408c62f036e",
    "fan-1/zipf/up-2": "fce380d363239c71",
    "fan-1/least-outstanding/none": "fa0ed2702ce28e26",
    "fan-1/least-outstanding/down-2": "0b6cde5255312544",
    "fan-1/least-outstanding/up-2": "e13aa342c3b6c51c",
    "fan-noisy/uniform/none": "2285108a6fded983",
    "fan-noisy/uniform/down-2": "bf2a5a927d54e1b5",
    "fan-noisy/uniform/up-2": "2285108a6fded983",
    "fan-noisy/round-robin/none": "4417660c0ddcd0c8",
    "fan-noisy/round-robin/down-2": "ff60faa4f1248ab9",
    "fan-noisy/round-robin/up-2": "4417660c0ddcd0c8",
    "fan-noisy/zipf/none": "c181a2fc72e4eed5",
    "fan-noisy/zipf/down-2": "55c63fedf8abdc1c",
    "fan-noisy/zipf/up-2": "c181a2fc72e4eed5",
    "fan-noisy/least-outstanding/none": "4cb52702208bbfa2",
    "fan-noisy/least-outstanding/down-2": "6592f1e5184afd6a",
    "fan-noisy/least-outstanding/up-2": "1fabaa3015075d4e",
    "tree/uniform/none": "89d173d3265c0f98",
    "tree/uniform/down-2": "6ef540666150c673",
    "tree/uniform/up-2": "0c28c77b4014291d",
    "tree/round-robin/none": "482394b28a8ce364",
    "tree/round-robin/down-2": "9fd45bc3b1a6ac2d",
    "tree/round-robin/up-2": "9401066e1884e0ef",
    "tree/zipf/none": "7f48bab6d05d4719",
    "tree/zipf/down-2": "783338e6b019adb8",
    "tree/zipf/up-2": "ec766af212639574",
    "tree/least-outstanding/none": "b9c581e073c8b3a1",
    "tree/least-outstanding/down-2": "600d7afc7093c386",
    "tree/least-outstanding/up-2": "8098866eb4ca0017",
    "tree-width-1/uniform/none": "24b19f323c632135",
    "tree-width-1/uniform/down-2": "c537d945cc6ce528",
    "tree-width-1/uniform/up-2": "3bd952c8914356a2",
    "tree-width-1/round-robin/none": "f117d9eb559fa50a",
    "tree-width-1/round-robin/down-2": "f906ee06045d8373",
    "tree-width-1/round-robin/up-2": "e63155e644e347a8",
    "tree-width-1/zipf/none": "b0ff2c249b57d7fd",
    "tree-width-1/zipf/down-2": "28546a9e50cc8594",
    "tree-width-1/zipf/up-2": "00f0abf8c227f190",
    "tree-width-1/least-outstanding/none": "d7ec0cb8896c859a",
    "tree-width-1/least-outstanding/down-2": "73c001fdae8a7365",
    "tree-width-1/least-outstanding/up-2": "e1e4d3d4cd843f86",
    "tree-one-stage/uniform/none": "cda3c32dc5ea174d",
    "tree-one-stage/uniform/down-2": "c85031fff3323ce3",
    "tree-one-stage/uniform/up-2": "cda3c32dc5ea174d",
    "tree-one-stage/round-robin/none": "9f0b31e3cdb78c02",
    "tree-one-stage/round-robin/down-2": "1824a553660d6ed7",
    "tree-one-stage/round-robin/up-2": "9f0b31e3cdb78c02",
    "tree-one-stage/zipf/none": "e9623131b2c2ce30",
    "tree-one-stage/zipf/down-2": "3e7867af8d040714",
    "tree-one-stage/zipf/up-2": "e9623131b2c2ce30",
    "tree-one-stage/least-outstanding/none": "40b768e9be3dc5fd",
    "tree-one-stage/least-outstanding/down-2": "82002516e019ed5b",
    "tree-one-stage/least-outstanding/up-2": "5087778501cf9c50",
}


@pytest.mark.parametrize("case", sorted(PINS))
def test_built_tasks_match_pin(case):
    structure, placement, live = case.split("/")
    assert _digest(structure, placement, live) == PINS[case]


def test_every_case_is_pinned():
    cases = {
        f"{s}/{p}/{l}" for s in STRUCTURES for p in PLACEMENTS for l in LIVE_SETS
    }
    assert set(PINS) == cases
