"""The benchmark's workloads: shiftzoo command lines built from a seed.

Every workload runs the user's pipeline ``synth -> profile -> rank -> train``.
The sizes decide which layer is hot: see NOTES.md for why each workload was
chosen, which layers it leaves nearly idle, and the one-off numbers that
shaped it. ``smoke`` sizes keep the same stages and checks but finish in a
few seconds; the benchmark's own tests use them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# README quick-start training hyperparameters.
README_TRAIN = (
    "--lam", "20", "--warmup", "100", "--anneal", "300", "--lr", "1e-3",
    "--batch-size", "32", "--steps", "1200", "--eval-every", "100",
    "--weight-decay", "0.01", "--aux-lr", "1e-2", "--aux-steps", "200",
)
PLANTED_AUX = ("--main", "main_full", "--div-aux", "div_heavy", "--rew-aux", "cor_heavy")
MODES = ("erm", "rew", "hsic", "both")
SIZES = ("full", "smoke")


@dataclass(frozen=True)
class Workload:
    """Flags for each stage; ``--out``/``--manifest``/``--seed`` are added per run.

    ``trains`` maps a label to the flags of one ``train`` invocation; a round
    runs ``profile``, ``rank`` and then every ``train`` invocation once.
    """

    name: str
    synth: tuple[str, ...]
    profile: tuple[str, ...]
    rank: tuple[str, ...]
    trains: tuple[tuple[str, tuple[str, ...]], ...]
    setup_reps: int


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _train(flags: tuple[str, ...], mode: str) -> tuple[str, tuple[str, ...]]:
    return mode, PLANTED_AUX + ("--mode", mode) + flags


def desk_modes(size: str) -> Workload:
    synth = () if size == "full" else ("--samples", "300")
    flags = README_TRAIN if size == "full" else (
        "--lam", "20", "--warmup", "10", "--anneal", "30", "--lr", "1e-3", "--batch-size", "32",
        "--steps", "60", "--eval-every", "20", "--weight-decay", "0.01", "--aux-lr", "1e-2",
        "--aux-steps", "20",
    )
    return Workload(
        name="desk-modes",
        synth=synth,
        profile=("--jobs", "1"),
        rank=("--main", "main_full"),
        trains=tuple(_train(flags, mode) for mode in MODES),
        setup_reps=41,
    )


def zoo_profile(size: str) -> Workload:
    strengths = ("--spur-strength", "0.9,0.9,0.9,0.9,0.9,-0.9", "--n-domains", "6",
                 "--zoo-size", "8")
    dims = ("--samples", "4000", "--dim-core", "128", "--dim-div", "64", "--dim-spur", "64")
    if size == "smoke":
        dims = ("--samples", "300", "--dim-core", "16", "--dim-div", "8", "--dim-spur", "8")
    light_train = (
        "--target", "domain5", "--lam", "20", "--warmup", "20", "--anneal", "50",
        "--lr", "1e-3", "--batch-size", "32", "--steps", "100", "--eval-every", "50",
        "--weight-decay", "0.01", "--aux-lr", "1e-2", "--aux-steps", "50",
    )
    return Workload(
        name="zoo-profile",
        synth=dims + strengths,
        profile=("--jobs", str(nproc())),
        rank=("--main", "main_full"),
        trains=(_train(light_train, "both"),),
        setup_reps=5,
    )


def wide_head(size: str) -> Workload:
    # main_full, div_heavy and cor_heavy are core + div/2 + spur/2 = 2048 wide,
    # which selects the head's 2048 -> 1024 -> 512 -> 4 shape; the 32-wide
    # `clean` encoder keeps the profile stage light.
    dims = ("--dim-core", "32", "--dim-div", "2016", "--dim-spur", "2016")
    steps = ("--warmup", "40", "--anneal", "100", "--steps", "160", "--eval-every", "40")
    if size == "smoke":
        dims = ("--dim-core", "8", "--dim-div", "56", "--dim-spur", "56", "--samples", "300")
        steps = ("--warmup", "5", "--anneal", "15", "--steps", "30", "--eval-every", "10")
    train = ("--target", "domain2", "--lam", "20", "--lr", "1e-3", "--batch-size", "32",
             "--weight-decay", "0.01", "--aux-lr", "1e-2", "--aux-steps", "200") + steps
    return Workload(
        name="wide-head",
        synth=dims + ("--zoo-size", "4"),
        profile=("--jobs", "1", "--encoder", "clean"),
        rank=(),
        trains=(_train(train, "both"),),
        setup_reps=2,
    )


BY_NAME = {"desk-modes": desk_modes, "zoo-profile": zoo_profile, "wide-head": wide_head}


def get(name: str, size: str = "full") -> Workload:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return BY_NAME[name](size)


WARM_UP = (
    ("synth", ("--samples", "200")),
    ("profile", ("--jobs", "1")),
    ("train", PLANTED_AUX + ("--mode", "both", "--target", "domain2", "--steps", "30",
                             "--warmup", "5", "--anneal", "10", "--eval-every", "10",
                             "--aux-steps", "10")),
)
