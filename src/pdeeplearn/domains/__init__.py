"""Shipped domains: data files, problem samplers, and default settings.

Each registered domain bundles a domain file, a fixed unitary problem
(solvable by the reference model in at most 5 steps, used to screen
sampled models), and a sampler that builds random solvable initial
configurations for trace generation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, Optional

import numpy as np

from ..core import ActionModel, DomainSchema, GroundAtom, State
from ..pddl import ProblemSpec, parse_domain, parse_problem

Ranges = Mapping[str, tuple[int, int]]
Sampler = Callable[[np.random.Generator, Ranges], tuple[dict[str, str], State]]


def _counts(rng: np.random.Generator, ranges: Ranges, *types: str) -> dict[str, int]:
    out = {}
    for t in types:
        lo, hi = ranges[t]
        out[t] = int(rng.integers(lo, hi + 1))
    return out


def _sample_gripper(rng: np.random.Generator, ranges: Ranges) -> tuple[dict[str, str], State]:
    n = _counts(rng, ranges, "room", "ball", "robot", "gripper")
    rooms = [f"r{i + 1}" for i in range(n["room"])]
    balls = [f"b{i + 1}" for i in range(n["ball"])]
    robots = [f"rob{i + 1}" for i in range(n["robot"])]
    grippers = [f"g{i + 1}" for i in range(n["gripper"])]
    objects = {r: "room" for r in rooms}
    objects.update({b: "ball" for b in balls})
    objects.update({r: "robot" for r in robots})
    objects.update({g: "gripper" for g in grippers})
    atoms = []
    for rob in robots:
        atoms.append(GroundAtom("at-robby", (rob, rooms[int(rng.integers(len(rooms)))])))
    for g in grippers:
        rob = robots[int(rng.integers(len(robots)))]
        atoms.append(GroundAtom("free", (rob, g)))
    for b in balls:
        atoms.append(GroundAtom("at", (b, rooms[int(rng.integers(len(rooms)))])))
    return objects, frozenset(atoms)


_KILN_PHASES = ("raw", "shaped", "fired", "glazed")


def _sample_kiln(rng: np.random.Generator, ranges: Ranges) -> tuple[dict[str, str], State]:
    n = _counts(rng, ranges, "piece")
    pieces = [f"p{i + 1}" for i in range(n["piece"])]
    objects = {p: "piece" for p in pieces}
    atoms = []
    for p in pieces:
        # Every piece sits at exactly one workflow phase.
        phase = _KILN_PHASES[int(rng.integers(len(_KILN_PHASES)))]
        atoms.append(GroundAtom(phase, (p,)))
    return objects, frozenset(atoms)


def _sample_battery(rng: np.random.Generator, ranges: Ranges) -> tuple[dict[str, str], State]:
    n = _counts(rng, ranges, "battery", "socket")
    batteries = [f"b{i + 1}" for i in range(n["battery"])]
    sockets = [f"s{i + 1}" for i in range(n["socket"])]
    objects = {b: "battery" for b in batteries}
    objects.update({s: "socket" for s in sockets})
    atoms = []
    for b in batteries:
        docked = bool(rng.integers(2))
        charged = bool(rng.integers(2))
        atoms.append(GroundAtom("charged" if charged else "drained", (b,)))
        if docked:
            atoms.append(GroundAtom("docked", (b, sockets[int(rng.integers(len(sockets)))])))
        else:
            atoms.append(GroundAtom("loose", (b,)))
    return objects, frozenset(atoms)


@dataclass(frozen=True)
class DomainInfo:
    """Registry entry for a shipped domain."""

    name: str
    domain_file: str
    unitary_file: str
    sampler: Sampler
    default_ranges: dict[str, tuple[int, int]] = field(default_factory=dict)

    def domain_text(self) -> str:
        return resources.files(__package__).joinpath(self.domain_file).read_text()

    def unitary_text(self) -> str:
        return resources.files(__package__).joinpath(self.unitary_file).read_text()

    def load(self) -> tuple[DomainSchema, ActionModel, ProblemSpec]:
        schema, model = parse_domain(self.domain_text())
        unitary = parse_problem(self.unitary_text(), schema)
        return schema, model, unitary


REGISTRY: dict[str, DomainInfo] = {
    "gripper": DomainInfo(
        name="gripper",
        domain_file="gripper.pddl",
        unitary_file="gripper-unitary.pddl",
        sampler=_sample_gripper,
        default_ranges={"room": (2, 4), "ball": (1, 4), "robot": (1, 1), "gripper": (1, 1)},
    ),
    "kiln": DomainInfo(
        name="kiln",
        domain_file="kiln.pddl",
        unitary_file="kiln-unitary.pddl",
        sampler=_sample_kiln,
        default_ranges={"piece": (2, 4)},
    ),
    "battery": DomainInfo(
        name="battery",
        domain_file="battery.pddl",
        unitary_file="battery-unitary.pddl",
        sampler=_sample_battery,
        default_ranges={"battery": (1, 3), "socket": (1, 2)},
    ),
}


def get_domain(name: str) -> DomainInfo:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown domain {name!r}; registered: {sorted(REGISTRY)}") from None


def fixed_sampler(objects: dict[str, str], init: State) -> Sampler:
    """Sampler for unregistered domains: always the given configuration."""

    def sample(rng: np.random.Generator, ranges: Ranges) -> tuple[dict[str, str], State]:
        return dict(objects), init

    return sample


@dataclass(frozen=True)
class LoadedDomain:
    """A domain ready for the pipeline phases. unitary and sampler are None
    for an unregistered domain given no unitary problem; ranges are the
    default object-count ranges of trace generation."""

    schema: DomainSchema
    reference: ActionModel
    unitary: Optional[ProblemSpec]
    sampler: Optional[Sampler]
    ranges: dict[str, tuple[int, int]]


def load_domain(name_or_path: str, unitary_path: str = "") -> LoadedDomain:
    """A registered domain by name, or a domain file by path.

    unitary_path, when given, is parsed as the unitary problem in place of
    a registered one. An unregistered domain samples the unitary problem's
    initial configuration; the callers that need a unitary problem or a
    sampler report their absence.
    """
    if name_or_path in REGISTRY:
        info = REGISTRY[name_or_path]
        schema, reference, unitary = info.load()
        sampler: Optional[Sampler] = info.sampler
        ranges = dict(info.default_ranges)
    else:
        path = Path(name_or_path)
        if not path.exists():
            raise ValueError(f"domain {name_or_path!r} is neither registered nor a file")
        schema, reference = parse_domain(path.read_text())
        unitary, sampler, ranges = None, None, {}
    if unitary_path:
        unitary = parse_problem(Path(unitary_path).read_text(), schema)
    if sampler is None and unitary is not None:
        sampler = fixed_sampler(unitary.object_table(), unitary.init)
    return LoadedDomain(schema, reference, unitary, sampler, ranges)
