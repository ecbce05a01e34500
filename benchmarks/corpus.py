"""Seeded corpus generators and psumlint-independent output oracles.

Every generator is a pure function of its arguments: the same seed gives
byte-identical files. The seed only permutes package order and names; all
names have a fixed width, so sizes and expected counts do not depend on it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
from dataclasses import dataclass, field

STEREOTYPES = ("BeliefStatement", "IndeterminacySource",
               "IndeterminacySpecification", "Uncertainty",
               "UncertaintyTopic", "Effect")

#: fixtures that validate without error findings and are wrapped by `wrap`
WRAP_FIXTURES = ("acc", "interaction", "arrowhead", "frigate", "vfea")
#: every bundled fixture, with the exit code each subcommand must return
CLI_FIXTURES = {"acc": 0, "acc_verbatim": 2, "interaction": 0, "vfea": 0,
                "arrowhead": 0, "frigate": 0, "vehicle_health": 0}
#: a propagation-graph node of each fixture, the start of `propagate --from`
PROPAGATE_FROM = {
    "acc": "BehavioralModel::ACCState::accOn::decisionLayerState::"
           "startDeciding",
    "acc_verbatim": "BehavioralModel::ACCState::accOn::decisionLayerState::"
                    "startDeciding",
    "interaction": "Configuration::producer::producerBehavior::publish",
    "vfea": "VehicleModel::Vehicle::wheelDiameter",
    "arrowhead": "AHFModel::AHFNorway_LocalCloudDD::TellUConsumer::"
                 "TellUbehavior::sendCallGiveItems",
    "frigate": "MiningFrigateModel::MiningFrigateStates::engageDefense",
    "vehicle_health": "VehicleHealthModel::Vehicle::maintenanceTime",
}
#: (subcommand, formats) of the `cli` matrix, in the CLI's own order
CLI_SUBCOMMANDS = (("check", ("text", "json")), ("stats", ("text", "json")),
                   ("propagate", ("text", "json", "dot")),
                   ("topics", ("text", "json")), ("risks", ("text", "json")),
                   ("graph", ("dot", "json")),
                   ("derive-specs", ("text", "json")))

WRAP_COPIES = 8
LATTICE_FAMILIES = 4
LATTICE_DEPTH = 150

#: one annotation clause: «A, B<x, y>» or its ASCII fallback <<A, B<x, y>>>
_CLAUSE = re.compile(
    r"(?:«|<<)\s*(\w+(?:<[^<>]*>)?(?:\s*,\s*\w+(?:<[^<>]*>)?)*)")
_ENTRY = re.compile(r"(\w+)(?:<[^<>]*>)?")


@dataclass
class Group:
    """Files analysed together: one CLI invocation or one pipeline pass."""

    paths: list[str]
    exit_code: int = 0
    #: stereotype -> applications written in the text (direct + references)
    annotations: dict[str, int] = field(default_factory=dict)
    #: elements that inherit IndeterminacySource, when known by construction
    inherited_sources: int | None = None


@dataclass
class Corpus:
    groups: list[Group]
    #: fresh-process invocations of the `cli` workload: (argv, exit code)
    invocations: list[tuple[list[str], int]] = field(default_factory=list)

    def all_paths(self) -> list[str]:
        return [p for g in self.groups for p in g.paths]


def count_annotations(text: str) -> dict[str, int]:
    """Stereotype applications written in «…» or <<…>> clauses."""
    counts = dict.fromkeys(STEREOTYPES, 0)
    for clause in _CLAUSE.finditer(text):
        for entry in _ENTRY.finditer(clause.group(1)):
            if entry.group(1) in counts:
                counts[entry.group(1)] += 1
    return counts


def stats_facts(stats: dict) -> tuple[dict[str, int], int]:
    """From `stats --format json`: the applications written in the text
    (direct cells plus reference counts, by stereotype), and the number of
    elements that inherit IndeterminacySource."""
    cells = stats["stereotype_counts"]
    written = {name: sum(c["direct"] for c in cells.get(name, {}).values())
               + stats["reference_counts"].get(name, 0)
               for name in STEREOTYPES}
    inherited = sum(c["inherited"]
                    for c in cells.get("IndeterminacySource", {}).values())
    return written, inherited


def digests(outputs: list[str]) -> tuple[str, str]:
    """(content digest, byte digest) of rendered outputs.

    The content digest reads JSON outputs with their object keys sorted, so
    it changes only when what the program says changes; the byte digest
    also changes when only the order of JSON keys does.
    """
    content, raw = hashlib.sha256(), hashlib.sha256()
    for text in outputs:
        raw.update(text.encode("utf-8") + b"\0")
        try:
            text = json.dumps(json.loads(text), sort_keys=True)
        except ValueError:
            pass
        content.update(text.encode("utf-8") + b"\0")
    return content.hexdigest(), raw.hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def _indent(text: str) -> str:
    return "".join("\t" + line if line.strip() else line
                   for line in text.splitlines(keepends=True))


def wrap_text(fixture_dir: str, seed: int, copies: int) -> str:
    """Every clean fixture wrapped `copies` times in one file."""
    rng = random.Random(seed)
    bodies = {stem: _indent(read_text(os.path.join(fixture_dir,
                                                   stem + ".sysml")))
              for stem in WRAP_FIXTURES}
    labels = list(range(copies))
    rng.shuffle(labels)
    packages = [(labels[i], stem) for i in range(copies)
                for stem in WRAP_FIXTURES]
    rng.shuffle(packages)
    width = len(str(copies - 1))
    parts = []
    for label, stem in packages:
        parts.append(f"package Copy_{label:0{width}d}_{stem} {{\n"
                     f"{bodies[stem].rstrip()}\n}}\n")
    return "".join(parts)


def lattice_family(tag: str, depth: int, reverse: bool) -> tuple[str, int]:
    """One specialization family; returns its text and the number of
    elements that inherit IndeterminacySource from its root.

    Part defs L<tag>_0 … L<tag>_<depth-1> form a chain, each specializing
    the previous level. Level 0 is an indeterminacy source owning the two
    specification constraints Up and Down, and every third level is an
    uncertainty. `sys` owns one uncertain usage typed by every fifth level,
    whose specification ref reaches Up through the inherited members of
    its type, and one usage that redefines the deepest of them and applies
    its own source nature.
    """
    name = f"L{tag}_"
    levels = [f"\t«IndeterminacySource<nd>» part def {name}0 {{\n"
              f"\t\tattribute up : Boolean;\n"
              f"\t\t«IndeterminacySpecification» constraint Up {{\n"
              f"\t\t\tup;\n\t\t}}\n"
              f"\t\t«IndeterminacySpecification» constraint Down {{\n"
              f"\t\t\tnot up;\n\t\t}}\n\t}}\n"]
    for d in range(1, depth):
        annotation = "«Uncertainty<ocr, epi, subj>» " if d % 3 == 0 else ""
        levels.append(f"\t{annotation}part def {name}{d} "
                      f"specializes {name}{d - 1};\n")
    if reverse:
        levels.reverse()
    typed_levels = range(0, depth, 5)
    usages = "".join(
        f"\t\t«Uncertainty<ocr, epi, subj>» part u{d} : {name}{d} {{\n"
        f"\t\t\t«IndeterminacySpecification» ref ::> sys.u{d}.Up;\n"
        f"\t\t}}\n" for d in typed_levels)
    override = (f"\t\t«IndeterminacySource<isr>» part uOver "
                f":>> u{typed_levels[-1]};\n")
    text = (f"package Lattice_{tag} {{\n" + "".join(levels)
            + f"\tpart sys {{\n{usages}{override}\t}}\n}}\n")
    # every level but the root, and every typed usage; the override applies
    # IndeterminacySource directly, so it does not inherit it
    inherited = (depth - 1) + len(typed_levels)
    return text, inherited


def _tags(rng: random.Random, count: int) -> list[str]:
    letters = "ABCDEFGHJKMNPQRSTUVWXYZ"
    tags: list[str] = []
    while len(tags) < count:
        tag = "".join(rng.choice(letters) for _ in range(4))
        if tag not in tags:
            tags.append(tag)
    return tags


def generate(workload: str, seed: int, fixture_dir: str, out_dir: str,
             scale: int = 1) -> Corpus:
    """Write the workload's files into out_dir and describe them.

    `scale` multiplies the size: wrap copies, or lattice chain depth.
    """
    rng = random.Random(f"{workload}:{seed}")
    os.makedirs(out_dir, exist_ok=True)
    if workload == "wrap":
        text = wrap_text(fixture_dir, rng.randrange(2**32),
                         WRAP_COPIES * scale)
        path = os.path.join(out_dir, "wrap.sysml")
        _write(path, text)
        return Corpus([Group([path], 0, count_annotations(text))])
    if workload == "lattice":
        tags = _tags(rng, LATTICE_FAMILIES)
        reversed_families = set(rng.sample(range(LATTICE_FAMILIES),
                                           LATTICE_FAMILIES // 2))
        group = Group([], 0, dict.fromkeys(STEREOTYPES, 0), 0)
        for index, tag in enumerate(tags):
            text, inherited = lattice_family(tag, LATTICE_DEPTH * scale,
                                             index in reversed_families)
            path = os.path.join(out_dir, f"lattice_{tag}.sysml")
            _write(path, text)
            group.paths.append(path)
            group.inherited_sources += inherited
            for key, value in count_annotations(text).items():
                group.annotations[key] += value
        return Corpus([group])
    if workload == "cli":
        stems = list(CLI_FIXTURES)
        rng.shuffle(stems)
        groups = []
        for stem in stems:
            text = read_text(os.path.join(fixture_dir, stem + ".sysml"))
            path = os.path.join(out_dir, stem + ".sysml")
            _write(path, text)
            groups.append(Group([path], CLI_FIXTURES[stem],
                                count_annotations(text)))
        invocations = []
        for group, stem in zip(groups, stems):
            for command, formats in CLI_SUBCOMMANDS:
                for fmt in formats:
                    argv = [command, group.paths[0], "--format", fmt]
                    if command == "propagate":
                        argv += ["--from", PROPAGATE_FROM[stem]]
                    invocations.append((argv, group.exit_code))
        rng.shuffle(invocations)
        return Corpus(groups, invocations)
    raise ValueError(f"unknown workload {workload!r}")
