"""Lattice file formats, the named catalog, generation and DOT export.

Lattice file (UTF-8, line based)::

    lattice <name>
    elements <name>+          # whitespace separated, unique
    cover <lower> <upper>     # one per line; '#' starts a comment

Hom file::

    hom <name> from <lattice> to <lattice>
    map <source-element> <target-element>
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import NamedTuple

from .bitsets import bits, full_mask, transpose
from .errors import MissingMapping, ParseError, SizeBoundExceeded, UnknownElement
from .lattices import (
    FiniteLattice,
    LatticeHom,
    build_lattice,
    check_hom,
    lattice_from_order,
    product_lattice,
)

_EXHAUSTIVE_BOUND = 6


class LatticeDoc(NamedTuple):
    """Parsed form of a lattice text document."""

    name: str
    element_names: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]


def parse_lattice_doc(text: str) -> LatticeDoc:
    name = None
    element_names: tuple[str, ...] = ()
    covers: list[tuple[str, str]] = []
    seen_elements = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "lattice":
            if name is not None:
                raise ParseError(lineno, "duplicate 'lattice' line")
            if len(words) != 2:
                raise ParseError(lineno, "expected 'lattice <name>'")
            name = words[1]
        elif words[0] == "elements":
            if name is None:
                raise ParseError(lineno, "'elements' before 'lattice'")
            if seen_elements:
                raise ParseError(lineno, "duplicate 'elements' line")
            if len(words) < 2:
                raise ParseError(lineno, "at least one element is required")
            if len(set(words[1:])) != len(words) - 1:
                raise ParseError(lineno, "element names must be unique")
            element_names = tuple(words[1:])
            seen_elements = True
        elif words[0] == "cover":
            if not seen_elements:
                raise ParseError(lineno, "'cover' before 'elements'")
            if len(words) != 3:
                raise ParseError(lineno, "expected 'cover <lower> <upper>'")
            lo, hi = words[1], words[2]
            for w in (lo, hi):
                if w not in element_names:
                    raise UnknownElement(lineno, w)
            if lo == hi:
                raise ParseError(lineno, f"reflexive cover {lo!r}")
            covers.append((lo, hi))
        else:
            raise ParseError(lineno, f"unknown directive {words[0]!r}")
    if name is None:
        raise ParseError(1, "missing 'lattice' line")
    if not seen_elements:
        raise ParseError(1, "missing 'elements' line")
    return LatticeDoc(name, element_names, tuple(covers))


def lattice_from_doc(doc: LatticeDoc) -> FiniteLattice:
    return build_lattice(doc.element_names, doc.covers, name=doc.name)


def parse_lattice(text: str) -> FiniteLattice:
    """Parse and validate a lattice document (cover cycles and missing bounds
    surface as CyclicCovers / NotALattice)."""
    return lattice_from_doc(parse_lattice_doc(text))


def render_lattice(lat: FiniteLattice) -> str:
    """Canonical document for a lattice; parse(render(L)) == L."""
    lines = [f"lattice {lat.name or 'unnamed'}"]
    lines.append("elements " + " ".join(lat.names))
    for lo, hi in lat.covers:
        lines.append(f"cover {lat.names[lo]} {lat.names[hi]}")
    return "\n".join(lines) + "\n"


def parse_hom(text: str, source: FiniteLattice, target: FiniteLattice) -> LatticeHom:
    mapping: dict[int, int] = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split()
        if words[0] == "hom":
            if header_seen:
                raise ParseError(lineno, "duplicate 'hom' line")
            if len(words) != 6 or words[2] != "from" or words[4] != "to":
                raise ParseError(lineno, "expected 'hom <name> from <lattice> to <lattice>'")
            if source.name and words[3] != source.name:
                raise ParseError(lineno, f"source lattice is {source.name!r}, file says {words[3]!r}")
            if target.name and words[5] != target.name:
                raise ParseError(lineno, f"target lattice is {target.name!r}, file says {words[5]!r}")
            header_seen = True
        elif words[0] == "map":
            if len(words) != 3:
                raise ParseError(lineno, "expected 'map <source-element> <target-element>'")
            if words[1] not in source.names:
                raise UnknownElement(lineno, words[1])
            if words[2] not in target.names:
                raise UnknownElement(lineno, words[2])
            src = source.index(words[1])
            if src in mapping:
                raise ParseError(lineno, f"element {words[1]!r} mapped twice")
            mapping[src] = target.index(words[2])
        else:
            raise ParseError(lineno, f"unknown directive {words[0]!r}")
    if not header_seen:
        raise ParseError(1, "missing 'hom' line")
    missing = [source.names[i] for i in range(source.n) if i not in mapping]
    if missing:
        raise MissingMapping(f"unmapped source elements: {' '.join(missing)}")
    return check_hom(source, target, tuple(mapping[i] for i in range(source.n)))


# ---------------------------------------------------------------------------
# named catalog


def _chain(k: int) -> FiniteLattice:
    names = [str(i) for i in range(k)]
    covers = [(str(i), str(i + 1)) for i in range(k - 1)]
    return build_lattice(names, covers, name=f"chain{k}")


def named_lattices() -> dict[str, FiniteLattice]:
    """The named lattices used by the verification suites."""
    m5 = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        name="m5",
    )
    n5 = build_lattice(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        name="n5",
    )
    diamond = build_lattice(
        ["0", "p", "q", "1"],
        [("0", "p"), ("0", "q"), ("p", "1"), ("q", "1")],
        name="diamond",
    )
    b3 = build_lattice(
        ["0", "x", "y", "z", "xy", "xz", "yz", "1"],
        [
            ("0", "x"), ("0", "y"), ("0", "z"),
            ("x", "xy"), ("x", "xz"), ("y", "xy"), ("y", "yz"),
            ("z", "xz"), ("z", "yz"),
            ("xy", "1"), ("xz", "1"), ("yz", "1"),
        ],
        name="b3",
    )
    m5_doubled_arm = build_lattice(
        ["0", "a1", "a2", "b", "c", "1"],
        [
            ("0", "a1"), ("a1", "a2"), ("a2", "1"),
            ("0", "b"), ("b", "1"), ("0", "c"), ("c", "1"),
        ],
        name="m5_doubled_arm",
    )
    hexagon = build_lattice(
        ["0", "a", "b", "c", "d", "1"],
        [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "d"), ("d", "1")],
        name="hexagon",
    )
    chains = {f"chain{k}": _chain(k) for k in range(1, 6)}
    out: dict[str, FiniteLattice] = {}
    out.update(chains)
    out["diamond"] = diamond
    out["b3"] = b3
    out["m5"] = m5
    out["n5"] = n5
    out["m5_doubled_arm"] = m5_doubled_arm
    out["hexagon"] = hexagon
    out["chain2xchain3"] = product_lattice(chains["chain2"], chains["chain3"], name="chain2xchain3")
    out["chain3xchain3"] = product_lattice(chains["chain3"], chains["chain3"], name="chain3xchain3")
    out["m5xchain2"] = product_lattice(m5, chains["chain2"], name="m5xchain2")
    return out


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


@dataclass(frozen=True)
class GeneratorConfig:
    mode: str  # "exhaustive" | "random"
    max_size: int
    seed: int | None = None
    count: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("exhaustive", "random"):
            raise ValueError("mode is 'exhaustive' or 'random'")
        if self.max_size < 1:
            raise ValueError("max_size must be positive")
        if self.mode == "exhaustive" and self.max_size > _EXHAUSTIVE_BOUND:
            raise SizeBoundExceeded(
                f"exhaustive enumeration is bounded at {_EXHAUSTIVE_BOUND} elements"
            )
        if self.mode == "random" and self.seed is None:
            raise ValueError("random mode requires a seed")
        if self.mode == "random" and (self.count is None or self.count < 1):
            raise ValueError("random mode requires a positive count")


def canonical_form(lat: FiniteLattice) -> bytes:
    """Isomorphism-invariant encoding of the order relation.

    Elements are grouped by a refined invariant (down-set and up-set sizes
    plus the multiset of neighbour invariants); the minimum relation matrix
    over all group-respecting permutations is the canonical form.
    """
    return _canonical_form(lat.up, lat.down)


def _canonical_form(up, down) -> bytes:
    """:func:`canonical_form` of the order given by its up- and down-masks."""
    n = len(up)
    inv = [(bin(down[i]).count("1"), bin(up[i]).count("1")) for i in range(n)]
    for _ in range(2):
        inv = [
            (
                inv[i],
                tuple(sorted(inv[j] for j in bits(down[i]))),
                tuple(sorted(inv[j] for j in bits(up[i]))),
            )
            for i in range(n)
        ]
    order = sorted(range(n), key=lambda i: (inv[i], i))
    groups: list[list[int]] = []
    for i in order:
        if groups and inv[groups[-1][0]] == inv[i]:
            groups[-1].append(i)
        else:
            groups.append([i])

    best: bytes | None = None
    for perms in itertools.product(*(itertools.permutations(g) for g in groups)):
        perm = [i for group in perms for i in group]
        pos = [0] * n
        for new, old in enumerate(perm):
            pos[old] = new
        rows = bytearray()
        for old in perm:
            row = 0
            for j in bits(up[old]):
                row |= 1 << pos[j]
            rows += row.to_bytes((n + 7) // 8, "little")
        enc = bytes(rows)
        if best is None or enc < best:
            best = enc
    assert best is not None
    return bytes([n]) + best


def _down_sets(down: list[int]) -> list[int]:
    """The down-sets of a naturally labelled order, in ascending mask order.

    Element k is maximal among elements 0..k, so the down-sets of 0..k are
    those of 0..k-1, followed by those that contain k's strict down-set with
    k added; both halves stay ascending.
    """
    sets = [0]
    for k, d in enumerate(down):
        lower = d & ~(1 << k)
        sets += [s | 1 << k for s in sets if s & lower == lower]
    return sets


def _extend(up: list[int], down: list[int], mask: int) -> tuple[list[int], list[int]] | None:
    """The order grown by a new maximal element strictly above the down-set
    ``mask``, as ``(up, down)``, or None when the new element has no meet
    with some old one.

    Old pairs keep their lower bounds, so only the new element's meets are
    checked, and a missing meet never comes back once elements are added on
    top.  Under a natural labelling a set's greatest member, when it has
    one, is its highest-numbered member, so each meet is one mask test.
    """
    for d in down:
        common = d & mask
        if not common or common & ~down[common.bit_length() - 1]:
            return None
    bit = 1 << len(up)
    return [u | bit if mask >> i & 1 else u for i, u in enumerate(up)] + [bit], down + [mask | bit]


def _is_lattice(down: list[int]) -> bool:
    """A nonempty finite meet-semilattice with a top is a lattice, and a
    natural labelling puts the top last."""
    return bool(down) and down[-1] == full_mask(len(down))


def _labelled_lattices(max_size: int) -> list[list[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """The naturally labelled lattices with at most ``max_size`` elements as
    (up-mask, down-mask) tuple pairs, listed by size, each size in the
    preorder of one depth-first search that extends by maximal elements."""
    found: list[list] = [[] for _ in range(max_size + 1)]

    def visit(up: list[int], down: list[int]) -> None:
        if _is_lattice(down):
            found[len(up)].append((tuple(up), tuple(down)))
        if len(up) < max_size:
            for mask in _down_sets(down):
                grown = _extend(up, down, mask)
                if grown is not None:
                    visit(*grown)

    visit([], [])
    return found


def _exhaustive(max_size: int):
    """The first labelled lattice found of each canonical class represents
    it, sizes in turn, classes in canonical-form order.  Classes are told
    apart from the order masks; only representatives become lattices."""
    for n, orders in enumerate(_labelled_lattices(max_size)):
        names = tuple(f"x{i}" for i in range(n))
        canon: dict[bytes, tuple[int, ...]] = {}
        for up, down in orders:
            canon.setdefault(_canonical_form(up, down), up)
        for idx, key in enumerate(sorted(canon)):
            yield lattice_from_order(names, canon[key], name=f"gen{n}_{idx}")


def _random(max_size: int, seed: int, count: int):
    """Each sample draws a size, then one down-set per element; samples that
    lose a meet or end without a top are redrawn."""
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count:
        attempts += 1
        if attempts > 10000 * count:
            raise RuntimeError("random lattice sampling failed to converge")
        n = rng.randint(1, max_size)
        up: list[int] = []
        down: list[int] = []
        while len(up) < n:
            grown = _extend(up, down, rng.choice(_down_sets(down)))
            if grown is None:
                break
            up, down = grown
        if len(up) < n or not _is_lattice(down):
            continue
        names = tuple(f"x{i}" for i in range(n))
        produced += 1
        yield lattice_from_order(names, tuple(up), name=f"rnd{seed}_{produced}")


def enumerate_lattices(config: GeneratorConfig):
    """Stream lattices per the configuration.

    Exhaustive mode yields every lattice with at most ``max_size`` elements
    exactly once up to isomorphism, ordered by size then canonical form.
    Random mode yields ``count`` seeded samples; the stream is deterministic
    for a fixed configuration.
    """
    if config.mode == "exhaustive":
        yield from _exhaustive(config.max_size)
    else:
        assert config.seed is not None and config.count is not None
        yield from _random(config.max_size, config.seed, config.count)


# ---------------------------------------------------------------------------
# DOT export


def _quote(s: str) -> str:
    return '"' + s.replace('"', '\\"') + '"'


def to_dot(obj) -> str:
    """DOT rendering of a lattice (Hasse diagram), a classical spectrum or a
    bitopological spectrum (both specialization preorders, labelled)."""
    from .spectra import BitopSpectrum, ClassicalSpectrum

    if isinstance(obj, FiniteLattice):
        lines = [f"digraph {_quote(obj.name or 'lattice')} {{", "  rankdir=BT;"]
        for name in obj.names:
            lines.append(f"  {_quote(name)};")
        for lo, hi in obj.covers:
            lines.append(f"  {_quote(obj.names[lo])} -> {_quote(obj.names[hi])};")
        lines.append("}")
    elif isinstance(obj, ClassicalSpectrum):
        lines = [f"digraph {_quote((obj.lattice.name or 'lattice') + '_spec')} {{", "  rankdir=BT;"]
        labels = [obj.lattice.set_label(p) for p in obj.points]
        for label in labels:
            lines.append(f"  {_quote(label)};")
        up = obj.space.up
        for x in range(len(obj.points)):
            for y in bits(up[x]):
                if x != y:
                    lines.append(f"  {_quote(labels[x])} -> {_quote(labels[y])};")
        lines.append("}")
    elif isinstance(obj, BitopSpectrum):
        lat = obj.lattice
        lines = [f"digraph {_quote((lat.name or 'lattice') + '_spec_b')} {{", "  rankdir=BT;"]
        m = len(obj.points)  # d_of[k] / e_of[k]: the x whose delta / epsilon holds k
        d_of, e_of = transpose(obj.delta, m), transpose(obj.epsilon, m)
        labels = [p.label() for p in obj.points]
        nodes = [_quote(label) for label in labels]
        for k, label in enumerate(labels):
            in_delta = ",".join(lat.names[x] for x in bits(d_of[k]))
            in_eps = ",".join(lat.names[x] for x in bits(e_of[k]))
            text = f"{label}\\nd:{in_delta} e:{in_eps}"
            lines.append(f"  {nodes[k]} [label={_quote(text)}];")
        space = obj.space
        for x in range(space.n):
            for y in bits(space.up_tau[x]):
                if x != y:
                    lines.append(f"  {nodes[x]} -> {nodes[y]} [color=blue];")
            for y in bits(space.up_sigma[x]):
                if x != y:
                    lines.append(f"  {nodes[x]} -> {nodes[y]} [color=red, style=dashed];")
        lines.append("}")
    else:
        raise TypeError(f"no DOT rendering for {type(obj).__name__}")
    return "\n".join(lines) + "\n"
