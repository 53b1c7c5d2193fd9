"""Monomials as exponent vectors and monomial ideals with ordered generators.

The generator sequence of a :class:`MonomialIdeal` carries the total order
used by every matching construction: position 0 holds the smallest generator,
position n-1 the largest.  All values are immutable after construction.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from operator import index, le
from typing import Iterable

MAX_EXPONENT = 2**31 - 1

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_FACTOR_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^([0-9]+))?\Z")


@dataclass(frozen=True)
class VariableContext:
    """Fixed, ordered tuple of variable names."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if not self.names:
            raise ValueError("a variable context needs at least one variable")
        for name in self.names:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid variable name {name!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable names: {' '.join(self.names)}")

    @property
    def size(self) -> int:
        return len(self.names)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.names)}

    def one(self) -> Monomial:
        return Monomial(self, (0,) * self.size)

    def monomial(self, text: str) -> Monomial:
        return parse_monomial(text, self)


@dataclass(frozen=True)
class Monomial:
    """A monomial stored as one exponent per variable of its context."""

    context: VariableContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))
        if len(self.exponents) != self.context.size:
            raise ValueError(
                f"expected {self.context.size} exponents, got {len(self.exponents)}"
            )
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be nonnegative integers, got {e!r}")
            if e > MAX_EXPONENT:
                raise ValueError(f"exponent {e} exceeds the supported bound {MAX_EXPONENT}")

    def is_one(self) -> bool:
        return not any(self.exponents)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(self.context.names, self.exponents):
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self})"


def _require_same_context(a: Monomial | MonomialIdeal, b: Monomial) -> None:
    if a.context is not b.context and a.context != b.context:
        raise ValueError(f"variable context mismatch: {a.context.names} vs {b.context.names}")


def divides(a: Monomial, b: Monomial) -> bool:
    """True iff every exponent of ``a`` is at most the matching exponent of
    ``b``; ValueError if their variable contexts differ."""
    _require_same_context(a, b)
    return all(map(le, a.exponents, b.exponents))


def _with_generator(kept: list[Monomial], m: Monomial) -> None:
    """One minimization step on ``kept``, in place: drop ``m`` if a kept
    generator divides it (an earlier equal copy does), else evict the kept
    generators that ``m`` divides and append ``m``."""
    if any(divides(k, m) for k in kept):
        return
    kept[:] = [k for k in kept if not divides(m, k)]
    kept.append(m)


def minimize_generators(monomials: Iterable[Monomial]) -> tuple[tuple[Monomial, ...], bool]:
    """Drop duplicates and any monomial divisible by another one.

    One pass: a monomial is dropped if a kept one divides it, and otherwise
    evicts the kept ones it divides.  So a duplicate keeps its first copy and
    survivors keep their input order.  Returns the surviving sequence and a
    flag telling whether anything was removed.  The monomial 1 is rejected
    before any context check because it would generate the unit ideal.
    """
    gens = list(monomials)
    if any(m.is_one() for m in gens):
        raise ValueError("the monomial 1 is not allowed as a generator (unit ideal)")
    kept: list[Monomial] = []
    for m in gens:
        _with_generator(kept, m)
    return tuple(kept), len(kept) != len(gens)


@dataclass(frozen=True)
class MonomialIdeal:
    """A minimal generating set in a fixed order (smallest generator first)."""

    context: VariableContext
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        for g in self.generators:
            _require_same_context(self, g)
            if g.is_one():
                raise ValueError("the monomial 1 cannot generate a proper ideal")
        gens = self.generators
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j and divides(a, b):
                    what = "duplicate generator" if a == b else f"{a} divides {b}"
                    raise ValueError(f"generating set is not minimal: {what}")

    @property
    def n(self) -> int:
        return len(self.generators)

    @cached_property
    def generator_strings(self) -> tuple[str, ...]:
        return tuple(str(g) for g in self.generators)

    def reordered(self, order: Iterable[int]) -> MonomialIdeal:
        """The same ideal with generators permuted; ``order[p]`` gives the
        index of the generator placed at position ``p``."""
        order = _permutation(order, self.n)
        return MonomialIdeal(self.context, tuple(self.generators[i] for i in order))


def _permutation(order: Iterable[int], n: int) -> tuple[int, ...]:
    """``order``, taken once, as a tuple; ValueError unless it holds integers permuting 0..n-1."""
    order = tuple(order)
    try:
        perm = tuple(map(index, order))
        if sorted(perm) == list(range(n)):
            return perm
    except TypeError:
        pass
    raise ValueError(f"{order} is not a permutation of 0..{n - 1}")


def parse_monomial(text: str, context: VariableContext) -> Monomial:
    text = text.strip()
    if not text:
        raise ValueError("empty monomial")
    if text == "1":
        return context.one()
    exponents = [0] * context.size
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if not m:
            raise ValueError(f"malformed factor {factor!r} in monomial {text!r}")
        name, power = m.group(1), m.group(2)
        idx = context._index.get(name)
        if idx is None:
            raise ValueError(f"unknown variable {name!r} in monomial {text!r}")
        k = int(power) if power is not None else 1
        if k < 1:
            raise ValueError(f"malformed power in {factor!r}: exponent must be at least 1")
        exponents[idx] += k
    return Monomial(context, tuple(exponents))


def parse_ideal(text: str) -> MonomialIdeal:
    """Parse the ideal file format.

    Line 1: ``vars:`` followed by variable names; line 2: ``gens:`` followed
    by generator monomials (smallest first), which may continue one or more
    per line afterwards.  Blank lines and ``#`` comment lines are ignored.
    A minimization warning is emitted if the listed generators were not
    already minimal.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars:"):
        raise ValueError("ideal file must start with a 'vars:' line")
    names = lines[0][len("vars:"):].split()
    if not names:
        raise ValueError("'vars:' line lists no variables")
    context = VariableContext(tuple(names))
    if len(lines) < 2 or not lines[1].startswith("gens:"):
        raise ValueError("ideal file needs a 'gens:' line after the 'vars:' line")
    tokens = lines[1][len("gens:"):].split()
    for extra in lines[2:]:
        tokens.extend(extra.split())
    monomials = [parse_monomial(t, context) for t in tokens]
    minimized, changed = minimize_generators(monomials)
    if changed:
        removed = len(monomials) - len(minimized)
        warnings.warn(
            f"generator list was not minimal; removed {removed} generator(s)",
            stacklevel=2,
        )
    return MonomialIdeal(context, minimized)


def format_ideal(ideal: MonomialIdeal) -> str:
    """Canonical ideal file text; parse_ideal(format_ideal(I)) returns I."""
    head = f"vars: {' '.join(ideal.context.names)}\n"
    if ideal.n == 0:
        return head + "gens:\n"
    return head + f"gens: {' '.join(ideal.generator_strings)}\n"
