"""Ideal families for fixtures and the property-test corpus."""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Monomial, MonomialIdeal, VariableContext, _with_generator

_MASK64 = (1 << 64) - 1
_MAX_DRAWS = 200  # draw budget of random_squarefree_ideal


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on 1-based vertices."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]  # normalized u < v, sorted

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= self.vertex_count and 1 <= v <= self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range 1..{self.vertex_count}")
            normalized.append((min(u, v), max(u, v)))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(normalized)))


def parse_graph(text: str) -> SimpleGraph:
    """Parse the graph file format: first line ``V E``, then E lines ``u v``."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty graph file")
    try:
        vertex_count, edge_count = map(int, lines[0].split())
    except ValueError:
        raise ValueError("graph file must start with a 'V E' line") from None
    if len(lines) - 1 != edge_count:
        raise ValueError(f"expected {edge_count} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return SimpleGraph(vertex_count, tuple(edges))


def _edge_ideal(context: VariableContext, pairs) -> MonomialIdeal:
    """The ideal generated by ``x_u * x_v`` for the 1-based vertex ``pairs``, in order."""
    gens = []
    for u, v in pairs:
        exps = [0] * context.size
        exps[u - 1] = exps[v - 1] = 1
        gens.append(Monomial(context, tuple(exps)))
    return MonomialIdeal(context, tuple(gens))


def edge_ideal(graph: SimpleGraph) -> MonomialIdeal:
    """One generator ``x_u * x_v`` per edge, in sorted edge order; variables ``x1..xV``."""
    context = VariableContext(tuple(f"x{i}" for i in range(1, graph.vertex_count + 1)))
    return _edge_ideal(context, graph.edges)


def cycle_edge_ideal(n: int) -> MonomialIdeal:
    """Edge ideal of the n-cycle with generators listed around the cycle:
    x1*x2, x2*x3, ..., x(n-1)*xn, x1*xn."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    context = VariableContext(tuple(f"x{i}" for i in range(1, n + 1)))
    return _edge_ideal(context, [(i, i + 1) for i in range(1, n)] + [(1, n)])


class SplitMix64:
    """SplitMix64 generator; fixed algorithm so corpora reproduce anywhere."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound


def random_squarefree_ideal(seed: int, num_vars: int, num_gens: int) -> MonomialIdeal:
    """Deterministic random squarefree ideal with up to ``num_gens`` generators.

    Draws squarefree monomials with uniform support size between 2 and
    ``num_vars`` and takes one ``minimize_generators`` step per draw, until
    ``num_gens`` generators are kept or ``_MAX_DRAWS`` draws are spent (at
    least one generator always survives).
    """
    if not 2 <= num_vars <= 12:
        raise ValueError("num_vars must be between 2 and 12")
    if not 1 <= num_gens <= 10:
        raise ValueError("num_gens must be between 1 and 10")
    context = VariableContext(tuple(f"x{i}" for i in range(1, num_vars + 1)))
    rng = SplitMix64(seed)
    pool: list[Monomial] = []
    for _ in range(_MAX_DRAWS):
        support_size = 2 + rng.below(num_vars - 1)
        indices = list(range(num_vars))
        for j in range(support_size):
            k = j + rng.below(num_vars - j)
            indices[j], indices[k] = indices[k], indices[j]
        exps = [0] * num_vars
        for i in indices[:support_size]:
            exps[i] = 1
        _with_generator(pool, Monomial(context, tuple(exps)))
        if len(pool) == num_gens:
            break
    return MonomialIdeal(context, tuple(pool))
