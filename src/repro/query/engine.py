"""The query engine: validate, cache-check, plan, execute.

:class:`QueryEngine` owns a set of execution backends (built from
whatever the caller attaches — an index, a graph, a duck-typed oracle),
a :class:`~repro.query.planner.QueryPlanner` over them, and a
generation-keyed :class:`~repro.query.cache.ResultCache`. ``run(node)``
is the whole pipeline; ``compile(node)`` keeps the plan around for
repeated execution; ``explain(node)`` shows the planner's choices.

Execution guarantees:

* answers are normalised value tuples — identical across backends, safe
  to cache and to compare in the conformance suite;
* :class:`~repro.query.ast.Batch` children that are pair operators and
  share a backend are coalesced into one batched ``pairs`` call (one
  vectorized ``count_many`` for a thousand ``Count`` nodes);
* ``deadline`` (duck-typed ``check()``) threads into every backend call,
  so serving-tier budgets bound compiled queries exactly like direct
  ones;
* the cache token couples the index generation with the live backend
  line-up, so a hot reload or a staleness demotion invalidates every
  cached answer at once (see :mod:`repro.query.cache`).
"""

from repro.exceptions import PlanError
from repro.query.ast import (
    Batch,
    Count,
    PAIR_OPS,
    Relevance,
    SetToSet,
    SingleSource,
    TopKBetweenness,
)
from repro.query.backends import (
    BFSBackend,
    FlatBackend,
    MatrixBackend,
    OracleBackend,
)
from repro.query.cache import ResultCache
from repro.query.planner import (
    DEFAULT_MATRIX_MAX,
    DEFAULT_SAMPLES,
    QueryPlanner,
)

INF = float("inf")

__all__ = ["QueryEngine", "CompiledQuery"]


class CompiledQuery:
    """A query bound to an engine with its plan cached across runs.

    The plan is recomputed only when the engine's cache token moves (hot
    reload, staleness demotion) — repeated ``run()`` calls on a stable
    engine pay planning once, which is what the CI query-layer leg
    measures against raw ``count_many``.
    """

    __slots__ = ("engine", "node", "_plan", "_token", "_validated_n")

    def __init__(self, engine, node):
        self.engine = engine
        self.node = node
        self._plan = None
        self._token = None
        self._validated_n = None

    @property
    def plan(self):
        """The current :class:`~repro.query.planner.Plan` (re-planned
        whenever the engine's generation or backend line-up changed)."""
        token = self.engine.cache_token()
        if self._plan is None or token != self._token:
            self._plan = self.engine.plan(self.node)
            self._token = token
        return self._plan

    def run(self, deadline=None):
        """Execute with the cached plan (engine result cache still applies).

        Validation is memoised per id space: the node is immutable, so
        re-checking its vertex ids on every run of a hot compiled batch
        would be pure overhead.
        """
        plan = self.plan
        n = self.engine.n
        if n is not None and n != self._validated_n:
            self.node.validate(n)
            self._validated_n = n
        return self.engine.run(self.node, deadline=deadline, plan=plan,
                               validated=True)

    def explain(self):
        """The cached plan as an indented text tree."""
        return self.plan.explain()

    def __repr__(self):
        return f"CompiledQuery({self.node!r})"


class QueryEngine:
    """Plan and execute AST queries over the attached backends.

    Parameters
    ----------
    graph:
        The live graph; unlocks the BFS and matrix backends and the
        exact-Brandes top-k strategy.
    index:
        A built :class:`~repro.core.index.SPCIndex`; unlocks the flat
        backend (dropped automatically while ``index.stale``).
    oracle:
        Any duck-typed ``count_with_distance`` object; the engine the
        ``applications/`` drivers and both serving tiers run on.
    n:
        Vertex count override for oracle-only engines that cannot infer
        it; queries are validated against it when known.
    generation:
        Int or callable for the cache token (default 0); bump it (or
        assign ``engine.generation``) after mutating the underlying
        data in place.
    cache:
        ``True`` (default) for a fresh :class:`ResultCache`, ``None`` /
        ``False`` to disable caching, or a ready cache instance.
    backends:
        Optional backend-name filter (conformance harness), forwarded to
        the planner's ``only``.
    """

    def __init__(self, graph=None, index=None, oracle=None, n=None,
                 bfs_engine="python", cache=True, generation=None,
                 backends=None, matrix_max=DEFAULT_MATRIX_MAX,
                 default_samples=DEFAULT_SAMPLES):
        self.graph = graph
        self.index = index
        self._backends = []
        if index is not None:
            self._backends.append(FlatBackend(index))
        if graph is not None:
            self._backends.append(MatrixBackend(graph))
            self._backends.append(BFSBackend(graph, engine=bfs_engine))
        if oracle is not None:
            self._backends.append(OracleBackend(oracle, n=n))
        if not self._backends:
            raise ValueError(
                "QueryEngine needs at least one of graph/index/oracle"
            )
        self._generation = generation if generation is not None else 0
        if cache is True:
            self._cache = ResultCache()
        elif cache in (None, False):
            self._cache = None
        else:
            self._cache = cache
        self._n_override = n
        self._planner = QueryPlanner(
            self._backends, graph=graph, matrix_max=matrix_max,
            default_samples=default_samples, only=backends,
        )

    # -- introspection --------------------------------------------------------

    @property
    def n(self):
        """The query id space ``[0, n)``, or ``None`` when unknowable."""
        if self._n_override is not None:
            return self._n_override
        if self.graph is not None:
            return self.graph.n
        for backend in self._backends:
            if backend.n is not None:
                return backend.n
        return None

    @property
    def generation(self):
        """The cache-token generation (int, or live value of the callable)."""
        return self._generation() if callable(self._generation) else self._generation

    @generation.setter
    def generation(self, value):
        self._generation = value

    def cache_token(self):
        """Generation + live backend line-up; cache keys and plans hang off it."""
        names = tuple(b.name for b in self._backends if b.available())
        return (self.generation, names)

    def cache_stats(self):
        """The result cache's counters (all zero when caching is off)."""
        if self._cache is None:
            return {"hits": 0, "misses": 0, "entries": 0, "max_entries": 0}
        return self._cache.stats()

    # -- the pipeline ---------------------------------------------------------

    def plan(self, node):
        """Plan ``node`` without executing it."""
        return self._planner.plan(node)

    def explain(self, node):
        """The plan for ``node`` as an indented text tree."""
        return self.plan(node).explain()

    def compile(self, node):
        """Bind ``node`` to this engine with a plan cached across runs."""
        return CompiledQuery(self, node)

    def run(self, node, deadline=None, plan=None, validated=False):
        """Validate, consult the cache, plan if needed, execute, store.

        ``validated=True`` skips id validation — only
        :class:`CompiledQuery` passes it, after memoising its own check.
        """
        if not validated:
            n = self.n
            if n is not None:
                node.validate(n)
        if self._cache is not None:
            token = self.cache_token()
            hit, value = self._cache.lookup(token, node.key())
            if hit:
                return value
        if plan is None:
            plan = self._planner.plan(node)
        result = self._execute(plan.root, deadline)
        if self._cache is not None:
            self._cache.store(token, node.key(), result)
        return result

    # -- execution ------------------------------------------------------------

    def _execute(self, plan_node, deadline):
        node = plan_node.node
        if isinstance(node, Batch):
            return self._execute_batch(plan_node, deadline)
        backend = plan_node.backend
        if isinstance(node, PAIR_OPS):
            return node.from_pair(*backend.pair(node.s, node.t,
                                                deadline=deadline))
        if isinstance(node, SingleSource):
            return backend.single_source(node.s, deadline=deadline)
        if isinstance(node, SetToSet):
            return backend.set_to_set(list(node.sources), list(node.targets),
                                      deadline=deadline)
        if isinstance(node, Relevance):
            return self._execute_relevance(node, backend, deadline)
        if isinstance(node, TopKBetweenness):
            return self._execute_topk(node, plan_node, deadline)
        raise PlanError(f"unknown query node {type(node).__name__}")

    def _execute_batch(self, plan_node, deadline):
        """Children grouped per backend: one ``pairs`` call per group.

        Grouping preserves child order in the answer tuple; only pair
        operators coalesce — other children run through their own plan
        nodes one by one. The grouping is a pure function of the plan's
        (immutable) children, so it is computed once and memoised on the
        plan node; a compiled all-``Count`` batch reduces to a single
        ``pairs`` call with no per-child work at all.
        """
        if plan_node.pair_groups is None:
            plan_node.pair_groups = self._group_batch(plan_node.children)
        singles, groups = plan_node.pair_groups
        children = plan_node.children
        if not singles and len(groups) == 1 and groups[0][3] is None:
            backend, _, pairs, _ = groups[0]
            return tuple(backend.pairs(pairs, deadline=deadline))
        results = [None] * len(children)
        for i, child in singles:
            results[i] = self._execute(child, deadline)
        for backend, indexes, pairs, splicers in groups:
            answers = backend.pairs(pairs, deadline=deadline)
            if splicers is None:  # all-Count group: answers pass through
                for i, answer in zip(indexes, answers):
                    results[i] = answer
            else:
                for i, splice, answer in zip(indexes, splicers, answers):
                    results[i] = answer if splice is None else splice(*answer)
        return tuple(results)

    @staticmethod
    def _group_batch(children):
        """Split batch children into non-pair singles and pair groups.

        Returns ``(singles, groups)``: ``singles`` is ``(index, plan
        child)`` rows executed individually; each group is ``(backend,
        indexes, pairs, splicers)`` with ``splicers`` ``None`` when every
        member is a plain :class:`Count` (whose answer needs no
        projection), else per-index ``from_pair`` methods.
        """
        singles = []
        grouped = {}
        for i, child in enumerate(children):
            if isinstance(child.node, PAIR_OPS):
                grouped.setdefault(id(child.backend),
                                   (child.backend, []))[1].append(i)
            else:
                singles.append((i, child))
        groups = []
        for backend, indexes in grouped.values():
            pairs = [(children[i].node.s, children[i].node.t)
                     for i in indexes]
            splicers = tuple(
                None if type(children[i].node) is Count
                else children[i].node.from_pair
                for i in indexes
            )
            if not any(splicers):
                splicers = None
            groups.append((backend, tuple(indexes), pairs, splicers))
        return tuple(singles), tuple(groups)

    def _execute_relevance(self, node, backend, deadline):
        answers = backend.pairs([(node.source, v) for v in node.candidates],
                                deadline=deadline)
        scored = [(v, dist, count)
                  for v, (dist, count) in zip(node.candidates, answers)]
        scored.sort(key=lambda row: (row[1], -row[2], row[0]))
        return tuple(scored)

    def _execute_topk(self, node, plan_node, deadline):
        if plan_node.strategy == "exact":
            scores = self._topk_exact(deadline)
        else:
            scores = self._topk_sampled(node, plan_node.backend, deadline)
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        if node.k is not None:
            ranked = ranked[:node.k]
        return tuple(ranked)

    def _topk_exact(self, deadline):
        from repro.applications.betweenness import brandes_betweenness

        if deadline is not None:
            deadline.check()
        centrality = brandes_betweenness(self.graph)
        return dict(enumerate(centrality))

    def _topk_sampled(self, node, backend, deadline):
        """The uniform pair-sampling estimator, driven by pair queries.

        Matches :func:`repro.applications.betweenness.sampled_betweenness`
        call for call — same rng sequence, same accumulation order — so a
        pinned ``(samples, seed)`` reproduces the pre-query-layer numbers
        exactly, on every exact backend.
        """
        from repro.utils.rng import ensure_rng

        n = self.n
        if n is None:
            raise PlanError(
                "sampled top-k betweenness needs a known vertex count; "
                "pass n= to QueryEngine"
            )
        targets = (list(node.vertices) if node.vertices is not None
                   else list(range(n)))
        totals = {v: 0.0 for v in targets}
        if n < 2:
            return totals
        samples = node.samples or self._planner.default_samples
        rng = ensure_rng(node.seed)
        for _ in range(samples):
            s = rng.randrange(n)
            t = rng.randrange(n)
            while t == s:
                t = rng.randrange(n)
            for v in targets:
                totals[v] += _pair_dependency(backend, s, t, v, deadline)
        scale = (n * (n - 1) / 2.0) / samples
        return {v: total * scale for v, total in totals.items()}


def _pair_dependency(backend, s, t, v, deadline):
    """``δ_st(v)`` from at most three backend pair queries.

    The short-circuit order mirrors
    :func:`repro.applications.betweenness.pair_dependency` exactly.
    """
    if v == s or v == t:
        return 0.0
    dist_st, sigma_st = backend.pair(s, t, deadline=deadline)
    if sigma_st == 0:
        return 0.0
    dist_sv, sigma_sv = backend.pair(s, v, deadline=deadline)
    if sigma_sv == 0 or dist_sv >= dist_st:
        return 0.0
    dist_vt, sigma_vt = backend.pair(v, t, deadline=deadline)
    if sigma_vt == 0 or dist_sv + dist_vt != dist_st:
        return 0.0
    return (sigma_sv * sigma_vt) / sigma_st
