"""The benchmark workloads: seeded inputs, timed items, correctness gates.

``statespace_cli`` runs the ``Statespace`` and ``Cli`` batches as one
(``Combined``); ``check`` runs the ``Check`` batch.  Each workload
turns ``--seed`` into a fixed batch of items (``setup``), runs one item
per call (``run``), shrinks each output to what the gate needs
(``condense``, outside the item's timing, so big results are not kept
alive across the pass), and judges the first pass's outputs against
references that share no code with the library (``gate``).  The library
is reached only through its public module functions, looked up on the
module at call time, so the tracer's wrappers see every call.

References: async and sync successors are recomputed here straight from
the generated tables; async attractors, SCCs and reachability come from
networkx, sync cycles from a direct walk of the recomputed map; the CLI
facts are the ones the README states.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

# Level compressions used for generated mappings (ternary -> Boolean).
CHECK_COMPRESSIONS = ((0, 1, 1), (0, 0, 1))
CHECK_NOISE = 0.15  # share of concrete table rows drawn freely in ``check``
FAN_IN = 2  # inputs per entity of every generated network
SURJECTIVE_3_TO_2 = ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 0))

# Verdicts of the ``check`` batch for the default seed (1) at full size,
# one character per triple ("1" = holds); any change is a wrong verdict.
CHECK_VERDICTS = {
    1: "00101000110010011100100001000000100011001001110010001000000011001100"
       "01001000110011000010110011100100000100000100110010100111100011001000"
       "01010000000010",
}


# ---------------------------------------------------------------------------
# Independent reference semantics over plain tables


def random_tables(rng: random.Random, n: int):
    """Levels, inputs and tables of a random ternary network."""
    levels = (2,) * n
    inputs = tuple(tuple(sorted(rng.sample(range(n), FAN_IN))) for _ in range(n))
    tables = tuple(
        {key: rng.randrange(3) for key in itertools.product(range(3), repeat=FAN_IN)}
        for _ in range(n)
    )
    return levels, inputs, tables


def spec_of(model):
    """The plain-table view of a library model (data only, no semantics)."""
    return (
        model.max_levels,
        tuple(nb.inputs for nb in model.neighbourhoods),
        tuple(t.rows for t in model.tables),
    )


def ref_states(spec):
    return itertools.product(*(range(m + 1) for m in spec[0]))


def ref_async_succ(spec, state):
    _levels, inputs, tables = spec
    out = []
    for i, ins in enumerate(inputs):
        if not ins:
            continue
        level = tables[i][tuple(state[j] for j in ins)]
        if level != state[i]:
            out.append(state[:i] + (level,) + state[i + 1:])
    return out


def ref_sync_succ(spec, state):
    _levels, inputs, tables = spec
    return tuple(
        tables[i][tuple(state[j] for j in ins)] if ins else state[i]
        for i, ins in enumerate(inputs)
    )


def ref_async_attractors(spec):
    """(graph, attractor set, finiteness) of the async graph, via networkx."""
    import networkx as nx

    succ = {s: ref_async_succ(spec, s) for s in ref_states(spec)}
    graph = nx.DiGraph()
    graph.add_nodes_from(succ)
    graph.add_edges_from((u, v) for u, vs in succ.items() for v in vs)
    found = {("point", frozenset({u}), True) for u, vs in succ.items() if not vs}
    finite = True
    for comp in nx.strongly_connected_components(graph):
        if len(comp) < 2:
            continue
        members = frozenset(comp)
        terminal = all(v in members for u in members for v in succ[u])
        found.add(("scc", members, terminal))
        finite = finite and all(len(succ[u]) == 1 for u in members)
    return graph, found, finite


def ref_sync_attractors(spec):
    """Cycles of the sync map: walk from each state until a state seen before."""
    succ = {s: ref_sync_succ(spec, s) for s in ref_states(spec)}
    walk_of: dict = {}
    found = set()
    for walk, state in enumerate(succ):
        path = []
        while state not in walk_of:
            walk_of[state] = walk
            path.append(state)
            state = succ[state]
        if walk_of[state] == walk:  # this walk closed a cycle nobody found before
            cycle = frozenset(path[path.index(state):])
            found.add(("point" if len(cycle) == 1 else "cycle", cycle, True))
    return found


def attractor_triples(result):
    return {(a.kind, a.states, a.terminal) for a in result.attractors}


def digest(value) -> str:
    """A short fingerprint of a value with a deterministic ``repr``."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def attractor_digest(triples) -> str:
    return digest(sorted((kind, term, tuple(sorted(states))) for kind, states, term in triples))


def label(state) -> str:
    return "".join(str(v) for v in state)


def merged_image(slots, path):
    out = []
    for s in path:
        image = tuple(lvl if slot is None else slot[lvl] for slot, lvl in zip(slots, s))
        if not out or out[-1] != image:
            out.append(image)
    return tuple(out)


def _check(ok: bool, message: str, problems: list) -> bool:
    """Return ``ok``; when it is false, record ``message`` in ``problems``."""
    if not ok:
        problems.append(message)
    return ok


class Workload:
    """Defaults for a workload whose items each count as one instance."""

    latency = None  # noun of the per-item latency percentiles, if reported

    def instances(self, item) -> int:
        return 1

    def rate_scale(self, size) -> int:
        return 1

    def condense(self, out):
        return out

    def same(self, a, b) -> bool:
        return a == b

    def gate_batch(self, outputs, seed, size, problems) -> list:
        return []

    def split(self, items, size):
        """``(workload, item indices, items, size)`` for each part of the batch."""
        return [(self, list(range(len(items))), items, size)]


# ---------------------------------------------------------------------------
# statespace


class Statespace(Workload):
    """Big random ternary networks: graph build, SCCs, attractors, reachability."""

    name = "statespace"
    noun = "models"
    rate_name, rate_unit = "states_per_s", "states/s"
    sizes = {"entities": 9, "models": 4, "pairs": 4}
    smoke_sizes = {"entities": 4, "models": 2, "pairs": 2}

    def setup(self, lib, seed, size, workdir):
        rng = random.Random(f"statespace:{seed}")
        items = []
        for k in range(size["models"]):
            spec = random_tables(rng, size["entities"])
            model = build_model(lib, f"S{k}", spec)
            pairs = [
                tuple(tuple(rng.randrange(3) for _ in range(size["entities"])) for _ in "ab")
                for _ in range(size["pairs"])
            ]
            items.append((spec, model, pairs))
        return items

    def rate_scale(self, size) -> int:
        return 3 ** size["entities"]

    def run(self, lib, item):
        _spec, model, pairs = item
        sem = lib.semantics
        diags = lib.model.validate(model)
        g_async = sem.build_state_graph(model, sem.ASYNC)
        g_sync = sem.build_state_graph(model, sem.SYNC)
        att_async = sem.attractors(g_async)
        att_sync = sem.attractors(g_sync)
        finite = lib.traces.trace_set_is_finite(g_async)
        reach = [sem.reachable(g_async, a, b) for a, b in pairs]
        return diags, len(g_async.nodes), len(g_sync.nodes), att_async, att_sync, finite, reach

    def condense(self, out):
        diags, n_async, n_sync, att_async, att_sync, finite, reach = out
        return (diags, n_async, n_sync, attractor_digest(attractor_triples(att_async)),
                attractor_digest(attractor_triples(att_sync)), finite, reach)

    def gate(self, lib, item, out, problems, rng):
        import networkx as nx

        spec, _model, pairs = item
        diags, n_async, n_sync, att_async, att_sync, finite, reach = out
        size = 3 ** len(spec[0])
        graph, ref_async, ref_finite = ref_async_attractors(spec)
        ok = _check(diags == [], f"validate reported {diags}", problems)
        ok &= _check(n_async == n_sync == size, "graph misses states", problems)
        ok &= _check(att_async == attractor_digest(ref_async),
                      "async attractors differ from networkx", problems)
        ok &= _check(att_sync == attractor_digest(ref_sync_attractors(spec)),
                      "sync attractors differ from networkx", problems)
        ok &= _check(finite == ref_finite, "trace-set finiteness is wrong", problems)
        for (a, b), (found, path) in zip(pairs, reach):
            expected = nx.has_path(graph, a, b)
            ok &= _check(found == expected, f"reachable({a}, {b}) is wrong", problems)
            if found and a != b:
                steps_ok = (
                    path[0] == a and path[-1] == b
                    and all(graph.has_edge(u, v) for u, v in zip(path, path[1:]))
                    and len(path) - 1 == nx.shortest_path_length(graph, a, b)
                )
                ok &= _check(steps_ok, f"reachable({a}, {b}) witness is wrong", problems)
        return ok


def build_model(lib, name, spec):
    m = lib.model
    levels, inputs, tables = spec
    return m.Mvn(
        name,
        tuple(m.Entity(f"E{i}", lvl) for i, lvl in enumerate(levels)),
        tuple(m.Neighbourhood(i, ins) for i, ins in enumerate(inputs)),
        tuple(m.NextStateTable(i, dict(rows)) for i, rows in enumerate(tables)),
    )


# ---------------------------------------------------------------------------
# check


def check_triple(lib, rng: random.Random, name: str, n: int, mutate: bool):
    """(candidate, concrete, mapping) with three of ``n`` entities compressed.

    Concrete outputs mostly respect one abstract table, so candidate
    enumeration stays small; ``CHECK_NOISE`` of them are free, which
    creates the choice points.  With ``mutate`` the candidate gets one
    changed row.
    """
    m, a = lib.model, lib.abstraction
    inputs = [tuple(sorted(rng.sample(range(n), FAN_IN))) for _ in range(n)]
    compressed = set(rng.sample(range(n), 3))
    maps = [rng.choice(CHECK_COMPRESSIONS) if i in compressed else (0, 1, 2) for i in range(n)]
    pre = [[[lvl for lvl in range(3) if mp[lvl] == v] for v in range(max(mp) + 1)] for mp in maps]
    tables = []
    for i in range(n):
        rows = {}
        for u in itertools.product(*(range(len(pre[j])) for j in inputs[i])):
            target = pre[i][rng.randrange(len(pre[i]))]
            for x in itertools.product(*(pre[j][u[k]] for k, j in enumerate(inputs[i]))):
                rows[x] = rng.choice(target) if rng.random() >= CHECK_NOISE else rng.randrange(3)
        tables.append(m.NextStateTable(i, rows))
    mv2 = m.Mvn(
        name,
        tuple(m.Entity(f"X{i}", 2) for i in range(n)),
        tuple(m.Neighbourhood(i, inputs[i]) for i in range(n)),
        tuple(tables),
    )
    phi = a.AbstractionMapping(
        mv2.max_levels,
        tuple(a.StateMapping(i, maps[i]) if i in compressed else None for i in range(n)),
    )
    mv1 = rng.choice(a.enumerate_candidates(mv2, phi).models)
    if mutate:
        i = rng.randrange(n)
        rows = dict(mv1.tables[i].rows)
        key = rng.choice(sorted(rows))
        rows[key] = rng.choice([v for v in range(mv1.entities[i].max_level + 1) if v != rows[key]])
        mv1 = m.Mvn(
            mv1.name + "m", mv1.entities, mv1.neighbourhoods,
            tuple(m.NextStateTable(j, rows) if j == i else mv1.tables[j] for j in range(n)),
        )
    return mv1, mv2, phi


class Check(Workload):
    """Small checker instances: one ``check_asyn_abs`` call per item."""

    name = "check"
    noun = "instances"
    rate_name, rate_unit, latency = "instances_per_s", "1/s", "instance"
    sizes = {"triples": 150}
    smoke_sizes = {"triples": 6}
    witness_paths = 3
    witness_steps = 5

    def setup(self, lib, seed, size, workdir):
        # Sizes and mutations are split evenly rather than drawn, so the
        # batch's cost does not swing with how many big instances a seed got.
        rng = random.Random(f"check:{seed}")
        return [check_triple(lib, rng, f"C{k}", n=3 + k % 2, mutate=bool(k // 2 % 2))
                for k in range(size["triples"])]

    def run(self, lib, item):
        return lib.checker.check_asyn_abs(*item)

    def condense(self, result):
        return result.holds, result.stats, digest(result.witness)

    def gate(self, lib, item, out, problems, rng):
        mv1, mv2, phi = item
        holds = out[0]
        ok = True
        try:
            expected = lib.oracle.oracle_check(mv1, mv2, phi)
        except lib.errors.UnsupportedError:
            expected = None
        if expected is not None:
            ok &= _check(expected == holds, f"{mv1.name}: verdict disagrees with oracle",
                          problems)
        if not holds:
            return ok
        # The surviving family is big, so the timed pass keeps only the
        # verdict; the gate recomputes the family to lift witnesses through.
        result = lib.checker.check_asyn_abs(mv1, mv2, phi)
        ok &= _check(self.condense(result) == out, f"{mv1.name}: check is not repeatable",
                      problems)
        family = result.family
        abstract, concrete = spec_of(mv1), spec_of(mv2)
        slots = [None if s is None else s.table for s in phi.slots]
        states = sorted(ref_states(abstract))
        for _ in range(self.witness_paths):
            path = [rng.choice(states)]
            for _ in range(self.witness_steps):
                succ = ref_async_succ(abstract, path[-1])
                if not succ:
                    break
                path.append(rng.choice(sorted(succ)))
            lifted = lib.checker.witness_path(family, tuple(path))
            steps_ok = all(v in ref_async_succ(concrete, u) for u, v in zip(lifted, lifted[1:]))
            ok &= _check(steps_ok and merged_image(slots, lifted) == tuple(path),
                          f"{mv1.name}: witness for {path} is not a concrete lift",
                          problems)
        return ok

    def gate_batch(self, outputs, seed, size, problems, recorded_verdicts=CHECK_VERDICTS):
        """Items whose verdict differs from the recorded default-seed verdicts."""
        recorded = recorded_verdicts.get(seed) if size == self.sizes else None
        if recorded is None:
            return []
        got = "".join("1" if isinstance(out, tuple) and out[0] else "0" for out in outputs)
        bad = [k for k, (a, b) in enumerate(zip(got, recorded)) if a != b]
        if bad:
            problems.append(f"verdicts of items {bad} differ from the recorded ones")
        return bad


# ---------------------------------------------------------------------------
# cli


def model_text(name, spec) -> str:
    """The DSL text of a generated network, written without the library."""
    levels, inputs, tables = spec
    names = [f"E{i}" for i in range(len(levels))]
    out = [f"mvn {name}"]
    out += [f"entity {names[i]} : 0..{lvl}" for i, lvl in enumerate(levels)]
    out += [f"neighbourhood {names[i]} = [{', '.join(names[j] for j in ins)}]"
            for i, ins in enumerate(inputs)]
    for i, rows in enumerate(tables):
        out.append(f"table {names[i]}:")
        out += [f"  {' '.join(map(str, key))} -> {rows[key]}" for key in sorted(rows)]
    return "\n".join(out) + "\n"


def mapping_text(slots) -> str:
    return "".join(
        f"E{i}: identity\n" if slot is None
        else f"E{i}: {', '.join(f'{l}->{v}' for l, v in enumerate(slot))}\n"
        for i, slot in enumerate(slots)
    )


class Cli(Workload):
    """Every command through ``mvnabs.cli.main`` on fixture and generated files."""

    name = "cli"
    noun = "commands"
    rate_name, rate_unit, latency = "commands_per_s", "1/s", "command"
    sizes = {"entities": 8, "nets": 3}
    smoke_sizes = {"entities": 3, "nets": 1}

    def setup(self, lib, seed, size, workdir):
        rng = random.Random(f"cli:{seed}")
        fx = lib.fixtures
        files = {
            "pl2": fx.PL2_SOURCE, "apl2": fx.APL2_SOURCE, "rho": fx.RHO_CRO_SOURCE,
            "mtrp": fx.MTRP_SOURCE, "atrp": fx.ATRP_SOURCE, "phi": fx.PHI_TRP_SOURCE,
        }
        nets = []
        for k in range(size["nets"]):
            spec = random_tables(rng, size["entities"])
            compressed = rng.sample(range(size["entities"]), max(1, size["entities"] // 2))
            slots = [rng.choice(SURJECTIVE_3_TO_2) if i in compressed else None
                     for i in range(size["entities"])]
            files[f"net{k}"] = model_text(f"NET{k}", spec)
            files[f"netmap{k}"] = mapping_text(slots)
            nets.append((spec, slots))
        workdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, text in files.items():
            is_map = key in ("rho", "phi") or key.startswith("netmap")
            paths[key] = str(workdir / f"{key}.{'map' if is_map else 'mvn'}")
            Path(paths[key]).write_text(text, encoding="utf-8")
        p = paths
        cands = str(workdir / "candidates")
        items = [
            (["validate", p["pl2"]], 0, _expect_text("PL2: ok (2 entities)\n")),
            (["validate", p["mtrp"]], 0, _expect_text("MTRP: ok (4 entities)\n")),
            (["graph", p["pl2"], "--dot", "-"], 0, _expect_dot_nodes(6)),
            (["graph", p["mtrp"], "--semantics", "sync", "--dot", "-"], 0, _expect_dot_nodes(36)),
            (["attractors", p["pl2"], "--json"], 0, _expect_pl2_attractors),
            (["attractors", p["mtrp"], "--labels"], 0, _expect_nonempty),
            (["traces", p["pl2"], "--json"], 0, _expect_trace_count(10)),
            (["traces", p["mtrp"]], 0, _expect_nonempty),
            (["abstract", p["pl2"], p["rho"], "--traces"], 0, _expect_nonempty),
            (["abstract", p["mtrp"], p["phi"], "--states"], 0, _expect_lines(36)),
            (["candidates", p["mtrp"], p["phi"], "--out-dir", cands], 0,
             _expect_prefix("4 candidates written")),
            (["check", p["apl2"], p["pl2"], p["rho"], "--witness"], 0, _expect_prefix("APL2 abstracts PL2: holds")),
            (["check", p["atrp"], p["mtrp"], p["phi"], "--json"], 0, _expect_json_holds),
            # The bundled reduction is candidate 0; candidate 3 differs from it
            # and is refuted, which exercises exit code 1 and the witness print.
            (["check", str(Path(cands) / "candidate_3.mvn"), p["mtrp"], p["phi"], "--witness"], 1,
             _expect_contains("failed at abstract state")),
            (["oracle-check", p["apl2"], p["pl2"], p["rho"]], 0, _expect_prefix("APL2 abstracts PL2: holds")),
            (["oracle-check", p["atrp"], p["mtrp"], p["phi"]], 0, _expect_prefix("ATRP abstracts MTRP: holds")),
        ]
        for k, (spec, slots) in enumerate(nets):
            net, netmap = p[f"net{k}"], p[f"netmap{k}"]
            items += [
                (["validate", net], 0, _expect_text(f"NET{k}: ok ({size['entities']} entities)\n")),
                (["graph", net, "--dot", "-"], 0, functools.partial(_net_dot, spec)),
                (["attractors", net, "--json"], 0, functools.partial(_net_attractors, spec)),
                (["abstract", net, netmap, "--states"], 0,
                 functools.partial(_net_states, spec, slots)),
            ]
        return items

    def run(self, lib, item):
        argv = item[0]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def same(self, a, b) -> bool:
        # stderr is left out: Python shows a warning once per location.
        return a[:2] == b[:2]

    def gate(self, lib, item, out, problems, rng):
        argv, code, expect = item
        got, stdout, stderr = out
        if got != code:
            problems.append(f"mvnabs {' '.join(argv[:1])}: exit {got}, expected {code}: {stderr}")
            return False
        return _check(expect(stdout), f"mvnabs {' '.join(argv)}: wrong output", problems)


def _expect_text(text):
    return lambda out: out == text


def _expect_prefix(text):
    return lambda out: out.startswith(text)


def _expect_contains(text):
    return lambda out: text in out


def _expect_lines(count):
    return lambda out: len(out.splitlines()) == count


def _expect_nonempty(out):
    return bool(out.strip())


def _expect_dot_nodes(count):
    return lambda out: sum(1 for line in out.splitlines() if line.endswith('";') and "->" not in line) == count


def _expect_pl2_attractors(out):
    sets = {(a["kind"], frozenset(a["states"])) for a in json.loads(out)["attractors"]}
    return sets == {("point", frozenset({"10"})), ("scc", frozenset({"01", "02"}))}


def _expect_trace_count(count):
    return lambda out: len(json.loads(out)["traces"]) == count


def _expect_json_holds(out):
    return json.loads(out)["holds"] is True


def _net_dot(spec, out):
    """The DOT export of the generated network equals the recomputed graph."""
    nodes, edges = set(), set()
    for line in out.splitlines()[1:-1]:
        parts = line.strip().rstrip(";").split(" -> ")
        if len(parts) == 1:
            nodes.add(parts[0].strip('"'))
        else:
            edges.add((parts[0].strip('"'), parts[1].strip('"')))
    ref_edges = {(label(s), label(t)) for s in ref_states(spec) for t in ref_async_succ(spec, s)}
    return nodes == {label(s) for s in ref_states(spec)} and edges == ref_edges


def _net_attractors(spec, out):
    _graph, ref, _finite = ref_async_attractors(spec)
    want = {(kind, frozenset(label(s) for s in states), term) for kind, states, term in ref}
    got = {(a["kind"], frozenset(a["states"]), a["terminal"]) for a in json.loads(out)["attractors"]}
    return got == want


def _net_states(spec, slots, out):
    lines = [f"{label(s)} -> {label(merged_image(slots, [s])[0])}" for s in ref_states(spec)]
    return out == "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# combined batches


class Combined(Workload):
    """The batches of several workloads run as one; each item is tagged with its part.

    A part's ``gate_batch`` is not called, so only parts without one are combined.
    """

    def __init__(self, name, noun, *parts):
        self.name, self.noun, self.parts = name, noun, parts
        self.sizes = {w.name: w.sizes for w in parts}
        self.smoke_sizes = {w.name: w.smoke_sizes for w in parts}

    def setup(self, lib, seed, size, workdir):
        return [(k, item) for k, w in enumerate(self.parts)
                for item in w.setup(lib, seed, size[w.name], workdir and workdir / w.name)]

    def instances(self, item) -> int:
        return self.parts[item[0]].instances(item[1])

    def run(self, lib, item):
        return item[0], self.parts[item[0]].run(lib, item[1])

    def condense(self, out):
        return out[0], self.parts[out[0]].condense(out[1])

    def same(self, a, b) -> bool:
        return a[0] == b[0] and self.parts[a[0]].same(a[1], b[1])

    def gate(self, lib, item, out, problems, rng):
        return self.parts[item[0]].gate(lib, item[1], out[1], problems, rng)

    def split(self, items, size):
        out = []
        for k, part in enumerate(self.parts):
            indices = [i for i, item in enumerate(items) if item[0] == k]
            out.append((part, indices, [items[i][1] for i in indices], size[part.name]))
        return out


WORKLOADS = {w.name: w for w in (
    Combined("statespace_cli", "items", Statespace(), Cli()),
    Check(),
)}


def gate_self_test(lib) -> list[str]:
    """Feed each gate a wrong output; a gate that accepts it is broken."""
    import dataclasses

    errors = []
    rng = random.Random(0)
    w = Statespace()
    item = w.setup(lib, 1, w.smoke_sizes, None)[0]
    out = list(w.run(lib, item))
    out[3] = dataclasses.replace(out[3], attractors=out[3].attractors[1:])
    if w.gate(lib, item, w.condense(out), [], rng):
        errors.append("statespace gate accepted a missing attractor")
    w = Cli()
    items = w.setup(lib, 1, w.smoke_sizes, Path(__file__).resolve().parent / "out" / "cli-work")
    if w.gate(lib, items[0], (1, "PL2: ok (2 entities)\n", ""), [], rng):
        errors.append("cli gate accepted a wrong exit code")
    if w.gate(lib, items[-1], (0, "000 -> 000\n", ""), [], rng):
        errors.append("cli gate accepted a wrong abstraction listing")
    w = WORKLOADS["check"]
    if w.gate_batch([(True,), (False,)], 1, w.sizes, [], {1: "00"}) != [0]:
        errors.append("check gate accepted a changed verdict")
    # APL2 abstracts PL2, and the oracle decides it (PL2 has 10 traces).
    fx = lib.fixtures
    item = (fx.apl2(), fx.pl2(), fx.rho_cro())
    out = w.condense(w.run(lib, item))
    if not w.gate(lib, item, out, [], rng):
        errors.append("check gate rejected a right verdict")
    if w.gate(lib, item, (not out[0],) + out[1:], [], rng):
        errors.append("check gate accepted a verdict the oracle refutes")
    stats = dataclasses.replace(out[1], iterations=out[1].iterations + 1)
    if w.gate(lib, item, (out[0], stats, out[2]), [], rng):
        errors.append("check gate accepted changed statistics on a holds verdict")
    return errors
