"""In-memory spans around stackcheck's layer boundaries, and the per-layer
metrics computed from them.

`Tracer.install()` replaces public functions at the names their callers
look them up by (for example `stackcheck.cli.build_memstace`, the name
`analyze_image` calls) with wrappers that record a span: name, start, end,
parent span and listing. `uninstall()` restores the originals, so traced
and untraced passes can alternate in one process. A hook whose target no
longer exists is skipped and listed in `missing`, so a refactor of the
program degrades the traced run instead of breaking it.

`ltl.Monitor.step` runs once per (state x property) and is only counted:
a timed span there would inflate the checker time it is meant to explain.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter

# (module, attribute path, span name); `None` as span name counts calls only.
HOOKS = [
    ("stackcheck.cli", "analyze", "cli.analyze"),
    ("stackcheck.cli", "parse_disassembly", "frontend.parse"),
    ("stackcheck.cli", "build_bcfg", "frontend.cfg"),
    ("stackcheck.cli", "extract_user_functions", "frontend.functions"),
    ("stackcheck.cli", "build_memstace", "memstace.build"),
    ("stackcheck.effects", "EffectsOracle.__init__", "frontend.loops"),
    ("stackcheck.effects", "EffectsOracle.call_effect", "effects.oracle"),
    ("stackcheck.effects", "EffectsOracle.loop_effect", "effects.oracle"),
    ("stackcheck.effects", "emulate_call", "effects.emulate"),
    ("stackcheck.effects", "emulate_loop", "effects.emulate"),
    ("stackcheck.interp", "Machine.__init__", "interp.alloc"),
    ("stackcheck.interp", "Machine.fork", "interp.alloc"),
    ("stackcheck.interp", "Machine.run", "interp.run"),
    ("stackcheck.interp", "Machine.run_to", "interp.run"),
    ("stackcheck.checker", "check", "checker.check"),
    ("stackcheck.ltl", "Monitor.step", None),
    ("stackcheck.ltl", "load_bundled_properties", "ltl.compile"),
    ("stackcheck.ltl", "compile_monitor", "ltl.compile"),
    ("stackcheck.patcher", "locate_sink", "patcher.locate"),
    ("stackcheck.patcher", "select_template", "patcher.apply"),
    ("stackcheck.patcher", "apply_trampoline", "patcher.apply"),
    ("stackcheck.validator", "validate_patch", "validator.validate"),
    ("stackcheck.validator", "run", "validator.run"),
]

# spans whose interpreter steps are attributed to one context
STEP_CONTEXTS = {"effects.emulate": "interp.steps.emulate",
                 "validator.run": "interp.steps.validate"}


class Tracer:
    def __init__(self) -> None:
        # one row per span: [name, start, end, parent index or -1, listing]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.listing = ""
        self.missing: list[str] = []
        self._open: list[int] = []
        self._machines: list[list] = []      # per open step context: [(machine, base)]
        self._saved: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.listing])
        self._open.append(idx)
        if name in STEP_CONTEXTS:
            self._machines.append([])
        return idx

    def _end(self, idx: int) -> None:
        row = self.spans[idx]
        row[2] = time.perf_counter()
        self._open.pop()
        if row[0] in STEP_CONTEXTS:
            made = self._machines.pop()
            self.counts[STEP_CONTEXTS[row[0]]] += sum(m.steps - base for m, base in made)

    def _machine(self, machine, base: int) -> None:
        if self._machines:
            self._machines[-1].append((machine, base))

    def _after(self, path: str, result, emulations_before: int) -> None:
        """Counters read from a hooked call's result."""
        c = self.counts
        if path == "parse_disassembly":
            c["frontend.instructions"] += len(result.instructions)
        elif path == "build_memstace":
            c["memstace.states"] += len(result.states)
            c["memstace.edges"] += len(result.transitions)
            c["memstace.truncated_roots"] += bool(result.truncated)
        elif path in ("EffectsOracle.call_effect", "EffectsOracle.loop_effect"):
            c["effects.oracle_calls"] += 1
            c["effects.cache_hits"] += c["effects.emulations"] == emulations_before
        elif path.startswith("emulate_"):
            c["effects.emulations"] += 1
            c["effects.opaque"] += bool(result.opaque)
        elif path == "check":
            c["checker.checks"] += 1
        elif path == "apply_trampoline":
            c["patcher.patches"] += 1
        elif path == "run":
            c["validator.runs"] += 1
        elif path == "Machine.__init__":
            c["interp.machines"] += 1
        elif path == "Machine.fork":
            c["interp.forks"] += 1

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name in HOOKS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(path, name, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, path: str, name: str | None, orig):
        tracer = self
        if name is None:
            key = f"{path}.calls"

            @functools.wraps(orig)
            def counted(*args, **kwargs):
                tracer.counts[key] += 1
                return orig(*args, **kwargs)
            return counted

        steps_of = path.startswith("Machine.run")

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            before = tracer.counts["effects.emulations"]
            steps = args[0].steps if steps_of else 0
            idx = tracer._begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._end(idx)
                if steps_of:
                    tracer.counts["interp.run_steps"] += args[0].steps - steps
            if path == "Machine.__init__":
                tracer._machine(args[0], 0)
            elif path == "Machine.fork":
                tracer._machine(result, result.steps)
            tracer._after(path, result, before)
            return result
        return spanned

    # --- results -----------------------------------------------------------------

    def times(self) -> tuple[Counter, Counter]:
        """(inclusive, self) seconds per span name. Inclusive time counts only
        the outermost span of a name, so nested same-name spans are not
        counted twice."""
        incl: Counter = Counter()
        own: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            own[name] += dur
            if parent >= 0:
                own[self.spans[parent][0]] -= dur
            if not self._inside(parent, name):
                incl[name] += dur
        return incl, own

    def _inside(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == name:
                return True
            idx = self.spans[idx][3]
        return False

    def layer_metrics(self, listings: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as means per traced listing unless a ratio."""
        incl, own = self.times()
        c = self.counts
        n = max(listings, 1)
        wall = incl["cli.analyze"]

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "frontend.parse_s": (incl["frontend.parse"] / n, "s"),
            "frontend.cfg_s": ((incl["frontend.cfg"] + incl["frontend.functions"]
                                + incl["frontend.loops"]) / n, "s"),
            "frontend.instructions": (c["frontend.instructions"] / n, "count"),
            "ltl.compile_s": (incl["ltl.compile"] / n, "s"),
            "cli.self_s": (own["cli.analyze"] / n, "s"),
            "effects.emulate_self_s": (own["effects.emulate"] / n, "s"),
            "effects.oracle_calls": (c["effects.oracle_calls"] / n, "count"),
            "effects.emulations": (c["effects.emulations"] / n, "count"),
            "effects.cache_hit_ratio": (ratio(c["effects.cache_hits"],
                                              c["effects.oracle_calls"]), "ratio"),
            "effects.opaque": (c["effects.opaque"] / n, "count"),
            "effects.wall_share": (ratio(incl["effects.oracle"], wall), "ratio"),
            "interp.run_s": (incl["interp.run"] / n, "s"),
            "interp.alloc_s": (incl["interp.alloc"] / n, "s"),
            "interp.steps.emulate": (c["interp.steps.emulate"] / n, "count"),
            "interp.steps.validate": (c["interp.steps.validate"] / n, "count"),
            "interp.machines": (c["interp.machines"] / n, "count"),
            "interp.forks": (c["interp.forks"] / n, "count"),
            "interp.steps_per_s": (ratio(c["interp.run_steps"], incl["interp.run"]), "1/s"),
            "memstace.build_self_s": (own["memstace.build"] / n, "s"),
            "memstace.states": (c["memstace.states"] / n, "count"),
            "memstace.edges": (c["memstace.edges"] / n, "count"),
            "memstace.truncated_roots": (c["memstace.truncated_roots"] / n, "count"),
            "memstace.wall_share": (ratio(own["memstace.build"], wall), "ratio"),
            "checker.check_s": (incl["checker.check"] / n, "s"),
            "checker.checks": (c["checker.checks"] / n, "count"),
            "checker.us_per_state_property": (
                1e6 * ratio(incl["checker.check"], c["Monitor.step.calls"]), "us"),
            "checker.wall_share": (ratio(incl["checker.check"], wall), "ratio"),
            "ltl.monitor_steps": (c["Monitor.step.calls"] / n, "count"),
            "patcher.locate_s": (incl["patcher.locate"] / n, "s"),
            "patcher.apply_s": (incl["patcher.apply"] / n, "s"),
            "patcher.patches": (c["patcher.patches"] / n, "count"),
            "validator.validate_s": (incl["validator.validate"] / n, "s"),
            "validator.trials": (c["validator.runs"] / 2 / n, "count"),
            "trace.span_coverage": (1 - ratio(own["cli.analyze"], wall), "ratio"),
        }

    def dump(self, path) -> None:
        """Write every span, one JSON array per line, plus the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"counts": dict(self.counts), "missing": self.missing}) + "\n")
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")
