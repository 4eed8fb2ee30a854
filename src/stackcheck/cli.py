"""Pipeline orchestration and the command-line front door.

For every input listing: parse, rebuild the CFG, then build one state
space per analysis root (descending through user calls, so a callee is
walked in its callers' context; the instructions before the first header
form a function too), check every property on each space, and aggregate
per-property verdicts keeping the shortest counterexample. Violated
properties are traced back to sinks; with --patch the sinks are
rewritten and with --validate the original and patched images are
executed on the derived (or random) inputs.

A binary is classified vulnerable iff at least one property is violated.
Exit codes: 0 clean, 1 vulnerabilities found, 2 errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import MalformedData, checker, ltl, patcher, validator
from .effects import EffectsOracle, load_buffer_pins, load_libc_db
from .frontend import (LIBRARY, USER, MalformedLine, DuplicateFunction, ProgramImage,
                       build_bcfg, entry_point, parse_disassembly)
from .memstace import Config, MemStaCe, build_memstace, dump_memstace
from .patcher import NoSinkFound, NoTemplate, load_templates

SCHEMA_VERSION = 1
# a property file that raises one of these is an input error, not an internal one
PROPERTY_ERRORS = (ltl.PropertySyntaxError, ltl.UnknownOperator, ltl.UnsupportedFragment,
                   ltl.UnboundVariable, ltl.VariableKindError, UnicodeDecodeError)


class EmptyListing(Exception):
    """A listing with no instruction: nothing to analyse, so no verdict."""


class PropertyResult(NamedTuple):
    name: str
    status: str
    cwes: list[str]
    vacuous: bool = False
    root: str | None = None
    trace: checker.Trace | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "cwes": self.cwes,
            "vacuous": self.vacuous,
            "root": self.root,
            "trace": self.trace.to_json() if self.trace else None,
            "trace_text": self.trace.render() if self.trace else None,
        }


class Report:
    __slots__ = ("binary", "status", "roots", "properties", "sinks", "patches",
                 "validations", "notes", "warnings", "truncated", "timings", "error",
                 "patched_image")

    def __init__(self, binary: str, status: str = "clean", error: str | None = None):
        self.binary = binary
        self.status = status
        self.roots: list[str] = []
        self.properties: list[PropertyResult] = []
        self.sinks: list[dict] = []
        self.patches: list[dict] = []
        self.validations: list[dict] = []
        self.notes: list[str] = []
        self.warnings: list[str] = []
        self.truncated = False
        self.timings: dict = {}
        self.error = error
        self.patched_image: ProgramImage | None = None

    @property
    def vulnerable(self) -> bool:
        return any(p.status == checker.VIOLATED for p in self.properties)

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "binary": self.binary,
            "status": self.status,
            "roots": self.roots,
            "properties": [p.to_json() for p in self.properties],
            "sinks": self.sinks,
            "patches": self.patches,
            "validations": self.validations,
            "notes": self.notes,
            "warnings": self.warnings,
            "truncated": self.truncated,
            "timings": self.timings,
            "error": self.error,
        }


def analyze_image(image: ProgramImage, name: str, cfg: Config, *,
                  patch: bool = False, validate: bool = False,
                  patch_all: bool = False,
                  export_memstace: str | None = None) -> Report:
    report = Report(binary=name)
    t0 = time.perf_counter()
    deadline = t0 + cfg.timeout if cfg.timeout is not None else None

    bcfg = build_bcfg(image)
    oracle = EffectsOracle(image, bcfg, cfg, deadline)
    monitors = ltl.load_monitors(cfg.properties_path)
    # a property's own tags win over those of the bundled property it overrides
    cwe_db = checker.load_cwe_map() | {m.name: list(m.cwes) for m in monitors if m.cwes}
    report.warnings.extend(image.warnings)
    report.warnings.extend(bcfg.warnings)
    for lp in oracle.loops:
        if not lp.summarized:
            why = "irreducible loop" if lp.irreducible else "loop with no exit"
            report.notes.append(f"{why} at {lp.entry:#x} in "
                                f"{lp.function!r}; body walked without a summary")
    for addr, callee in image.callees.items():
        sym = image.instructions[addr].target_symbol()
        if callee.kind == LIBRARY and sym is None:
            report.notes.append(f"indirect/unresolved call at {addr:#x} treated as external sink")
        elif callee.kind == USER and sym and sym.endswith("@plt"):
            report.warnings.append(
                f"call at {addr:#x} names {sym} but its target {callee.target:#x} is in user "
                f"function {image.function_of(callee.target)!r}; it descends as a user call")

    b0 = time.perf_counter()
    spaces = build_root_spaces(image, oracle, cfg, deadline)
    build_elapsed = time.perf_counter() - b0
    report.roots = list(spaces)
    for fn_name, space in spaces.items():
        if space is None:
            report.notes.append("timeout during state-space construction")
            report.truncated = True
            break
        report.notes.extend(space.notes)
        report.truncated = report.truncated or space.truncated
        if export_memstace:
            dump_memstace(space, f"{export_memstace}.{fn_name}")
        # every function the root walks: the root and the callees it enters
        walked = [fn_name] + [c.name for c in _user_calls(image, space)]
        for fn in dict.fromkeys(walked):
            body = image.function_body(fn) if fn in image.functions else None
            if body and not any(i.mnemonic == "push" for i in body[:4]):
                report.notes.append(f"function {fn!r} lacks a standard prologue; "
                                    "base-register checks are vacuous there")

    # one BFS per root for all properties; the deadline is checked between
    # roots and inside each search, and a root left unchecked (or unbuilt,
    # or whose search the deadline cut) makes every property it could still
    # violate inconclusive
    v0 = time.perf_counter()
    per_root: dict[str, list[checker.Verdict]] = {}
    unchecked = None
    for fn_name, space in spaces.items():
        if space is None or (deadline and time.perf_counter() > deadline):
            unchecked = fn_name
            break
        per_root[fn_name] = checker.check(space, monitors, deadline)
        if any(v.timed_out for v in per_root[fn_name]):
            unchecked = fn_name
            break

    violations: list[tuple[PropertyResult, list]] = []     # each with its shortest path
    for k, monitor in enumerate(monitors):
        best: checker.Verdict | None = None
        best_root = None
        any_inconclusive = unchecked is not None
        vacuous_all = True
        vnotes: list[str] = []
        for fn_name, verdicts in per_root.items():
            verdict = verdicts[k]
            vnotes.extend(verdict.vacuity_notes)
            if verdict.status == checker.VIOLATED:
                vacuous_all = False
                if best is None or len(verdict.path) < len(best.path):
                    best, best_root = verdict, fn_name
            elif verdict.status == checker.INCONCLUSIVE:
                any_inconclusive = True
            if verdict.status == checker.HOLDS and not verdict.vacuous:
                vacuous_all = False
        cwes = checker.map_cwe(monitor.name, db=cwe_db, warnings=report.warnings)
        if best is not None:
            result = PropertyResult(name=monitor.name, status=checker.VIOLATED,
                                    cwes=cwes, root=best_root, trace=best.trace)
            violations.append((result, best.path))
        elif any_inconclusive:
            result = PropertyResult(name=monitor.name, status=checker.INCONCLUSIVE,
                                    cwes=cwes)
            if unchecked is not None:
                vnotes.append(f"timeout before checking {monitor.name!r} on root "
                              f"{unchecked!r}")
        else:
            result = PropertyResult(name=monitor.name, status=checker.HOLDS,
                                    cwes=cwes, vacuous=vacuous_all and bool(spaces))
        report.notes.extend(dict.fromkeys(vnotes))
        report.properties.append(result)

    verify_elapsed = time.perf_counter() - v0
    inconclusive = report.truncated or any(
        p.status == checker.INCONCLUSIVE for p in report.properties)
    report.status = "vulnerable" if report.vulnerable else (
        "inconclusive" if inconclusive else "clean")

    # sinks for violated properties
    sink_map: dict[int, patcher.SinkSite] = {}
    for result, path in violations:
        try:
            sink = patcher.locate_sink(path, image)
        except NoSinkFound:
            report.notes.append(
                f"{result.name}: violation has no call/loop sink; report-only")
            continue
        merged = sink_map.get(sink.address)
        cwes = tuple(sorted(set(result.cwes) | set(merged.cwes if merged else ())))
        sink_map[sink.address] = patcher.SinkSite(
            address=sink.address, function=sink.function, callee=sink.callee,
            kind=sink.kind, cwes=cwes)

    if patch_all:
        templated = {t.target for t in load_templates(cfg.templates_path)}
        if not cfg.enable_scanf_patch:
            templated.discard("scanf")
        for addr, callee in image.callees.items():
            if callee.kind == LIBRARY and callee.name in templated and addr not in sink_map:
                sink_map[addr] = patcher.SinkSite(address=addr, function=image.function_of(addr),
                                                  callee=callee.name, kind="call")

    report.sinks = [{
        "address": s.address, "function": s.function, "callee": s.callee,
        "kind": s.kind, "cwes": list(s.cwes),
    } for s in sorted(sink_map.values(), key=lambda s: s.address)]

    if patch or validate or patch_all:
        _patch_and_validate(report, image, sink_map, oracle, cfg, validate=validate,
                            deadline=deadline)

    report.notes = list(dict.fromkeys(report.notes))
    report.warnings = list(dict.fromkeys(report.warnings))
    report.timings = {
        "build_s": round(build_elapsed, 6),
        "verify_s": round(verify_elapsed, 6),
        "total_s": round(time.perf_counter() - t0, 6),
    }
    return report


def build_root_spaces(image: ProgramImage, oracle: EffectsOracle, cfg: Config,
                      deadline: float | None = None) -> dict[str, MemStaCe | None]:
    """{root: state space}, in the order the roots are analysed: functions
    no user call targets, then the rest, each in entry order, never a
    `__patch_*` trampoline. A function is a root unless an earlier root's
    complete (not truncated) space has a user call edge to its entry. A
    root the deadline stops before its build maps to None and ends the
    dict. Each space keeps only the frame bytes the properties can read."""
    called = {c.target for c in image.callees.values()}
    spaces: dict[str, MemStaCe | None] = {}
    entered: set[int] = set()
    decoded: dict = {}      # instruction records shared by every root's build
    horizon = ltl.frame_horizon(ltl.load_monitors(cfg.properties_path))
    for _, entry, fn in sorted((e in called, e, fn) for fn, e in image.functions.items()):
        if entry in entered or fn.startswith("__patch_"):
            continue
        if deadline and time.perf_counter() > deadline:
            spaces[fn] = None
            break
        oracle.set_root(entry)
        space = spaces[fn] = build_memstace(image, oracle, cfg, entry, deadline=deadline,
                                            decoded=decoded, horizon=horizon)
        if not space.truncated:
            entered.update(c.target for c in _user_calls(image, space))
    return spaces


def _user_calls(image: ProgramImage, space: MemStaCe) -> list:
    """The callee records of the user calls a space's transitions make."""
    return [image.callees[lbl.address] for _, lbl, _ in space.transitions if lbl.calls == USER]


def _patch_and_validate(report: Report, image: ProgramImage,
                        sink_map: dict, oracle: EffectsOracle,
                        cfg: Config, *, validate: bool, deadline: float | None) -> None:
    """Plan every sink, apply all the plans in one rewrite, then validate
    each planned sink on the patched image, every run stopping at
    `deadline`."""
    templates = load_templates(cfg.templates_path)
    plans = []
    for addr in sorted(sink_map):
        sink = sink_map[addr]
        if sink.kind != "call":
            report.notes.append(f"sink at {addr:#x} is a loop; no template, report-only")
            continue
        oracle.set_root(entry_point(image))
        effect = oracle.call_effect(addr)
        if effect.opaque:
            # fall back to the sink's own function as the emulation root
            oracle.set_root(image.functions[sink.function])
            effect = oracle.call_effect(addr)
        frame_dest = patcher.dest_in_frame(oracle.bcfg, addr, oracle.spec(addr))
        try:
            plan = patcher.select_template(sink, effect, frame_dest, templates,
                                           enable_scanf=cfg.enable_scanf_patch)
        except NoTemplate as exc:
            report.notes.append(f"sink at {addr:#x}: {exc}")
            continue
        plans.append((plan, effect))
    if not plans:
        return
    patched = report.patched_image = patcher.apply_trampolines(image, [p for p, _ in plans])
    report.patches = [{
        "sink": plan.sink.address,
        "callee": plan.sink.callee,
        "template": plan.template.name,
        "mode": plan.template.mode,
        "bound": plan.bound,
        "trampoline": plan.trampoline_label,
        "return_address": plan.return_address,
    } for plan, _ in plans]
    if not validate:
        return
    runs: dict = {}     # whole-program outcomes shared by every sink's validation
    for plan, effect in plans:
        vr = validator.validate_patch(image, patched, effect.concrete_input, cfg, runs,
                                      deadline)
        report.validations.append({
            "sink": plan.sink.address,
            "input_source": vr.input_source,
            "input_bytes": vr.input_used.decode("latin-1"),
            "success": vr.success,
            "original": {"status": vr.original.status, "cause": vr.original.cause},
            "patched": {"status": vr.patched.status, "cause": vr.patched.cause},
            "notes": vr.notes,
        })


def analyze(paths: list[str], cfg: Config | None = None, *, patch: bool = False,
            validate: bool = False, patch_all: bool = False,
            out_dir: str | None = None,
            export_memstace: str | None = None) -> list[Report]:
    cfg = cfg or Config()
    reports = []
    for path in paths:
        name = Path(path).stem
        try:
            image = parse_disassembly(Path(path).read_text(encoding="utf-8"))
            if not image.instructions:
                raise EmptyListing("listing has no instructions")
            report = analyze_image(image, name, cfg, patch=patch, validate=validate,
                                   patch_all=patch_all, export_memstace=export_memstace)
        except (MalformedLine, DuplicateFunction, EmptyListing, MalformedData,
                OSError, *PROPERTY_ERRORS) as exc:
            report = Report(binary=name, status="error", error=str(exc))
        except Exception as exc:    # a failure ends this binary's analysis, not the batch
            tb = exc.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            report = Report(binary=name, status="error",
                            error=f"internal error in {tb.tb_frame.f_code.co_name}: "
                                  f"{type(exc).__name__}: {exc}")
        if out_dir and report.patched_image is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.patched.s").write_text(report.patched_image.emit(),
                                                   encoding="utf-8")
        reports.append(report)
    return reports


def _truth_table(ground_truth) -> dict[str, bool]:
    """{binary: vulnerable} from {binary: bool} or {binary: {"vulnerable": bool}};
    raises ValueError for any other shape."""
    if not isinstance(ground_truth, dict):
        raise ValueError("ground truth must be a JSON object keyed by binary name")
    table = {}
    for name, entry in ground_truth.items():
        vulnerable = entry.get("vulnerable") if isinstance(entry, dict) else entry
        if not isinstance(vulnerable, bool):
            raise ValueError(f"ground truth for {name!r} is neither a bool nor an "
                             'object with a boolean "vulnerable"')
        table[name] = vulnerable
    return table


def report_metrics(reports: list[Report], ground_truth: dict) -> dict:
    """Confusion matrix and the four derived metrics; `ground_truth` takes
    either shape `_truth_table` accepts.

    Classification: vulnerable iff at least one property is violated.
    """
    ground_truth = _truth_table(ground_truth)
    tp = fn = fp = tn = 0
    for r in reports:
        truth = ground_truth.get(r.binary)
        if truth is None:
            continue
        flagged = r.vulnerable
        if truth and flagged:
            tp += 1
        elif truth and not flagged:
            fn += 1
        elif not truth and flagged:
            fp += 1
        else:
            tn += 1
    total = tp + fn + fp + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp, "fn": fn, "fp": fp, "tn": tn,
        "accuracy": (tp + tn) / total if total else 0.0,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def _render_text(report: Report) -> str:
    lines = [f"== {report.binary}: {report.status}"]
    if report.error:
        lines.append(f"  error: {report.error}")
    for p in report.properties:
        mark = {"holds": "ok ", "violated": "VIOLATED", "inconclusive": "???"}[p.status]
        extra = f" ({', '.join(p.cwes)})" if p.status == "violated" and p.cwes else ""
        vac = " [vacuous]" if p.vacuous and p.status == "holds" else ""
        lines.append(f"  [{mark}] {p.name}{extra}{vac}")
        if p.trace is not None:
            lines.extend("    " + ln for ln in p.trace.render().splitlines())
    for s in report.sinks:
        lines.append(f"  sink: {s['callee'] or 'loop'} at 0x{s['address']:x} in {s['function']}")
    for p in report.patches:
        lines.append(f"  patch: {p['template']} ({p['mode']}, bound={p['bound']}) "
                     f"at 0x{p['sink']:x} -> {p['trampoline']}")
    for v in report.validations:
        lines.append(f"  validation at 0x{v['sink']:x}: "
                     f"original={v['original']['status']} patched={v['patched']['status']} "
                     f"success={v['success']}")
    for n in report.notes:
        lines.append(f"  note: {n}")
    return "\n".join(lines)


def _positive(kind: type):
    """argparse type: a `kind` value above zero."""
    def positive(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value
    positive.__name__ = kind.__name__   # argparse names it in "invalid int value"
    return positive


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="stackcheck",
        description="Detect, patch and validate stack buffer overflows in "
                    "disassembled x86-64 programs.")
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="run the full pipeline on listings")
    pa.add_argument("paths", nargs="+")
    pa.add_argument("--props", help="property file extending/overriding the bundled set")
    pa.add_argument("--templates", help="patch template file or directory")
    pa.add_argument("--libc-db", help="libc function database file")
    pa.add_argument("--buffers", help="sidecar JSON pinning buffer sizes")
    pa.add_argument("--max-states", type=_positive(int), default=4096)
    pa.add_argument("--max-loop-iters", type=_positive(int), default=64)
    pa.add_argument("--max-input-len", type=_positive(int), default=4096)
    pa.add_argument("--step-budget", type=_positive(int), default=200_000)
    pa.add_argument("--atomic-writes", action="store_true",
                    help="one transition per written byte")
    pa.add_argument("--export-memstace", metavar="PATH",
                    help="dump each state space as PATH.<fn>.json/.dot")
    pa.add_argument("--patch", action="store_true", help="rewrite flagged sinks")
    pa.add_argument("--patch-all", action="store_true",
                    help="also rewrite non-flagged calls that have templates")
    pa.add_argument("--enable-scanf-patch", action="store_true",
                    help="opt in to the bounded-width scanf template")
    pa.add_argument("--validate", action="store_true",
                    help="execute original and patched images on crash inputs")
    pa.add_argument("--out", help="directory for patched listings")
    pa.add_argument("--report", choices=["json", "text"], default="text")
    pa.add_argument("--timeout", type=_positive(float), default=None,
                    help="seconds per binary")
    pa.add_argument("--ground-truth", help="JSON {binary: bool} or "
                    '{binary: {"vulnerable": bool}} for batch metrics')
    pa.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    truth = None
    if args.ground_truth:
        try:
            truth = _truth_table(json.loads(Path(args.ground_truth).read_text(encoding="utf-8")))
        except (OSError, ValueError) as exc:
            print(f"stackcheck: --ground-truth {args.ground_truth}: {exc}", file=sys.stderr)
            return 2

    cfg = Config(max_states=args.max_states, max_loop_iters=args.max_loop_iters,
                 max_input_len=args.max_input_len, step_budget=args.step_budget,
                 atomic_writes=args.atomic_writes, timeout=args.timeout,
                 seed=args.seed, properties_path=args.props,
                 templates_path=args.templates, libc_db_path=args.libc_db,
                 buffers_path=args.buffers,
                 enable_scanf_patch=args.enable_scanf_patch)
    # a user file that cannot be read fails before any binary is read
    for flag, path, load in (("--props", args.props, ltl.load_monitors),
                             ("--templates", args.templates, load_templates),
                             ("--libc-db", args.libc_db, load_libc_db),
                             ("--buffers", args.buffers, load_buffer_pins)):
        try:
            if path is not None:
                load(path)
        except (OSError, MalformedData, *PROPERTY_ERRORS) as exc:
            print(f"stackcheck: {flag} {path}: {exc}", file=sys.stderr)
            return 2
    reports = analyze(args.paths, cfg, patch=args.patch or bool(args.out),
                      validate=args.validate, patch_all=args.patch_all,
                      out_dir=args.out, export_memstace=args.export_memstace)

    payload = [r.to_json() for r in reports]
    metrics = report_metrics(reports, truth) if truth is not None else None

    try:
        if args.report == "json":
            doc = {"reports": payload}
            if metrics is not None:
                doc["metrics"] = metrics
            json.dump(doc, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for r in reports:
                print(_render_text(r))
            if metrics is not None:
                print(f"== metrics: {json.dumps(metrics, sort_keys=True)}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head` does): stop writing, and
        # send what is still buffered to devnull, so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)

    if any(r.status == "error" for r in reports):
        return 2
    if any(r.vulnerable for r in reports):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
