"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of eqctt with wrappers.  Modules
bind names with ``from .x import y``, so a wrapper replaces the name in every
loaded ``eqctt`` module that holds the original function, and in the site
records of ``presheaf.SITES``, or calls through those names would bypass it.

Spanned functions get a span per call entered from another layer; a call
from the function into itself is counted but not spanned, so recursive
layers such as ``eval_term`` and ``term_key`` cost one span per entry.  Hot
leaf functions are counted only.  Self time is a span's duration minus the
durations of its child spans.  Spans of the first traced pass stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from time import perf_counter

# (module, qualified name, extra measure, how to read it from (args, result))
SPANNED = (
    ("eqctt.parser", "parse_module", None),
    ("eqctt.typecheck", "check_module", None),
    ("eqctt.semantics", "eval_term", None),
    ("eqctt.semantics", "quote", None),
    ("eqctt.semantics", "convert", None),
    ("eqctt.semantics", "terms_equal", None),
    ("eqctt.semantics", "canonicalize_stuck_comp", None),
    ("eqctt.cof", "entails", None),
    ("eqctt.cof", "to_dnf", ("conjuncts", lambda a, r: len(r))),
    ("eqctt.kan", "comp_eval", None),
    ("eqctt.syntax", "term_key", None),
    ("eqctt.cubelab.cubes", "enumerate_hom", ("maps", lambda a, r: len(r))),
    ("eqctt.cubelab.cubes", "find_section", None),
    ("eqctt.cubelab.presheaf", "build_presheaf",
     ("action_entries", lambda a, r: sum(len(t) for t in r.action.values()))),
    ("eqctt.cubelab.presheaf", "quotient_by_group", None),
    ("eqctt.cubelab.presheaf", "iso_search", ("nodes", lambda a, r: r.nodes)),
    ("eqctt.cubelab.presheaf", "nondegenerate", None),
    ("eqctt.cubelab.simplicial", "triangulate", None),
    ("eqctt.cubelab.boxes", "enumerate_subpresheaves", None),
    ("eqctt.cubelab.boxes", "build_open_box", None),
    ("eqctt.cubelab.boxes", "enumerate_natural_maps",
     ("maps_found", lambda a, r: len(r))),
    ("eqctt.cubelab.boxes", "check_equivariant_lifting", None),
)

# (module, qualified name, (spanned layer, measure) or None): a counted call
# made directly inside a span of that layer also adds one to its measure
COUNTED = (
    ("eqctt.cubelab.presheaf", "FinPresheaf.act", None),
    ("eqctt.cubelab.cubes", "compose", None),
    ("eqctt.cubelab.boxes", "is_natural", None),
    # canonicalization builds each Sigma_k candidate with one transform
    ("eqctt.semantics", "sigma_transform",
     ("semantics.canonicalize_stuck_comp", "candidates")),
)

ROOT = "cli.main"


def layer_name(module: str, qualname: str) -> str:
    return module.rsplit(".", 1)[-1] + "." + qualname


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.extra: dict[str, int] = {}
        self._stack: list[list] = []  # [name id, start, child time, span id]
        self.recording = False
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.root_id = self._intern(ROOT)

    def _intern(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> list:
        stack = self._stack
        sid = -1
        if self.recording:
            sid = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        frame = [nid, 0.0, 0.0, sid]
        stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        nid, start, child, sid = frame
        dur = end - start
        self.self_s[nid] += dur - child
        self.total_s[nid] += dur
        if stack:
            stack[-1][2] += dur
        if sid >= 0:
            self.span_start[sid] = start
            self.span_end[sid] = end

    def root(self, call):
        """Run one verdict under a root span."""
        self.calls[self.root_id] += 1
        frame = self._open(self.root_id)
        try:
            return call()
        finally:
            self._close(frame)

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, fn, nid: int, extra):
        calls, stack = self.calls, self._stack
        opened, closed = self._open, self._close
        measure, read = extra if extra else (None, None)
        key = f"{self.names[nid]}.{measure}"
        tally = self.extra
        if measure:
            tally[key] = 0

        def wrapper(*args, **kwargs):
            calls[nid] += 1
            if stack and stack[-1][0] == nid:
                return fn(*args, **kwargs)
            frame = opened(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(frame)
            if measure:
                tally[key] += read(args, result)
            return result
        return wrapper

    def _counted(self, fn, nid: int, within):
        calls, stack = self.calls, self._stack
        if within is None:
            def wrapper(*args):
                calls[nid] += 1
                return fn(*args)
            return wrapper
        layer, measure = within
        owner = self.names.index(layer)
        key = f"{layer}.{measure}"
        tally = self.extra
        tally[key] = 0

        def wrapper(*args):
            calls[nid] += 1
            if stack and stack[-1][0] == owner:
                tally[key] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        for module, qualname, extra in SPANNED:
            self._patch(module, qualname, lambda fn, nid, e=extra:
                        self._spanned(fn, nid, e))
        for module, qualname, within in COUNTED:
            self._patch(module, qualname, lambda fn, nid, w=within:
                        self._counted(fn, nid, w))

    def _patch(self, module: str, qualname: str, make) -> None:
        # eqctt imports some modules lazily (semantics imports kan on the
        # first comp it evaluates), so load each one before patching
        mod = importlib.import_module(module)
        nid = self._intern(layer_name(module, qualname))
        if "." in qualname:  # a method: replace it on its class
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[attr]
            setattr(cls, attr, make(fn, nid))
            return
        fn = getattr(mod, qualname)
        wrapper = make(fn, nid)
        for name, m in list(sys.modules.items()):
            if name != "eqctt" and not name.startswith("eqctt."):
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)
        sites = getattr(sys.modules.get("eqctt.cubelab.presheaf"), "SITES", {})
        for site in sites.values():
            for field in ("maps", "identity", "compose", "split_epis"):
                if getattr(site, field) is fn:
                    object.__setattr__(site, field, wrapper)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Totals so far, by layer name."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_ms"] = self.self_s[nid] * 1e3
            out[f"{name}.ms"] = self.total_s[nid] * 1e3
        out.update(self.extra)
        return out

    def write_spans(self, path) -> int:
        """One JSON array per line: [id, parent, name, start_us, end_us]."""
        with open(path, "w") as fh:
            for sid in range(len(self.span_name)):
                fh.write(json.dumps([
                    sid, self.span_parent[sid], self.names[self.span_name[sid]],
                    round(self.span_start[sid] * 1e6, 1),
                    round(self.span_end[sid] * 1e6, 1)]) + "\n")
        return len(self.span_name)
