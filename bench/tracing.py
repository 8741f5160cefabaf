"""Span tracing of mwrelay's public functions, from outside the package.

``Tracer.install`` replaces each traced function at every attribute of
an ``mwrelay`` module (or class) that holds it, so calls through names
that other modules imported (``capacity.mutual_info``, ``codec.stream``,
...) are seen too.  Each call records a span (name, start, end, parent,
op) in memory; ``close`` puts the originals back.  A tracer can be
installed again and keeps its spans.  Spans assume one thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter

# Traced name -> (module, class or None, attribute).
TRACED = {
    name: (name.split(".")[0], None, name.split(".")[1])
    for name in (
        "gf.rank", "gf.mat_mul", "gf.solve_linear", "gf.random_matrix",
        "rng.stream",
        "channel.mutual_info", "channel.sample_uplink_noise", "channel.sample_downlink",
        "codec.make_block_codes", "codec.uplink_round", "codec.encode_uplink",
        "codec.relay_decode_sum", "codec.build_v", "codec.candidate_set",
        "codec.user_decode_word", "codec.recover_messages",
        "schedule.build_table", "shuffle.run_shuffle",
        "capacity.max_min_downlink", "capacity.fdfp_feasible",
        "lp.solve_lp",
        "sim.run_trials", "sim.sum_decode_trials",
    )
}
TRACED["codec.codeword"] = ("codec", "DownlinkCodebook", "codeword")
TRACED["capacity.report"] = ("capacity", "RegionEvaluator", "report")

ROOT = "bench.op"


# Work counts taken from a traced call's arguments or result.
def _relay_candidates(args, kwargs, out):
    code, up = args[1], args[3]
    return up.field.order ** code.k


COUNTS = {
    "codec.relay_decode_sum": ("relay_candidates", _relay_candidates),
    "codec.candidate_set": ("candidate_words", lambda a, kw, out: out.words.shape[0]),
    "shuffle.run_shuffle": ("swaps", lambda a, kw, out: len(out[1])),
}

_MARK = "__bench_traced__"


def _modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "mwrelay" or n.startswith("mwrelay.")]


def wrapped_attributes() -> list[str]:
    """Attributes of mwrelay modules and classes that still hold a wrapper."""
    found = []
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if hasattr(val, _MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type) and val.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items() if hasattr(v, _MARK)]
    return found


class Tracer:
    """Span recorder; ``with tracer:`` wraps the functions for the block."""

    def __init__(self):
        self.names = list(TRACED) + [ROOT]
        self.spans: list = []  # (name index, start, end, parent index, op)
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._saved: list = []  # (holder, attribute, original)

    def install(self) -> None:
        self.absent = []
        try:
            for idx, name in enumerate(TRACED):
                self._install(idx, name)
        except BaseException:
            self.close()
            raise

    def _install(self, idx: int, name: str) -> None:
        mod_name, cls_name, attr = TRACED[name]
        mod = sys.modules.get(f"mwrelay.{mod_name}")
        owner = getattr(mod, cls_name, None) if cls_name else mod
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = self._wrap(idx, name, original)
        holders = [owner] if cls_name else [
            m for m in _modules() if any(v is original for v in vars(m).values())
        ]
        for holder in holders:
            for key, val in list(vars(holder).items()):
                if val is original:
                    self._saved.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def _wrap(self, idx: int, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent, self._op)
            if count is not None:
                try:
                    counts[count[0]] += count[1](args, kwargs, out)
                except (AttributeError, IndexError, TypeError):
                    counts["count_errors"] += 1
            return out

        setattr(wrapper, _MARK, name)
        return wrapper

    def op(self, op_id: int, fn, *args):
        """Run ``fn(*args)`` as the root span of op ``op_id``."""
        self._op = op_id
        return self._wrap(len(TRACED), ROOT, fn)(*args)

    def close(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()

    # -- analysis ---------------------------------------------------------------

    def totals(self):
        """Per name: calls and self seconds (span minus direct children)."""
        child = [0.0] * len(self.spans)
        for idx, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for k, (idx, start, end, _, _) in enumerate(self.spans):
            name = self.names[idx]
            calls[name] += 1
            self_s[name] += end - start - child[k]
        return calls, self_s

    def child_calls(self, name: str, parent_name: str) -> int:
        """Calls of ``name`` made directly from ``parent_name``."""
        idx, pidx = self.names.index(name), self.names.index(parent_name)
        return sum(
            1 for i, _, _, parent, _ in self.spans
            if i == idx and parent >= 0 and self.spans[parent][0] == pidx
        )

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header, then [name, start, end, parent, op]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for idx, start, end, parent, op in self.spans:
                fh.write(f"[{idx},{start:.9f},{end:.9f},{parent},{op}]\n")
