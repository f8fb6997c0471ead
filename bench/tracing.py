"""Spans around calls into dualgrad's public functions, recorded from outside.

The tracer replaces each traced function in every ``dualgrad`` module
namespace that holds it (``phi_matrix`` is reached through
``dualgrad.transformer``, ``generate`` through ``dualgrad.optimizer``, and so
on), so calls made inside the library are recorded as well as the
benchmark's own.  Nothing under ``src/`` is edited; the originals are put
back when tracing ends.

A span is ``[name, parent, t0, t1, overhead, extra]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``overhead`` is the wrapper's own
bookkeeping time outside ``[t0, t1]`` and ``extra`` is a work count taken from
the call's arguments or result.  Spans stay in memory until the run ends.
"""

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from dualgrad.sequence import SegmentedSequence


def _phi_columns(args, kwargs, out):
    fmap, xs = args[0], args[1]
    return xs.shape[1], xs.shape[1] * fmap.feature_dim * 8


def _decode_candidates(args, kwargs, out):
    vocab = args[0]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    return (vocab.size if mask is None else len(mask),)


def _descend_steps(args, kwargs, out):
    return (args[2] if len(args) > 2 else kwargs["n_steps"],)


def _append_bytes(args, kwargs, out):
    return (out.tokens.nbytes,)


# (layer, owner, attribute, names of the extra counts, extractor).
# ``owner`` is a module name for functions and the class for methods.
TARGETS = (
    ("kernelmap.phi_matrix", "dualgrad.kernelmap", "phi_matrix",
     ("columns", "bytes_out"), _phi_columns),
    ("transformer.rope", "dualgrad.transformer", "rope", (), None),
    ("transformer.exact_attention", "dualgrad.transformer", "exact_attention", (), None),
    ("transformer.kernel_attention", "dualgrad.transformer", "kernel_attention", (), None),
    ("transformer.stack_trace", "dualgrad.transformer", "stack_trace", (), None),
    ("transformer.gqa_attention", "dualgrad.transformer", "gqa_attention", (), None),
    ("transformer.decode", "dualgrad.transformer", "decode",
     ("candidates",), _decode_candidates),
    ("transformer.generate", "dualgrad.transformer", "generate", (), None),
    ("sequence.append", SegmentedSequence, "append", ("bytes_copied",), _append_bytes),
    ("sequence.build", SegmentedSequence, "build", (), None),
    ("dual.build", "dualgrad.dual", "build_dual_attention", (), None),
    ("dual.build", "dualgrad.dual", "build_dual_transformer", (), None),
    ("dual.build", "dualgrad.dual", "build_dual_stack", (), None),
    ("dual.build", "dualgrad.dual", "build_dual_gqa", (), None),
    ("dual.descend", "dualgrad.dual", "descend", ("steps",), _descend_steps),
    ("metrics.score_output", "dualgrad.metrics", "score_output", (), None),
    ("optimizer.run_two_stage", "dualgrad.optimizer", "run_two_stage", (), None),
    ("optimizer.synth_generate", "dualgrad.optimizer", "synth_generate", (), None),
    ("optimizer.similarity", "dualgrad.optimizer", "similarity", (), None),
    ("optimizer.evaluate_demo", "dualgrad.optimizer", "evaluate_demo", (), None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
EXTRAS = {t[0]: t[3] for t in TARGETS if t[3]}


class Tracer:
    ROOT = "bench.op"  # the span the benchmark opens around each op

    def __init__(self):
        self.spans: list = []
        self._open = [-1]

    def wrap(self, name, fn, extra=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            idx = len(spans)
            span = [name, stack[-1], 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span[2], span[3] = t0, t1
            if extra is not None:
                span[5] = extra(args, kwargs, out)
            span[4] = (t0 - enter) + (perf_counter() - t1)
            return out

        return traced

    def call(self, name, fn):
        """Run ``fn()`` inside a span of its own."""
        return self.wrap(name, fn)()

    @contextmanager
    def patched(self):
        """Route every traced function through a span while the block runs."""
        undo = []
        try:
            for layer, owner, attr, _, extra in TARGETS:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self.wrap(layer, raw.__func__, extra))
                    else:
                        new = self.wrap(layer, raw, extra)
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                orig = getattr(sys.modules[owner], attr)
                new = self.wrap(layer, orig, extra)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if name != "dualgrad" and not name.startswith("dualgrad."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            undo.append((mod, key, orig))
                            setattr(mod, key, new)
            yield self
        finally:
            for holder, attr, orig in reversed(undo):
                setattr(holder, attr, orig)


def summarize(spans):
    """Per-layer calls, self time, inclusive time and extra counts.

    Self time is a span's duration minus what its direct children cover,
    the children's own bookkeeping included, so the self times of all spans
    plus the bookkeeping add up to the time of the top-level spans.
    """
    covered = [0.0] * len(spans)
    for name, parent, t0, t1, ovh, _ in spans:
        if parent >= 0:
            covered[parent] += (t1 - t0) + ovh
    table = defaultdict(lambda: defaultdict(float))
    for i, (name, parent, t0, t1, _, extra) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (t1 - t0) - covered[i]
        row["total_s"] += t1 - t0
        if extra is not None:
            for key, value in zip(EXTRAS[name], extra):
                row[key] += value
    return table
