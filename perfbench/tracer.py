"""Span recorder for the traced benchmark run.

Each target function is replaced by a recording wrapper in every
``convexattn`` module namespace that binds it (the modules import names
with ``from .x import f``, so patching only the defining module would
miss the callers) and, for methods, on the class. ``restore`` puts the
originals back. Spans are kept in flat in-memory arrays while the run
is going; nothing is written until the run ends.
"""

import functools
import sys
import time
from array import array

import numpy as np

# (module, attribute path, index of the argument whose leading dimension
# is reported as rows, or None). Methods count ``self`` as argument 0.
TARGETS = (
    ("dataio", "synth_generate", None),
    ("dataio", "save_csv", None),
    ("dataio", "load_csv", None),
    ("dataio", "Dataset.stacked", None),
    ("features", "patchify", None),
    ("features", "rff_transform", 0),
    ("projections", "simplex_project_rows", 0),
    ("projections", "nuclear_ball_project", None),
    ("model", "batch_class_scores", 0),
    ("model", "predict", None),
    ("model", "features_for", None),
    ("model", "class_scores", None),
    ("model", "serialize", None),
    ("model", "deserialize", None),
    ("losses", "hinge_subgradient", 0),
    ("losses", "squared_gradient", 0),
    ("losses", "hinge_loss", 0),
    ("losses", "squared_loss", 0),
    ("losses", "one_hot", 0),
    ("trainer", "train", None),
    ("trainer", "evaluate", 1),
    ("trainer", "kfold_evaluate", None),
    ("numutil", "check_finite", None),
    ("numutil", "RngStream.integers", None),
    ("numutil", "svd_thin", None),
)

PACKAGE = "convexattn"


class Tracer:
    """Records (name, start, end, parent) per call of each target.

    ``start`` and ``end`` are ``perf_counter_ns`` readings; ``parent``
    is the index of the enclosing span, -1 at the top. While
    ``recording`` is false the wrappers call straight through, so the
    benchmark's own correctness checks do not enter the counts.
    """

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path, _ in TARGETS]
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rows = array("q")
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.recording = False
        self.nuclear_active = 0
        self.trained = []  # bundles returned by trainer.train

    # -- installing and removing the wrappers ----------------------------

    def install(self):
        modules = [
            m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for sid, (mod, path, rows_arg) in enumerate(TARGETS):
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(sid, orig, rows_arg))
                continue
            orig = getattr(owner, path)
            wrapper = self._wrap(sid, orig, rows_arg)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, orig))

    def restore(self):
        """Put every original back; returns the names still wrapped."""
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self._patched
            if vars(owner)[attr] is not orig
        ]
        self._patched = []
        return left

    def _wrap(self, sid, fn, rows_arg):
        tracer = self
        name = self.names[sid]

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(sid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.rows.append(0 if rows_arg is None else np.shape(args[rows_arg])[0])
            tracer.start.append(0)
            tracer.end.append(0)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            tracer._observe(name, args, out)
            return out

        return span

    def _observe(self, name, args, out):
        # runs after the span closed; the few microseconds land in the
        # caller's self time
        if name == "projections.nuclear_ball_project":
            A = np.atleast_2d(np.asarray(args[0], dtype=float))
            self.nuclear_active += not np.array_equal(out, A)
        elif name == "trainer.train":
            self.trained.append(out[0])

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per-name calls, rows and self seconds, plus derived counts."""
        n = len(self.start)
        sid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        dur = (
            np.frombuffer(self.end, dtype=np.int64, count=n)
            - np.frombuffer(self.start, dtype=np.int64, count=n)
        )
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        rows = np.frombuffer(self.rows, dtype=np.int64, count=n)
        # children never overlap (one thread), so the part of a span its
        # children cover is the sum of their durations
        child = np.zeros(n, dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(sid, minlength=k)
        row_sum = np.bincount(sid, weights=rows, minlength=k)
        self_s = np.bincount(sid, weights=self_ns, minlength=k) / 1e9
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.rows"] = int(row_sum[i])
            out[f"{name}.self_s"] = float(self_s[i])
        train_id = self.names.index("trainer.train")
        draw_id = self.names.index("numutil.RngStream.integers")
        in_train = has_parent & (sid == draw_id)
        in_train[in_train] = sid[parent[in_train]] == train_id
        out["trainer.steps"] = int(in_train.sum())
        nuc = out["projections.nuclear_ball_project.calls"]
        out["projections.nuclear_active_ratio"] = self.nuclear_active / nuc if nuc else 0.0
        return out

    def save(self, path):
        """Write the raw spans as a compressed npz archive."""
        n = len(self.start)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            start_ns=np.frombuffer(self.start, dtype=np.int64, count=n),
            end_ns=np.frombuffer(self.end, dtype=np.int64, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            rows=np.frombuffer(self.rows, dtype=np.int64, count=n),
        )
