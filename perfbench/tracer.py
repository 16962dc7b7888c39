"""Outside-in tracing of penpath's layers inside one benchmark worker.

Nothing under src/ changes: the tracer replaces names in the namespaces
penpath looks them up from (`penpath.path.kkt_blocks`, `penpath.cli.run_path`,
the loss classes' methods, ...).  Every wrapped call pushes a frame on a
per-thread stack, so each call's self time is its duration minus the time of
the wrapped calls it made.  Calls are aggregated into a count, a total and
a self time per hook and thread; no per-call record is kept.

A hook whose target does not exist is listed in `missing_hooks` and skipped,
so a refactor that deletes a helper degrades the trace instead of breaking it.
"""

import threading
import time

# hook name -> layer.  A layer's self time is the sum of its hooks' self times.
LAYER_OF = {
    "problemspec.parse": "problemspec",
    "losses.value": "losses",
    "losses.gradient": "losses",
    "losses.hessian": "losses",
    "losses.dhessian": "losses",
    "losses.newton_start": "losses",
    "sweeplin.kkt_blocks": "sweeplin",
    "sweeplin.null_basis": "sweeplin",
    "sweeplin.factor": "sweeplin",
    "sweeplin.solve": "sweeplin",
    "odeint.integrate": "odeint",
    # the rhs callables are path.py's segment-context methods: their bodies
    # are KKT and path algebra (the nullspace reduced-Hessian products run
    # inline there), so their self time belongs to the path layer
    "odeint.rhs": "path",
    "odeint.locate": "odeint",
    "path.run_path": "path",
    "path.event_eval": "path",
    "path.beta_at": "path",
    "path.rho_grid": "path",
    "path.df_at": "path",
    "cli.job": "cli",
    "cli.cv_fold": "cli",
    # time the job's thread spends waiting for the fold pool; the folds'
    # own work is attributed to the layers it calls
    "cli.cv_pool": "wait",
}

LOSS_CLASSES = ("QuadraticLoss", "GlmLoss", "QuasiLoss", "LogConcaveLoss",
                "GaussianGraphicalLoss")
LOSS_METHODS = ("value", "gradient", "hessian", "dhessian")


class _ThreadState:
    def __init__(self):
        self.stack = []     # frames: [seconds spent in wrapped callees]
        self.stats = {}     # hook -> [calls, total seconds, self seconds]
        self.counts = {}    # counter -> number


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self.missing_hooks = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name, amount):
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + amount

    def wrap(self, name, fn):
        """`fn` with its calls timed under hook `name`."""
        state_of = self._state
        perf = time.perf_counter

        def traced(*args, **kwargs):
            state = state_of()
            stack = state.stack
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                rec = state.stats.get(name)
                if rec is None:
                    rec = state.stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[0]

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, replacement):
        """Replace owner.attr by replacement(original); list it if absent."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            label = getattr(owner, "__name__", repr(owner))
            self.missing_hooks.append(f"{label}.{attr}")
            return
        setattr(owner, attr, replacement(original))

    def install(self):
        """Hook penpath's public functions; call before the first job."""
        import penpath.cli
        import penpath.losses
        import penpath.odeint
        import penpath.path
        import penpath.sweeplin

        cli, path, odeint, sweeplin = penpath.cli, penpath.path, penpath.odeint, penpath.sweeplin
        plain = lambda name: lambda fn: self.wrap(name, fn)

        self.patch(cli, "parse_problem_spec", plain("problemspec.parse"))
        self.patch(cli, "run_path", lambda fn: self.wrap("path.run_path", self._counting_run_path(fn)))
        self.patch(cli, "ThreadPoolExecutor", self._pool_class)
        self.patch(path, "unconstrained_minimum", plain("losses.newton_start"))
        self.patch(path, "kkt_blocks", plain("sweeplin.kkt_blocks"))
        self.patch(path, "null_basis", plain("sweeplin.null_basis"))
        for module in (path, sweeplin):
            self.patch(module, "cho_factor", plain("sweeplin.factor"))
            self.patch(module, "cho_solve", plain("sweeplin.solve"))
        self.patch(path, "integrate", lambda fn: self.wrap("odeint.integrate", self._counting_integrate(fn)))
        self.patch(path, "EventSpec", self._event_factory)
        self.patch(odeint, "brentq", lambda fn: self.wrap("odeint.locate", self._counting_brentq(fn)))
        solution = path.PathSolution
        self.patch(solution, "beta_at", plain("path.beta_at"))
        self.patch(solution, "df_at", plain("path.df_at"))
        self.patch(solution, "rho_grid", lambda fn: self.wrap("path.rho_grid", self._counting_grid(fn)))
        for cls_name in LOSS_CLASSES:
            cls = getattr(penpath.losses, cls_name, None)
            if cls is None:
                self.missing_hooks.append(f"penpath.losses.{cls_name}")
                continue
            for method in LOSS_METHODS:
                if method in cls.__dict__:
                    self.patch(cls, method, plain(f"losses.{method}"))
        return self

    # -- hooks that also count ----------------------------------------------

    def _counting_run_path(self, run_path):
        def counted(*args, **kwargs):
            solution = run_path(*args, **kwargs)
            self.count("path.kinks", len(solution.kinks))
            self.count("path.segments", len(solution.segments))
            self.count("path.point_segments",
                       sum(1 for seg in solution.segments if seg.rho_span == 0.0))
            return solution
        return counted

    def _counting_integrate(self, integrate):
        def counted(rhs, *args, **kwargs):
            before = self._state().stats.get("odeint.rhs", (0,))[0]
            result = integrate(self.wrap("odeint.rhs", rhs), *args, **kwargs)
            calls = self._state().stats.get("odeint.rhs", (0,))[0] - before
            # scipy's RK45 evaluates rhs twice to start and six times per
            # attempted step, so attempts minus accepted steps are rejections
            self.count("odeint.steps_accepted", len(getattr(result, "steps", ())))
            self.count("odeint.step_attempts", max(calls - 2, 0) // 6)
            return result
        return counted

    def _counting_brentq(self, brentq):
        def counted(f, *args, **kwargs):
            def g(x, *fargs):
                self.count("odeint.locate_evals", 1)
                return f(x, *fargs)
            return brentq(g, *args, **kwargs)
        return counted

    def _counting_grid(self, rho_grid):
        def counted(*args, **kwargs):
            grid = rho_grid(*args, **kwargs)
            self.count("path.sample_points", len(grid))
            return grid
        return counted

    def _event_factory(self, event_spec):
        def make(func, direction=-1):
            return event_spec(self.wrap("path.event_eval", func), direction)
        return make

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __enter__(self):
                tracer._open_pool()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close_pool(self._max_workers)

            def map(self, fn, *iterables, **kwargs):
                return super().map(tracer.wrap("cli.cv_fold", fn), *iterables, **kwargs)

        return TracedPool

    def _open_pool(self):
        # The pool's lifetime is a frame on the job's thread, so the time the
        # job waits for its folds is not counted as the job's own work.
        state = self._state()
        state.stack.append([0.0, time.perf_counter()])

    def _close_pool(self, workers):
        state = self._state()
        child, start = state.stack.pop()
        duration = time.perf_counter() - start
        if state.stack:
            state.stack[-1][0] += duration
        rec = state.stats.setdefault("cli.cv_pool", [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        self.count("cli.cv_worker_s", duration * workers)

    # -- results --------------------------------------------------------------

    def snapshot(self):
        """Totals over every thread so far: (stats, counts)."""
        stats, counts = {}, {}
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, self_s) in state.stats.items():
                rec = stats.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total
                rec[2] += self_s
            for name, value in state.counts.items():
                counts[name] = counts.get(name, 0) + value
        return stats, counts
