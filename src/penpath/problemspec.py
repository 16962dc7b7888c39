"""Problem specifications: JSON files describing a loss, penalties, options.

A spec is one JSON object with four keys:

    {
      "dimension": 4,
      "loss": {"kind": "quadratic", "target": [2.0, -1.0]},
      "constraints": [{"builder": "lasso"}],
      "options": {"mode": "direct", "rho_max": 50.0}
    }

Vectors and matrices may be given inline as JSON arrays or as paths to
headerless CSV files, resolved relative to the spec file.  Every block in
"constraints" may carry "dimension" (its width, default the problem
dimension) and "column" (its starting column); blocks are assembled on
disjoint column ranges and columns not covered by any block stay
unpenalized.  All validation errors raise SpecError before any solving
starts.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .constraints import (
    ConstraintSystem,
    concat,
    equalities,
    fused_lasso,
    graph_guided,
    isotone,
    lasso,
    shape,
    trend_filter,
)
from .errors import SpecError, UnsupportedLoss
from .losses import (
    FAMILIES,
    LINKS,
    VARIANCES,
    GaussianGraphicalLoss,
    GlmLoss,
    LogConcaveLoss,
    QuadraticLoss,
    QuasiLoss,
)
from .path import PathOptions

_TOP_KEYS = {"dimension", "loss", "constraints", "options"}
_LOSS_KINDS = ("quadratic", "glm", "quasi", "ggm", "logconcave")


@dataclass
class ProblemSpec:
    """Parsed and validated problem: model, penalties, solver options."""

    dimension: int
    model: object
    constraints: ConstraintSystem
    options: PathOptions
    samples_per_segment: int
    loss_kind: str
    n_observations: int
    heuristic_df: bool
    _design: Optional[np.ndarray] = field(default=None, repr=False)
    _response: Optional[np.ndarray] = field(default=None, repr=False)
    _loss_factory: Optional[object] = field(default=None, repr=False)

    @property
    def splittable(self):
        """Whether the loss decomposes over observation rows."""
        return self._loss_factory is not None

    def split_loss(self, row_indices):
        """Loss rebuilt on a subset of observation rows."""
        if not self.splittable:
            raise UnsupportedLoss(
                f"{self.loss_kind} loss has no per-observation rows to split"
            )
        idx = np.asarray(row_indices, dtype=int)
        return self._loss_factory(self._design[idx], self._response[idx])


def _fail(msg):
    raise SpecError(msg)


def _expect_mapping(obj, what):
    if not isinstance(obj, dict):
        _fail(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _take(mapping, key, what, required=True, default=None):
    if key not in mapping:
        if required:
            _fail(f"{what} is missing required key {key!r}")
        return default
    return mapping[key]


def _integer(value, what, least=1):
    """value, when it is an integer of at least `least` (1 or 0): a JSON
    boolean or fraction is refused, not rounded."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        sign = "positive" if least else "nonnegative"
        _fail(f"{what} must be a {sign} integer, got {json.dumps(value)}")
    return value


def _check_keys(mapping, allowed, what):
    extra = set(mapping) - set(allowed)
    if extra:
        _fail(f"{what} has unknown keys: {sorted(extra)}")


def _load_array(value, base_dir, what, ndim):
    if isinstance(value, str):
        path = (base_dir / value).resolve()
        if not path.is_file():
            _fail(f"{what}: file not found: {value}")
        try:
            arr = np.loadtxt(path, delimiter=",", ndmin=ndim)
        except ValueError as exc:
            _fail(f"{what}: could not parse {value} as numeric CSV ({exc})")
    else:
        try:
            arr = np.array(value, dtype=float, ndmin=ndim)
        except (TypeError, ValueError):
            _fail(f"{what} must be a numeric array or a CSV file path")
    if arr.ndim != ndim:
        _fail(f"{what} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        _fail(f"{what} contains non-finite values")
    return arr


def _vector(value, base_dir, what):
    return _load_array(value, base_dir, what, ndim=1)


def _matrix(value, base_dir, what):
    return _load_array(value, base_dir, what, ndim=2)


def _build_loss(entry, dim, base_dir):
    entry = _expect_mapping(entry, '"loss"')
    kind = _take(entry, "kind", '"loss"')
    if kind not in _LOSS_KINDS:
        _fail(f'unknown loss kind {kind!r}; expected one of {_LOSS_KINDS}')
    declared_n = entry.get("n_observations")
    if declared_n is not None:
        _integer(declared_n, '"n_observations"')
    try:
        model, n, design, response, factory = _loss_of_kind(kind, entry, base_dir)
    except (TypeError, ValueError) as exc:
        _fail(f"{kind} loss: {exc}")
    if model.dim != dim:
        _fail(
            f"loss dimension {model.dim} does not match declared dimension {dim}"
        )
    return model, kind, int(declared_n or n), design, response, factory


def _loss_of_kind(kind, entry, base_dir):
    """(model, default n_observations, design, response, factory) of a loss
    entry; the loss classes report bad data as ValueError or TypeError."""
    if kind == "quadratic":
        _check_keys(
            entry,
            ("kind", "target", "design", "response", "matrix", "linear", "n_observations"),
            "quadratic loss",
        )
        if "target" in entry:
            target = _vector(entry["target"], base_dir, '"target"')
            return QuadraticLoss.from_target(target), target.shape[0], None, None, None
        if "design" in entry or "response" in entry:
            design = _matrix(_take(entry, "design", "quadratic loss"), base_dir, '"design"')
            response = _vector(_take(entry, "response", "quadratic loss"), base_dir, '"response"')
            factory = QuadraticLoss.from_least_squares
            return factory(design, response), response.shape[0], design, response, factory
        a_mat = _matrix(_take(entry, "matrix", "quadratic loss"), base_dir, '"matrix"')
        b = _vector(_take(entry, "linear", "quadratic loss"), base_dir, '"linear"')
        return QuadraticLoss(a_mat, b), b.shape[0], None, None, None
    if kind in ("glm", "quasi"):
        allowed = ("kind", "design", "response", "scale", "n_observations")
        if kind == "glm":
            _check_keys(entry, allowed + ("family",), "glm loss")
        else:
            _check_keys(entry, allowed + ("link", "variance"), "quasi loss")
        design = _matrix(_take(entry, "design", f"{kind} loss"), base_dir, '"design"')
        response = _vector(_take(entry, "response", f"{kind} loss"), base_dir, '"response"')
        scale = float(entry.get("scale", 1.0))
        if kind == "glm":
            family = _take(entry, "family", "glm loss")
            if family not in FAMILIES:
                _fail(f"unknown glm family {family!r}; expected one of {sorted(FAMILIES)}")
            factory = lambda x, y: GlmLoss(x, y, family=family, scale=scale)
        else:
            link = _take(entry, "link", "quasi loss")
            variance = _take(entry, "variance", "quasi loss")
            if link not in LINKS:
                _fail(f"unknown quasi link {link!r}; expected one of {sorted(LINKS)}")
            if variance not in VARIANCES:
                _fail(
                    f"unknown quasi variance {variance!r}; "
                    f"expected one of {sorted(VARIANCES)}"
                )
            factory = lambda x, y: QuasiLoss(
                x, y, LINKS[link], VARIANCES[variance], scale=scale
            )
        return factory(design, response), response.shape[0], design, response, factory
    if kind == "ggm":
        _check_keys(entry, ("kind", "covariance", "n_observations"), "ggm loss")
        sigma = _matrix(_take(entry, "covariance", "ggm loss"), base_dir, '"covariance"')
        return GaussianGraphicalLoss(sigma), sigma.shape[0], None, None, None
    _check_keys(
        entry,
        ("kind", "samples", "support", "frequencies", "n_observations"),
        "logconcave loss",
    )
    if "samples" in entry:
        samples = _vector(entry["samples"], base_dir, '"samples"')
        return LogConcaveLoss.from_samples(samples), samples.shape[0], None, None, None
    support = _vector(_take(entry, "support", "logconcave loss"), base_dir, '"support"')
    freq = _vector(_take(entry, "frequencies", "logconcave loss"), base_dir, '"frequencies"')
    return LogConcaveLoss(support, freq), support.shape[0], None, None, None


def _widen(cs, p):
    if cs.dim == p:
        return cs
    pad = p - cs.dim
    v = np.hstack([cs.v_mat, np.zeros((cs.n_eq, pad))])
    w = np.hstack([cs.w_mat, np.zeros((cs.n_ineq, pad))])
    return ConstraintSystem(v, cs.d, w, cs.e)


def _build_block(entry, default_dim, base_dir, model):
    entry = _expect_mapping(entry, "constraint block")
    builder = _take(entry, "builder", "constraint block")
    width = _integer(entry.get("dimension", default_dim), 'constraint block "dimension"')
    plain = {"builder", "dimension", "column"}
    try:
        if builder == "lasso":
            _check_keys(entry, plain, "lasso block")
            return lasso(width)
        if builder == "fused_lasso":
            _check_keys(entry, plain, "fused_lasso block")
            return fused_lasso(width)
        if builder == "trend_filter":
            _check_keys(entry, plain | {"order"}, "trend_filter block")
            return trend_filter(width, order=_integer(entry.get("order", 3), '"order"', 0))
        if builder == "isotone":
            _check_keys(entry, plain | {"direction"}, "isotone block")
            return isotone(width, direction=entry.get("direction", "nondecreasing"))
        if builder == "shape":
            _check_keys(entry, plain | {"kind", "grid"}, "shape block")
            grid = entry.get("grid")
            if grid is not None:
                grid = _vector(grid, base_dir, '"grid"')
            return shape(width, kind=entry.get("kind", "concave"), grid=grid)
        if builder == "graph_guided":
            _check_keys(entry, plain | {"edges", "ratio"}, "graph_guided block")
            edges = _take(entry, "edges", "graph_guided block")
            if not isinstance(edges, list):
                _fail('"edges" must be a list of [i, j, correlation] triples')
            triples = []
            for item in edges:
                if not isinstance(item, list) or len(item) != 3:
                    _fail('"edges" must be a list of [i, j, correlation] triples')
                i, j = (_integer(k, '"edges" coordinate', 0) for k in item[:2])
                triples.append((i, j, float(item[2])))
            return graph_guided(width, triples, ratio=float(entry.get("ratio", 1.0)))
        if builder == "coordinate_lasso":
            _check_keys(entry, plain | {"coordinates"}, "coordinate_lasso block")
            coords = _take(entry, "coordinates", "coordinate_lasso block")
            if not isinstance(coords, list):
                _fail('"coordinates" must be nonempty indices inside the block')
            idx = np.array([_integer(k, '"coordinates" entry', 0) for k in coords], dtype=int)
            if idx.size == 0 or idx.max() >= width:
                _fail('"coordinates" must be nonempty indices inside the block')
            return equalities(np.eye(width)[idx])
        if builder == "offdiagonal_lasso":
            _check_keys(entry, plain, "offdiagonal_lasso block")
            if not hasattr(model, "offdiagonal_coordinates"):
                _fail("offdiagonal_lasso requires a ggm loss")
            idx = model.offdiagonal_coordinates()
            return equalities(np.eye(width)[idx])
        if builder == "matrix":
            _check_keys(
                entry,
                plain | {"equalities", "eq_offsets", "inequalities", "ineq_offsets"},
                "matrix block",
            )
            v = entry.get("equalities")
            w = entry.get("inequalities")
            if v is None and w is None:
                _fail('matrix block needs "equalities" and/or "inequalities"')
            v = _matrix(v, base_dir, '"equalities"') if v is not None else np.zeros((0, width))
            w = _matrix(w, base_dir, '"inequalities"') if w is not None else np.zeros((0, width))
            d = entry.get("eq_offsets")
            e = entry.get("ineq_offsets")
            d = _vector(d, base_dir, '"eq_offsets"') if d is not None else np.zeros(v.shape[0])
            e = _vector(e, base_dir, '"ineq_offsets"') if e is not None else np.zeros(w.shape[0])
            return ConstraintSystem(v, d, w, e)
    except SpecError:
        raise
    except Exception as exc:
        _fail(f"constraint block {builder!r}: {exc}")
    _fail(f"unknown constraint builder {builder!r}")


def _build_constraints(entries, dim, base_dir, model):
    if not isinstance(entries, list) or not entries:
        _fail('"constraints" must be a nonempty list of blocks')
    blocks, columns = [], []
    explicit = any(isinstance(e, dict) and "column" in e for e in entries)
    for entry in entries:
        block = _build_block(entry, dim, base_dir, model)
        blocks.append(block)
        if explicit:
            columns.append(_integer(entry.get("column", 0), 'constraint block "column"', 0))
    try:
        combined = concat(blocks, offsets=columns if explicit else None)
    except Exception as exc:
        _fail(f"constraint layout: {exc}")
    if combined.dim > dim:
        _fail(
            f"constraint blocks span {combined.dim} columns, beyond the "
            f"declared dimension {dim}"
        )
    return _widen(combined, dim)


def parse_problem_spec(path):
    """Read and validate a spec file; raises SpecError on any problem."""
    spec_path = Path(path)
    if not spec_path.is_file():
        _fail(f"spec file not found: {path}")
    try:
        raw = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        _fail(f"spec is not valid JSON: {exc}")
    raw = _expect_mapping(raw, "spec")
    _check_keys(raw, _TOP_KEYS, "spec")
    dim = _integer(_take(raw, "dimension", "spec"), '"dimension"')
    base_dir = spec_path.parent

    model, kind, n_obs, design, response, factory = _build_loss(
        _take(raw, "loss", "spec"), dim, base_dir
    )
    cs = _build_constraints(_take(raw, "constraints", "spec"), dim, base_dir, model)

    options = dict(_expect_mapping(raw.get("options", {}), '"options"'))
    samples = _integer(options.pop("samples_per_segment", 20), '"samples_per_segment"')
    try:
        path_options = PathOptions(**options)
    except TypeError as exc:
        _fail(f'"options": {exc}')
    except ValueError as exc:
        _fail(f'"options": {exc}')

    return ProblemSpec(
        dimension=dim,
        model=model,
        constraints=cs,
        options=path_options,
        samples_per_segment=samples,
        loss_kind=kind,
        n_observations=n_obs,
        heuristic_df=kind in ("ggm", "logconcave"),
        _design=design,
        _response=response,
        _loss_factory=factory,
    )
