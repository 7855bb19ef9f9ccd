"""Small feedforward regressors trained by Levenberg-Marquardt backprop.

Three model purposes exist: predicting an application's performance level,
predicting its workload level (both from selected hardware metrics), and
predicting the interference-free performance baseline from the workload
level alone.  Inputs and outputs are z-normalized from the training split;
hidden layers use tanh, the output is affine.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigInvalid,
    DimensionMismatch,
    Diverged,
    InsufficientData,
    NonFiniteInput,
)
from .select import Purpose, target_value, trace_summary
from .tracemodel import MetricKind, SessionRecord, fields_to_obj, metric_by_name, read_json
from .tracemodel import _num, _samples, write_json

# Levenberg-Marquardt damping: its start, its growth on a rejected step, its
# shrink on an accepted one, and the cap past which training gives up
LAMBDA0 = 1e-3
LAMBDA_UP = 10.0
LAMBDA_DOWN = 0.1
LAMBDA_CAP = 1e12
# epochs without a validation gain before stopping: MATLAB trainlm's max_fail
EARLY_STOP_PATIENCE = 6
SPLIT = (0.70, 0.15, 0.15)  # train/val/test fractions of an app's sessions
REL_ERR_FLOOR = 1e-9
_GRAD_TOL = 1e-12
ACTIVATION = "tanh"  # the hidden layers' activation as model files name it, the only one


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (8,)
    max_epochs: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_sizes):
            raise ConfigInvalid("hidden sizes must be positive")
        if self.max_epochs < 1:
            raise ConfigInvalid("max_epochs must be positive")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))


@dataclass(frozen=True)
class FitReport:
    errors: dict[str, dict[str, float]]  # split -> {mean,max,std} of relative error (%)
    epochs_run: int
    final_lambda: float
    split_ids: dict[str, tuple[str, ...]]

    def to_obj(self) -> dict:
        return fields_to_obj(self)


@dataclass(frozen=True)
class MlpModel:
    """Feedforward regressor: tanh hidden layers, identity output."""

    purpose: Purpose
    input_metrics: tuple[MetricKind, ...]  # empty for BASELINE (input is the workload)
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]
    input_norm: tuple[np.ndarray, np.ndarray]  # per-dimension (mean, std)
    output_norm: tuple[float, float]
    rng_seed: int = 0

    def __post_init__(self):
        layers = []
        width = self.input_dim
        for w, b in self.layers:
            w = np.asarray(w, dtype=float)
            b = np.asarray(b, dtype=float)
            if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0] or w.shape[1] != width:
                raise ValueError(f"layer shape {w.shape}/{b.shape} breaks the chain at {width}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("layer parameters must be finite")
            w = w.copy()
            b = b.copy()
            w.flags.writeable = False
            b.flags.writeable = False
            layers.append((w, b))
            width = w.shape[0]
        if width != 1:
            raise ValueError("output layer must produce one value")
        mean, std = (np.array(v, dtype=float) for v in self.input_norm)
        if mean.shape != (self.input_dim,) or std.shape != (self.input_dim,):
            raise ValueError("input_norm needs one (mean, std) pair per input dimension")
        if not (np.all(np.isfinite(mean)) and np.all((0 < std) & (std < np.inf))):
            raise ValueError("input_norm must be finite, with a positive std")
        mean.flags.writeable = False
        std.flags.writeable = False
        if not (math.isfinite(self.output_norm[0]) and 0 < self.output_norm[1] < math.inf):
            raise ValueError("output_norm must be finite, with a positive std")
        object.__setattr__(self, "layers", tuple(layers))
        object.__setattr__(self, "input_norm", (mean, std))
        object.__setattr__(
            self, "output_norm", (float(self.output_norm[0]), float(self.output_norm[1]))
        )
        object.__setattr__(self, "input_metrics", tuple(self.input_metrics))

    @property
    def input_dim(self) -> int:
        return max(1, len(self.input_metrics))

    def parameter_count(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)


def _activations(layers, x_norm: np.ndarray) -> list[np.ndarray]:
    """Every layer's activations (width, n) on normalized inputs (n, d),
    the inputs first and the normalized outputs (1, n) last."""
    acts = [x_norm.T]
    for i, (w, b) in enumerate(layers):
        z = w @ acts[-1] + b[:, None]
        acts.append(z if i == len(layers) - 1 else np.tanh(z))
    return acts


def predict(model: MlpModel, x: Sequence[float]) -> float:
    """Normalize -> forward pass -> denormalize.  Pure and deterministic."""
    xv = np.asarray(x, dtype=float)
    if xv.ndim != 1 or xv.shape[0] != model.input_dim:
        raise DimensionMismatch(f"expected {model.input_dim} inputs, got shape {xv.shape}")
    if not np.all(np.isfinite(xv)):
        raise NonFiniteInput("input contains non-finite values")
    mean, std = model.input_norm
    mu, sigma = model.output_norm
    return float(_activations(model.layers, (xv[None, :] - mean) / std)[-1][0, 0] * sigma + mu)


# ---------------------------------------------------------------------------
# Levenberg-Marquardt machinery
# ---------------------------------------------------------------------------


def _init_layers(rng: np.random.Generator, dims: Sequence[int]):
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out)
        layers.append((w, b))
    return layers


def _pack(layers) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in layers])


def _unpack(theta: np.ndarray, dims: Sequence[int]):
    layers = []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = theta[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in)
        pos += fan_out * fan_in
        b = theta[pos : pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def _jacobian(layers, acts) -> np.ndarray:
    """The Jacobian of the normalized outputs with respect to the packed
    parameters, by backprop through ``_activations(layers, x)``: one pass
    per layer, vectorized over samples."""
    n = acts[0].shape[1]
    jac = np.empty((n, sum(w.size + b.size for w, b in layers)))
    delta = np.ones((1, n))
    pos = jac.shape[1]
    for i in range(len(layers) - 1, -1, -1):
        w = layers[i][0]
        fan_out, fan_in = w.shape
        pos -= fan_out
        jac[:, pos : pos + fan_out] = delta.T
        pos -= fan_out * fan_in
        # d yhat / d W[o, j] = delta[o] * a_prev[j], written straight into jac
        # (a view: each row's block of columns is contiguous)
        block = jac[:, pos : pos + fan_out * fan_in].reshape(n, fan_out, fan_in)
        np.multiply(delta.T[:, :, None], acts[i].T[:, None, :], out=block)
        if i > 0:
            delta = (w.T @ delta) * (1.0 - acts[i] ** 2)
    return jac


def split_sessions(session_ids: Sequence[str], rng_seed: int) -> dict[str, tuple[str, ...]]:
    """Seeded shuffle of session ids into disjoint train/val/test parts of
    about the SPLIT fractions."""
    ids = sorted(session_ids)
    if len(set(ids)) != len(ids):
        raise ValueError("session ids must be unique")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(len(ids))
    shuffled = [ids[i] for i in perm]
    n = len(ids)
    n_train = int(round(SPLIT[0] * n))
    n_val = int(round(SPLIT[1] * n))
    n_train = min(n_train, n - 2)
    n_val = max(1, min(n_val, n - n_train - 1))
    return {
        "train": tuple(shuffled[:n_train]),
        "val": tuple(shuffled[n_train : n_train + n_val]),
        "test": tuple(shuffled[n_train + n_val :]),
    }


def _rel_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return np.abs(pred - truth) / np.maximum(np.abs(truth), REL_ERR_FLOOR)


def error_stats(pred: np.ndarray, truth: np.ndarray) -> dict[str, float]:
    """Mean, max and std of the relative errors of ``pred``, in percent."""
    errs = _rel_errors(pred, truth) * 100.0
    return {"mean": float(np.mean(errs)), "max": float(np.max(errs)), "std": float(np.std(errs))}


def features_from_traces(traces, metrics: Sequence[MetricKind], where: str) -> list[float]:
    missing = [k.name for k in metrics if k not in traces]
    if missing:
        raise DimensionMismatch(f"{where} lacks metrics {missing}")
    return [trace_summary(traces[k]) for k in metrics]


def _design_matrix(records, purpose, input_metrics):
    xs, ys = [], []
    for r in records:
        y = target_value(r, purpose)
        if purpose is Purpose.BASELINE:
            if r.workload_level is None or y is None:
                raise InsufficientData(
                    f"session {r.session_id} lacks workload/performance for baseline training"
                )
            xs.append([float(r.workload_level)])
        else:
            if y is None:
                raise InsufficientData(f"session {r.session_id} lacks a {purpose.value} target")
            xs.append(features_from_traces(r.traces, input_metrics, f"session {r.session_id}"))
        ys.append(float(y))
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)


@dataclass(frozen=True)
class Prepared:
    """One training problem, the input of ``train``: the purpose, the input
    metrics, the seeded split, and per split its inputs, normalized with the
    training split's statistics (``in_norm``), and its targets.  ``prepare``
    builds it from records, a purpose, the input metrics (none for a
    baseline net) and the split seed.  It never sees a net's widths, so a
    width search trains every width on one problem."""

    purpose: Purpose
    input_metrics: tuple[MetricKind, ...]
    splits: dict[str, tuple[str, ...]]
    parts: dict[str, tuple[np.ndarray, np.ndarray]]  # split -> (normalized x, y)
    in_norm: tuple[np.ndarray, np.ndarray]
    out_mean: float
    out_std: float


def prepare(records, purpose, input_metrics, seed) -> Prepared:
    records = list(records)
    if len(records) < 20:
        raise InsufficientData(f"need >= 20 records, got {len(records)}")
    if purpose is Purpose.BASELINE:
        input_metrics = ()
    elif not input_metrics:
        raise InsufficientData("no selected metrics to use as regression inputs")

    splits = split_sessions([r.session_id for r in records], seed)
    by_id = {r.session_id: r for r in records}
    parts = {
        name: _design_matrix([by_id[sid] for sid in ids], purpose, input_metrics)
        for name, ids in splits.items()
    }
    x_train, y_train = parts["train"]

    in_mean = np.mean(x_train, axis=0)
    in_std = np.std(x_train, axis=0)
    in_std[in_std == 0.0] = 1.0  # constant feature: carries no signal, maps to 0
    return Prepared(
        purpose, tuple(input_metrics), splits,
        {name: ((x - in_mean) / in_std, y) for name, (x, y) in parts.items()},
        (in_mean, in_std), float(np.mean(y_train)), float(np.std(y_train)),
    )


def _net_dims(problem: Prepared, cfg: TrainConfig) -> list[int]:
    """The layer widths of the net ``train(problem, cfg)`` fits."""
    return [len(problem.in_norm[0]), *cfg.hidden_sizes, 1]


def net_size(problem: Prepared, cfg: TrainConfig) -> int:
    """The parameter count of the net ``train(problem, cfg)`` fits."""
    dims = _net_dims(problem, cfg)
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims, dims[1:]))


def grid_configs(cfg: TrainConfig, widths: Sequence[tuple[int, ...]]) -> list[TrainConfig]:
    """``cfg`` once per distinct hidden-width tuple of ``widths``, in
    first-seen order: a repeated width would train the same net again.
    ConfigInvalid on an empty grid."""
    configs = [replace(cfg, hidden_sizes=h) for h in dict.fromkeys(tuple(w) for w in widths)]
    if not configs:
        raise ConfigInvalid("hyperparameter grid is empty")
    return configs


@functools.cache
def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or
    None, with one notice on stderr, when numpy uses another BLAS."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)  # the copy numpy loaded: same file, same handle
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    print("vmsight: numpy's BLAS is not scipy-openblas; trained model bytes may "
          "depend on the BLAS thread count", file=sys.stderr)
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's BLAS at one thread for the block, then restore the
    previous count, also when the block raises.  A multithreaded J'J or
    solve sums in an order that depends on the thread count, so this is what
    makes trained model bytes independent of it."""
    api = _blas_threads()
    if api is None:
        yield
        return
    get, set_threads = api
    before = get()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


@one_blas_thread()
def train(problem: Prepared, cfg: TrainConfig) -> tuple[MlpModel, FitReport]:
    """Fit one regressor of cfg's widths to ``problem``, a ``prepare``
    result, with Levenberg-Marquardt updates on the MSE.

    Updates solve (J'J + lambda*I) delta = J'r; lambda shrinks by
    LAMBDA_DOWN on accepted steps and grows by LAMBDA_UP on rejections.
    Training stops at cfg.max_epochs, after EARLY_STOP_PATIENCE epochs
    without validation improvement (trainlm's max_fail, 6), or when damping
    passes LAMBDA_CAP after an accepted epoch; the best-validation weights
    are returned.  Deterministic given the problem and cfg.rng_seed, and, on
    numpy's bundled OpenBLAS, independent of the BLAS thread count: the call
    holds BLAS at one thread.
    """
    out_mean, out_std = problem.out_mean, problem.out_std
    xt, y_train = problem.parts["train"]

    dims = _net_dims(problem, cfg)
    rng = np.random.default_rng(cfg.rng_seed)
    layers = _init_layers(rng, dims)
    if out_std == 0.0:
        # constant target: the normalized problem is y == 0, solved exactly
        # by a zero output layer, so LM stops at its first gradient check
        w_last, b_last = layers[-1]
        layers[-1] = (np.zeros_like(w_last), np.zeros_like(b_last))
        out_std = 1.0
    yt = (y_train - out_mean) / out_std
    xv, y_val = problem.parts["val"]

    def forward(th):  # th, its layers, their activations on xt, the residuals and their SSE
        layers = _unpack(th, dims)
        acts = _activations(layers, xt)
        r = acts[-1][0] - yt
        return th, layers, acts, r, float(r @ r)

    def val_error(layers) -> float:
        pred = _activations(layers, xv)[-1][0] * out_std + out_mean
        e = _rel_errors(pred, y_val)
        return float(np.add.reduce(e) / e.shape[0])  # np.mean's arithmetic, without its dispatch

    lam = LAMBDA0
    # the accepted weights' forward pass, which the next epoch's Jacobian reuses
    theta, layers, acts, r, sse = forward(_pack(layers))

    best_theta = theta.copy()
    best_val = val_error(layers)
    patience = EARLY_STOP_PATIENCE
    epochs_run = 0

    for _ in range(cfg.max_epochs):
        jac = _jacobian(layers, acts)
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) < _GRAD_TOL:
            break
        hess = jac.T @ jac
        jtj_diag = hess.diagonal().copy()
        while lam <= LAMBDA_CAP:
            hess.flat[:: hess.shape[0] + 1] = jtj_diag + lam  # J'J + lam*I, set afresh per lam
            try:
                delta = np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            step = forward(theta - delta)
            if math.isfinite(step[-1]) and step[-1] < sse:
                theta, layers, acts, r, sse = step
                lam = max(lam * LAMBDA_DOWN, 1e-12)
                break
            lam *= LAMBDA_UP
        else:  # damping ran out without an accepted step
            if not epochs_run:
                raise Diverged(f"damping exceeded {LAMBDA_CAP:g} without an accepted step")
            break
        epochs_run += 1
        v = val_error(layers)
        if v < best_val - 1e-12:
            best_val = v
            best_theta = theta.copy()
            patience = EARLY_STOP_PATIENCE
        else:
            patience -= 1
            if patience == 0:
                break

    model = MlpModel(
        purpose=problem.purpose,
        input_metrics=problem.input_metrics,
        layers=tuple((w.copy(), b.copy()) for w, b in _unpack(best_theta, dims)),
        input_norm=problem.in_norm,
        output_norm=(out_mean, out_std),
        rng_seed=cfg.rng_seed,
    )
    return model, _build_report(model, problem, epochs_run, lam)


def _build_report(model, problem, epochs_run, final_lambda) -> FitReport:
    mu, sigma = model.output_norm
    return FitReport(
        errors={name: error_stats(_activations(model.layers, x)[-1][0] * sigma + mu, y)
                for name, (x, y) in problem.parts.items()},
        epochs_run=epochs_run,
        final_lambda=float(final_lambda),
        split_ids=dict(problem.splits),
    )


def best_fit(fits: Sequence[tuple[MlpModel, FitReport]]) -> tuple[MlpModel, FitReport]:
    """The (model, report) of ``fits`` with the best validation error; ties
    go to the net with fewer parameters, then to the earlier one."""
    return min(fits, key=lambda fit: (fit[1].errors["val"]["mean"], fit[0].parameter_count()))


def hyper_search(
    records: Sequence[SessionRecord],
    purpose: Purpose,
    cfg: TrainConfig,
    widths: Sequence[tuple[int, ...]],
    input_metrics: Sequence[MetricKind] = (),
) -> tuple[MlpModel, FitReport]:
    """Train each of ``grid_configs(cfg, widths)`` on one prepared problem
    and keep the ``best_fit`` of the nets."""
    configs = grid_configs(cfg, widths)
    problem = prepare(records, purpose, input_metrics, cfg.rng_seed)
    return best_fit([train(problem, c) for c in configs])


# ---------------------------------------------------------------------------
# Model files: JSON, bit-stable across save/load
# ---------------------------------------------------------------------------


def model_to_obj(model: MlpModel, report: Optional[FitReport] = None) -> dict:
    return {
        "purpose": model.purpose.value,
        "input_metrics": [
            {"name": k.name, "category": k.category.value} for k in model.input_metrics
        ],
        "layers": [
            {"shape": list(w.shape), "weights": w.ravel().tolist(), "bias": b.tolist()}
            for w, b in model.layers
        ],
        "activation": ACTIVATION,
        "input_norm": {
            "mean": model.input_norm[0].tolist(),
            "std": model.input_norm[1].tolist(),
        },
        "output_norm": {"mean": model.output_norm[0], "std": model.output_norm[1]},
        "rng_seed": model.rng_seed,
        "fit_report": None if report is None else report.to_obj(),
    }


def model_from_obj(obj: dict) -> tuple[MlpModel, Optional[FitReport]]:
    if obj["activation"] != ACTIVATION:
        raise ValueError(f"activation: only {ACTIVATION!r} is supported, got {obj['activation']!r}")
    metrics = tuple(metric_by_name(m["name"]) for m in obj["input_metrics"])
    if [k.category.value for k in metrics] != [m["category"] for m in obj["input_metrics"]]:
        raise ValueError("input_metrics: a category does not match its metric name")
    layers = tuple(
        (_samples(l["weights"], f"layer {i}: weights").reshape(l["shape"]),
         _samples(l["bias"], f"layer {i}: bias"))
        for i, l in enumerate(obj["layers"])
    )
    norm, out = obj["input_norm"], obj["output_norm"]
    model = MlpModel(
        purpose=Purpose(obj["purpose"]),
        input_metrics=metrics,
        layers=layers,
        input_norm=tuple(_samples(norm[k], f"input_norm: {k}") for k in ("mean", "std")),
        output_norm=tuple(_num(out[k], f"output_norm: {k}") for k in ("mean", "std")),
        rng_seed=_integer(obj["rng_seed"], "rng_seed"),
    )
    report = None
    if obj.get("fit_report"):
        fr = obj["fit_report"]
        report = FitReport(
            errors={split: {k: _num(v, f"fit_report: errors: {split}: {k}") for k, v in e.items()}
                    for split, e in fr["errors"].items()},
            epochs_run=_integer(fr["epochs_run"], "fit_report: epochs_run"),
            final_lambda=_num(fr["final_lambda"], "fit_report: final_lambda"),
            split_ids=_split_ids(fr["split_ids"]),
        )
    return model, report


def _split_ids(obj) -> dict[str, tuple[str, ...]]:
    """A fit report's session-id split: train, val and test lists of strings."""
    if not isinstance(obj, dict) or sorted(obj) != ["test", "train", "val"]:
        raise ValueError("fit_report: split_ids: expected the keys train, val and test")
    for name, ids in obj.items():
        if not (isinstance(ids, (list, tuple)) and all(isinstance(i, str) for i in ids)):
            raise ValueError(f"fit_report: split_ids: {name}: expected a list of strings")
    return {k: tuple(ids) for k, ids in obj.items()}


def _integer(value, where: str) -> int:
    if type(value) is not int:  # bool and float are refused
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def save_model(model: MlpModel, path: str, report: Optional[FitReport] = None) -> None:
    write_json(path, model_to_obj(model, report))


def load_model(path: str) -> tuple[MlpModel, Optional[FitReport]]:
    return read_json(path, model_from_obj)
