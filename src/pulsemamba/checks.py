"""Verification suites: finite-difference gradient checks and scan
equivalences. Shared by the CLI subcommands and the test suite so both
report the same numbers.

Relative error convention: |a - b| / max(|a|, |b|, floor) elementwise for
gradients, and max|a - b| / max(max|a|, max|b|, tiny) for whole-signal
comparisons (signals cross zero, so elementwise ratios are meaningless
there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from . import tensor as T
from . import ssm
from .blocks import ModelConfig, PulseMambaNet
from .signal import neg_pearson_loss
from .tensor import Tensor

__all__ = [
    "CheckResult", "central_diff", "gradcheck", "directional_gradcheck",
    "op_gradient_suite", "model_gradient_suite", "scan_equivalence_suite",
    "selective_oracle_suite", "constant_projection_bitwise",
    "signal_rel_err", "GRAD_TOL", "SCAN_TOL", "ORACLE_TOL",
]

GRAD_TOL = 1e-4
SCAN_TOL = 1e-8
ORACLE_TOL = 1e-10
FD_STEP = 1e-5
# directional_gradcheck's step: at 1e-6 both training shapes read ~1e-8,
# while at 1e-5 one direction at paper width missed GRAD_TOL by 4x
DIRECTION_STEP = 1e-6
REL_FLOOR = 1e-6


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    n_checked: int

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: max err {self.max_err:.3e} "
                f"(tol {self.tol:.0e}, {self.n_checked} samples)")


def signal_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-300)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def central_diff(scalar_fn: Callable[[], float], arr: np.ndarray,
                 index: int) -> float:
    flat = arr.reshape(-1)
    orig = flat[index]
    flat[index] = orig + FD_STEP
    fp = scalar_fn()
    flat[index] = orig - FD_STEP
    fm = scalar_fn()
    flat[index] = orig
    return (fp - fm) / (2.0 * FD_STEP)


def gradcheck(name: str, build_loss: Callable[[], Tensor],
              leaves: Sequence[Tuple[str, Tensor]],
              rng: np.random.Generator,
              samples_per_leaf: int = 8) -> CheckResult:
    """Compare backward's gradients of a scalar loss against central
    differences of step FD_STEP, to GRAD_TOL.

    build_loss must rebuild the forward pass from the leaves' current data
    (it is called repeatedly with perturbed entries). The perturbed
    forwards run under ``no_grad``: they are never backwarded, so they
    record no graph.
    """
    for _, p in leaves:
        p.grad = None
    T.backward(build_loss())
    grads = [(p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for _, p in leaves]

    worst = 0.0
    checked = 0
    for (leaf_name, p), g in zip(leaves, grads):
        k = min(samples_per_leaf, p.size)
        idxs = rng.choice(p.size, size=k, replace=False)
        for i in idxs:
            with T.no_grad():
                fd = central_diff(lambda: build_loss().item(), p.data, int(i))
            an = g.reshape(-1)[int(i)]
            err = abs(an - fd) / max(abs(an), abs(fd), REL_FLOOR)
            worst = max(worst, err)
            checked += 1
    return CheckResult(name, worst, GRAD_TOL, checked)


def directional_gradcheck(name: str, build_loss: Callable[[], Tensor],
                          leaves: Sequence[Tensor],
                          rng: np.random.Generator) -> CheckResult:
    """Compare <grad L, v> from one backward against the central
    difference of L along v, a random unit direction over all ``leaves``
    at once, of step DIRECTION_STEP, to GRAD_TOL (PyTorch's fast-mode
    gradcheck checks v^T J u the same way). It checks every gradient
    entry in one number, at the cost of one backward and two ``no_grad``
    forwards; the leaves' data is restored afterwards.
    """
    for p in leaves:
        p.grad = None
    T.backward(build_loss())
    v = [rng.normal(size=p.shape) for p in leaves]
    norm = np.sqrt(sum(float(np.sum(d * d)) for d in v))
    an = sum(float(np.sum(p.grad * d)) for p, d in zip(leaves, v)
             if p.grad is not None) / norm
    saved = [p.data for p in leaves]

    def along(step):
        for p, x0, d in zip(leaves, saved, v):
            p.data = x0 + (step / norm) * d
        with T.no_grad():
            return build_loss().item()

    try:
        fd = (along(DIRECTION_STEP) - along(-DIRECTION_STEP)) / (2.0 * DIRECTION_STEP)
    finally:
        for p, x0 in zip(leaves, saved):
            p.data = x0
    err = abs(an - fd) / max(abs(an), abs(fd), REL_FLOOR)
    return CheckResult(name, err, GRAD_TOL, 1)


# ---------------------------------------------------------------------------
# per-op gradient suite

def _weighted_sum(out: Tensor, seed: int = 0) -> Tensor:
    w = np.sin(0.7 * np.arange(out.size) + seed).reshape(out.shape)
    return T.reduce_sum(T.mul(out, Tensor(w)))


def op_gradient_suite(full: bool = False, seed: int = 0) -> List[CheckResult]:
    """Finite-difference checks for every differentiable op."""
    rng = np.random.default_rng(seed)
    results = []
    spl = 12 if full else 6

    def leaf(shape, positive=False, offset=0.0):
        data = rng.normal(0.5 if positive else 0.0, 1.0, shape)
        if positive:
            data = np.abs(data) + 0.2
        return Tensor(data + offset, requires_grad=True)

    def run(name, build, leaves):
        results.append(gradcheck(name, build, leaves, rng, samples_per_leaf=spl))

    a, b = leaf((3, 4)), leaf((3, 4))
    run("add", lambda: _weighted_sum(T.add(a, b)), [("a", a), ("b", b)])
    run("sub", lambda: _weighted_sum(T.sub(a, b)), [("a", a), ("b", b)])
    run("mul", lambda: _weighted_sum(T.mul(a, b)), [("a", a), ("b", b)])
    bd = leaf((3, 4), positive=True)
    run("div", lambda: _weighted_sum(T.div(a, bd)), [("a", a), ("b", bd)])
    sc = leaf((1,))
    run("scalar_broadcast", lambda: _weighted_sum(T.mul(a, sc)),
        [("a", a), ("s", sc)])

    x = leaf((4, 5))
    xp = leaf((4, 5), positive=True)
    run("sqrt", lambda: _weighted_sum(T.sqrt(xp)), [("x", xp)])
    xr = leaf((4, 5), offset=0.3)   # keep away from the relu kink
    run("relu", lambda: _weighted_sum(T.relu(xr)), [("x", xr)])
    run("silu", lambda: _weighted_sum(T.silu(x)), [("x", x)])
    run("sigmoid", lambda: _weighted_sum(T.sigmoid(x)), [("x", x)])
    run("softplus", lambda: _weighted_sum(T.softplus(x)), [("x", x)])

    xl = leaf((2, 3, 4))
    wl = leaf((5, 4))
    bl = leaf((5,))
    run("linear", lambda: _weighted_sum(T.linear(xl, wl, bl)),
        [("x", xl), ("w", wl), ("b", bl)])

    xc = leaf((2, 2, 5, 4, 4))
    wc = leaf((3, 2, 3, 3, 3))
    run("conv3d", lambda: _weighted_sum(
        T.conv3d(xc, wc, (1, 1, 1), (1, 1, 1))),
        [("x", xc), ("w", wc)])
    ws = leaf((2, 2, 3, 1, 1))
    run("conv3d_strided", lambda: _weighted_sum(
        T.conv3d(xc, ws, stride=(2, 1, 1), padding=(1, 0, 0))),
        [("x", xc), ("w", ws)])

    x1 = leaf((2, 7, 3))
    w1 = leaf((3, 4))
    b1 = leaf((3,))
    run("conv1d_depthwise", lambda: _weighted_sum(
        T.conv1d_depthwise_causal(x1, w1, b1)),
        [("x", x1), ("w", w1), ("b", b1)])

    xt = leaf((2, 3, 6))
    wt = leaf((3, 4, 4))
    bt = leaf((4,))
    run("conv_transpose1d", lambda: _weighted_sum(
        T.conv_transpose1d(xt, wt, bt, 2, 1)),
        [("x", xt), ("w", wt), ("b", bt)])

    xm = leaf((2, 2, 4, 4, 4))
    run("maxpool3d", lambda: _weighted_sum(T.maxpool3d(xm, (1, 2, 2))),
        [("x", xm)])
    run("maxpool3d_222", lambda: _weighted_sum(T.maxpool3d(xm, (2, 2, 2))),
        [("x", xm)])

    xb = leaf((3, 4, 2, 3, 3))
    gb2, bb2 = leaf((4,), positive=True), leaf((4,))
    rm, rv = np.zeros(4), np.ones(4)
    run("batch_norm_train", lambda: _weighted_sum(
        T.batch_norm(xb, gb2, bb2, rm.copy(), rv.copy(), True)),
        [("x", xb), ("gamma", gb2), ("beta", bb2)])
    run("batch_norm_eval", lambda: _weighted_sum(
        T.batch_norm(xb, gb2, bb2, rm, rv, False)),
        [("x", xb), ("gamma", gb2), ("beta", bb2)])
    br = leaf((4,), offset=0.3)  # shifts the outputs off the relu kink
    run("batch_norm_relu_train", lambda: _weighted_sum(
        T.batch_norm(xb, gb2, br, rm.copy(), rv.copy(), True, relu=True)),
        [("x", xb), ("gamma", gb2), ("beta", br)])
    run("batch_norm_relu_eval", lambda: _weighted_sum(
        T.batch_norm(xb, gb2, br, rm, rv, False, relu=True)),
        [("x", xb), ("gamma", gb2), ("beta", br)])

    xn = leaf((3, 5, 6))
    gn, bn = leaf((6,), positive=True), leaf((6,))
    run("layer_norm", lambda: _weighted_sum(T.layer_norm(xn, gn, bn)),
        [("x", xn), ("gamma", gn), ("beta", bn)])

    run("sum", lambda: _weighted_sum(T.reduce_sum(xl, axes=(1,))), [("x", xl)])
    run("mean", lambda: _weighted_sum(T.reduce_mean(xl, axes=(0, 2))), [("x", xl)])
    run("reshape", lambda: _weighted_sum(T.reshape(xl, (6, 4))), [("x", xl)])
    run("transpose", lambda: _weighted_sum(T.transpose(xl, (2, 0, 1))), [("x", xl)])
    cc1, cc2 = leaf((2, 3, 4)), leaf((2, 2, 4))
    run("concat", lambda: _weighted_sum(T.concat([cc1, cc2], axis=1)),
        [("a", cc1), ("b", cc2)])
    run("narrow", lambda: _weighted_sum(T.narrow(xl, 2, 1, 2)), [("x", xl)])
    xu = leaf((1, 2, 3, 2, 2))
    run("upsample_time", lambda: _weighted_sum(T.upsample_nearest_time(xu, 2)),
        [("x", xu)])
    xg = leaf((2, 3, 2, 2, 2))
    gg = leaf((2, 3, 1, 1, 1))
    run("broadcast_size1_axes", lambda: _weighted_sum(T.mul(xg, gg)),
        [("x", xg), ("g", gg)])

    xs, conv = leaf((2, 9, 3)), (leaf((3, ssm.CONV_KERNEL)), leaf((3,)))
    dirs = [ssm.SSMParams(3, 4, 2, rng) for _ in range(2)]
    for p in dirs:  # steps of order 1, so every gradient is well above FD noise
        p.a_log.data = np.log(rng.uniform(0.3, 2.0, (3, 4)))
        p.dt_bias.data = rng.normal(0.0, 1.0, 3)
    scan = ([("x", xs), ("conv_w", conv[0]), ("conv_b", conv[1])]
            + [(f"{tag}.{name}", t) for tag, p in zip(("fwd", "bwd"), dirs)
               for name, t in p.named_parameters()])
    run("selective_scan", lambda: _weighted_sum(ssm.selective_scan_op(
        xs, conv, *dirs[0].operands(), reverse=dirs[1].operands())), scan)

    pr, tg = leaf((2, 8)), leaf((2, 8))
    run("neg_pearson", lambda: neg_pearson_loss(pr, tg),
        [("pred", pr), ("target", tg)])
    row = leaf((4,))
    run("broadcast_leading_axis", lambda: _weighted_sum(T.add(a, row)),
        [("a", a), ("b", row)])

    return results


def model_gradient_suite(min_samples: int = 100, seed: int = 0) -> CheckResult:
    """End-to-end check on a two-block toy network, (1, 3, 8, 16, 16) input."""
    rng = np.random.default_rng(seed)
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4,
                      state_dim=4)
    model = PulseMambaNet(cfg, seed=seed)
    model.train()
    x = Tensor(rng.normal(size=(1, 3, 8, 16, 16)))
    y = Tensor(rng.normal(size=(1, 8)))

    def build():
        return neg_pearson_loss(model(x), y)

    named = list(model.named_parameters())
    per_leaf = max(1, -(-min_samples // len(named)))  # ceil division
    return gradcheck("toy_model_end_to_end", build,
                     [(n, p) for n, p in named], rng,
                     samples_per_leaf=per_leaf)


# ---------------------------------------------------------------------------
# scan equivalence suites

def scan_equivalence_suite(n_systems: int = 100, seed: int = 0) -> CheckResult:
    """Recurrent vs convolutional evaluation on random LTI systems."""
    rng = np.random.default_rng(seed)
    lengths = (1, 2, 17, 64)
    worst = 0.0
    for i in range(n_systems):
        d = int(rng.integers(1, 9))
        n = 16
        L = lengths[i % len(lengths)]
        a = -rng.uniform(0.1, 3.0, (d, n))
        delta = float(rng.uniform(0.01, 0.5))
        b = rng.normal(size=n)
        c = rng.normal(size=(d, n))
        x = rng.normal(size=(L, d))
        abar, bbar = ssm.discretize_zoh(a, b, delta)
        y_rec = ssm.scan_recurrent(abar, bbar, c, x)
        y_conv = ssm.scan_convolutional(abar, bbar, c, x)
        worst = max(worst, signal_rel_err(y_rec, y_conv))
    return CheckResult("scan_recurrent_vs_convolutional", worst, SCAN_TOL,
                       n_systems)


def _conv(rng, d):
    """A random causal depthwise conv: (w (D, K), bias (D,)) Tensors."""
    return (Tensor(rng.uniform(-0.5, 0.5, (d, ssm.CONV_KERNEL))),
            Tensor(rng.uniform(-0.5, 0.5, d)))


def selective_oracle_suite(n_cases: int = 20, seed: int = 0) -> CheckResult:
    """Vectorized selective scan, both directions, vs the straight-line
    reference interpreter run forward and on the time-reversed input."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        d = int(rng.integers(2, 5))
        L = int(rng.integers(4, 33))
        fwd, bwd = (ssm.SSMParams(d, 16, max(1, d // 2), rng) for _ in range(2))
        conv = _conv(rng, d)
        x = rng.normal(size=(L, d))
        with T.no_grad():
            y = ssm.selective_scan_op(Tensor(x[None]), conv, *fwd.operands(),
                                      reverse=bwd.operands()).data[0]
        arrays = [t.data for t in conv]
        y_ref = (ssm.selective_scan_reference(fwd, arrays, x)
                 + ssm.selective_scan_reference(bwd, arrays, x[::-1])[::-1])
        worst = max(worst, signal_rel_err(y, y_ref))
    return CheckResult("selective_scan_vs_reference", worst, ORACLE_TOL,
                       n_cases)


def constant_projection_bitwise(seed: int = 0) -> CheckResult:
    """Constant-output projections must reduce bitwise to the LTI scan."""
    rng = np.random.default_rng(seed)
    d, n, L = 4, 16, 48
    params = ssm.SSMParams(d, n, 1, rng)
    params.w_b.data[:] = 0.0
    params.w_c.data[:] = 0.0
    params.w_dt_down.data[:] = 0.0
    params.b_bias = Tensor(rng.normal(size=n))
    params.c_bias = Tensor(rng.normal(size=n))
    conv = _conv(rng, d)
    x = Tensor(rng.normal(size=(1, L, d)))
    with T.no_grad():
        y_sel = ssm.selective_scan_op(x, conv, *params.operands()).data[0]
        u = T.silu(T.conv1d_depthwise_causal(x, *conv)).data[0]

    a = -np.exp(params.a_log.data)
    # dt_low is 0, so each step is softplus(dt_bias), as the op forms
    # every chunk's steps through T.softplus
    dt_bias = params.dt_bias.data
    delta_const = np.maximum(dt_bias, 0.0) + np.log1p(np.exp(-np.abs(dt_bias)))
    delta_seq = np.broadcast_to(delta_const, (L, d))
    abar, bbar = ssm.discretize_zoh(a, params.b_bias.data, delta_seq)
    c_seq = np.broadcast_to(params.c_bias.data, (L, n))
    y_lti = ssm.scan_recurrent(abar, bbar, c_seq, u)
    exact = float(np.array_equal(y_sel, y_lti))
    return CheckResult("constant_projection_bitwise", 0.0 if exact else 1.0,
                       0.0, L * d)
