"""Reverse-pass behaviour: trivial gradients, the graph's error and lifetime
contract, and the finite-difference suite over every op."""

import gc
import sys
import weakref

import numpy as np
import pytest

from pulsemamba import checks
from pulsemamba import tensor as T
from pulsemamba.errors import GraphError, ShapeError


def test_grad_of_sum_is_ones(rng):
    x = T.tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    T.backward(T.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4, 2)))


def test_grad_of_quadratic():
    x = T.tensor([1.0, -2.0], requires_grad=True)
    T.backward(T.reduce_sum(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, -4.0])


def test_backward_requires_scalar(rng):
    x = T.tensor(rng.normal(size=(3,)), requires_grad=True)
    y = T.mul(x, x)
    with pytest.raises(ShapeError):
        T.backward(y)


def test_backward_on_disconnected_tensor():
    x = T.tensor([1.0])
    with pytest.raises(GraphError):
        T.backward(x)


def test_second_backward_is_an_error(rng):
    x = T.tensor(rng.normal(size=(4,)), requires_grad=True)
    loss = T.reduce_sum(T.silu(x))
    T.backward(loss)
    with pytest.raises(GraphError):
        T.backward(loss)


def test_backward_through_consumed_subgraph_is_an_error(rng):
    x = T.tensor(rng.normal(size=(4,)), requires_grad=True)
    h = T.silu(x)
    first, second = T.reduce_sum(h), T.reduce_sum(T.mul(h, h))
    T.backward(first)
    with pytest.raises(GraphError, match="silu"):
        T.backward(second)


def test_new_forward_allows_new_backward(rng):
    x = T.tensor(rng.normal(size=(4,)), requires_grad=True)
    T.backward(T.reduce_sum(T.silu(x)))
    g1 = x.grad.copy()
    x.grad = None
    T.backward(T.reduce_sum(T.silu(x)))
    np.testing.assert_array_equal(x.grad, g1)


def test_grad_accumulates_across_uses(rng):
    x = T.tensor(rng.normal(size=(3,)), requires_grad=True)
    y = T.add(T.mul(x, x), T.mul(x, x))
    T.backward(T.reduce_sum(y))
    np.testing.assert_allclose(x.grad, 4.0 * x.data)


def test_dead_graph_freed_without_cyclic_gc(rng):
    x = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = T.silu(T.linear(x, w))
        probe = weakref.ref(hidden.data)  # the activation's buffer
        loss = T.reduce_sum(T.mul(hidden, hidden))
        del hidden
        T.backward(loss)
        del loss
        assert probe() is None
    finally:
        if was_enabled:
            gc.enable()
    assert x.grad is not None and w.grad is not None


def test_backward_frees_activations_while_it_runs(rng):
    x = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    seen = []

    def probe_bwd(g):
        # silu and mul have run: nothing may hold their activation now
        seen.append(activation())
        return [g]

    h = T.silu(T.apply_op("probe", x.data.copy(), [x], probe_bwd))
    activation = weakref.ref(h.data)
    loss = T.reduce_sum(T.mul(h, h))
    del h
    T.backward(loss)
    assert seen == [None]
    assert x.grad is not None


def test_unbackwarded_graph_dies_with_its_tensors(rng):
    x = T.tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        hidden = T.silu(T.linear(x, w))
        probe = weakref.ref(hidden.data)
        loss = T.reduce_sum(T.mul(hidden, hidden))
        del hidden, loss  # recorded, never backwarded
        assert probe() is None
    finally:
        if was_enabled:
            gc.enable()


def _watch_rules(loss):
    """Wrap every rule in loss's graph: per node, the gradient its rule
    received, the arrays it returned and copies of them."""
    log, stack = {}, [loss._node]
    while stack:
        node = stack.pop()
        if node in log:
            continue
        log[node] = {}

        def bwd(g, rule=node.bwd, entry=log[node]):
            gins = rule(g)
            entry.update(received=g, returned=[a for a in gins if a is not None])
            entry["copies"] = [a.copy() for a in entry["returned"]]
            return gins

        node.bwd = bwd
        stack.extend(p for p in node.inputs if isinstance(p, T._Node))
    return log


def test_backward_passes_sole_contributions_as_is_and_sums_the_rest_fresh():
    # x -> double -> ident -> {reshape, transpose, triple}; add(triple, triple)
    x = T.tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)

    def op(name, a, c):
        """a * c with a hand-written rule; c = 1 hands g back itself."""
        return T.apply_op(name, a.data * c, [a],
                          lambda g: [g if c == 1 else g * c])

    double = op("double", x, 2.0)       # one consumer: ident
    ident = op("ident", double, 1.0)    # three: reshape, transpose, triple
    triple = op("triple", ident, 3.0)   # both operands of one add
    r, f = T.reshape(ident, (3, 2)), T.transpose(ident, (1, 0))
    twice = T.add(triple, triple)
    w1, w2, w3 = (np.arange(6.0).reshape(s) + k for s, k in
                  (((3, 2), 1), ((3, 2), 7), ((2, 3), 13)))
    terms = [T.reduce_sum(T.mul(t, T.tensor(w))) for t, w in
             ((r, w1), (f, w2), (twice, w3))]
    loss = T.add(T.add(terms[0], terms[1]), terms[2])
    nodes = {t: t._node for t in (double, ident, triple, r, f, twice)}
    log = _watch_rules(loss)
    T.backward(loss)

    g_ident = w1.reshape(2, 3) + w2.T + 3.0 * 2.0 * w3
    np.testing.assert_array_equal(x.grad, 2.0 * g_ident)
    np.testing.assert_array_equal(log[nodes[ident]]["received"], g_ident)
    np.testing.assert_array_equal(log[nodes[triple]]["received"], 2.0 * w3)
    for entry in log.values():
        for arr, before in zip(entry["returned"], entry["copies"]):
            np.testing.assert_array_equal(arr, before)
    # a sole contribution reaches the parent's rule as the same object
    assert log[nodes[double]]["received"] is log[nodes[ident]]["returned"][0]
    # several are summed into an array no consumer returned
    for t in (ident, triple):
        assert all(log[nodes[t]]["received"] is not a for n, e in log.items()
                   if n is not nodes[t] for a in e["returned"])
    # a leaf owns its gradient
    returned = [a for e in log.values() for a in e["returned"]]
    assert not any(np.shares_memory(x.grad, a) for a in returned)


def test_node_no_gradient_reaches_never_runs(rng):
    # x -> parent -> cut, whose rule returns None for parent; y reaches
    # the loss by another branch
    x = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    y = T.tensor(rng.normal(size=(2, 3)), requires_grad=True)
    ran = []

    def parent_bwd(g):
        ran.append("parent")
        return [g]

    parent = T.apply_op("parent", x.data.copy(), [x], parent_bwd)
    cut = T.apply_op("cut", parent.data * 2.0, [parent], lambda g: [None])
    loss = T.reduce_sum(T.add(cut, T.mul(y, y)))
    T.backward(loss)
    assert ran == []
    assert x.grad is None
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)


def test_tape_size_counts_ops_since_the_last_backward(rng):
    x = T.tensor(rng.normal(size=(3,)), requires_grad=True)
    T.backward(T.reduce_sum(x))
    assert T.tape_size() == 0
    loss = T.reduce_sum(T.mul(T.silu(x), x))
    assert T.tape_size() == 3
    T.backward(loss)
    assert T.tape_size() == 0


def test_gradcheck_leaves_no_recorded_graph(rng):
    x = T.tensor(rng.normal(size=(3, 4)), requires_grad=True)
    result = checks.gradcheck("silu", lambda: T.reduce_sum(T.silu(x)),
                              [("x", x)], rng)
    assert result.passed, result.line()
    assert T.tape_size() == 0  # the finite-difference forwards record nothing


def test_narrow_is_a_view_with_the_slice_gradient(rng):
    x = T.tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    part = T.narrow(x, -1, 2, 3)
    assert np.shares_memory(part.data, x.data)
    np.testing.assert_array_equal(part.data, x.data[..., 2:5])
    weights = rng.normal(size=part.shape)
    T.backward(T.reduce_sum(T.mul(part, T.tensor(weights))))
    expected = np.zeros(x.shape)
    expected[..., 2:5] = weights
    np.testing.assert_array_equal(x.grad, expected)


def test_no_grad_suppresses_recording(rng):
    x = T.tensor(rng.normal(size=(3,)), requires_grad=True)
    before = T.tape_size()
    with T.no_grad():
        y = T.mul(x, x)
    assert T.tape_size() == before
    assert not y.requires_grad


def test_op_gradient_suite_passes():
    results = checks.op_gradient_suite(full=False, seed=7)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


def test_op_gradient_suite_has_an_entry_per_differentiable_op(monkeypatch):
    # an entry's build lambda calls the op itself, not only through another
    # op, the loss or the suite's weighted sum
    exempt = {"Tensor", "tensor", "no_grad", "is_grad_enabled", "tape_size",
              "backward"}
    ops = set(T.__all__) - exempt
    called = set()

    def watch(name, fn):
        def wrapped(*args, **kwargs):
            caller = sys._getframe(1)
            if (caller.f_globals["__name__"] == checks.__name__
                    and caller.f_code.co_name == "<lambda>"):
                called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ops:
        monkeypatch.setattr(T, name, watch(name, getattr(T, name)))
    checks.op_gradient_suite(full=False)
    assert ops - called == set()


def test_toy_model_gradient_suite_passes():
    result = checks.model_gradient_suite(min_samples=60, seed=3)
    assert result.passed, result.line()
    assert result.n_checked >= 60
