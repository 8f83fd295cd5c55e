import numpy as np
import pytest

from evsnn.autograd import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def numeric_grad(fn, arrays, wrt, eps=1e-5):
    """Central finite differences of scalar fn(*arrays) w.r.t. arrays[wrt]."""
    base = [a.copy() for a in arrays]
    g = np.zeros_like(base[wrt])
    flat = g.reshape(-1)
    src = base[wrt].reshape(-1)
    for i in range(src.size):
        orig = src[i]
        src[i] = orig + eps
        hi = fn(*base)
        src[i] = orig - eps
        lo = fn(*base)
        src[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return g


def check_grad(build, arrays, tol, eps=1e-5):
    """Compare autodiff gradients of scalar-valued ``build(*tensors)``
    against central differences for every input array.

    ``build`` receives Tensors (requires_grad=True) and returns a Tensor
    whose .data is reduced to a scalar by summation against fixed random
    weights, so non-scalar outputs are exercised too.
    """
    arrays = [np.asarray(a) for a in arrays]
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    w = np.random.default_rng(0).standard_normal(out.data.shape).astype(out.data.dtype)
    (out * Tensor(w)).sum().backward()

    def scalar(*arrs):
        ts = [Tensor(a) for a in arrs]
        return float((build(*ts).data * w).sum())

    for i, t in enumerate(tensors):
        num = numeric_grad(scalar, arrays, i, eps=eps)
        got = t.grad if t.grad is not None else np.zeros_like(arrays[i])
        denom = max(np.abs(num).max(), np.abs(got).max(), 1e-8)
        rel = np.abs(got - num).max() / denom
        assert rel <= tol, f"input {i}: max rel grad error {rel:.3e} > {tol}"


def stepwise_forward(net, batch):
    """Reference for ``Network.forward``: every node at every timestep, then
    each output summed over time with T - 1 adds. ``forward`` runs the nodes
    that commute with that sum once, on the time-summed input instead."""
    membranes = {}
    per_step = {o: [] for o in net.spec.outputs}
    for t in range(batch.shape[2]):
        values = {"input": Tensor(np.ascontiguousarray(batch[:, :, t]))}
        for node in net.spec.nodes:
            inputs = [values[i] for i in node["inputs"]]
            extra = (membranes,) if node["type"] == "plif" else ()
            values[node["name"]] = net.layers[node["name"]](*inputs, *extra)
        for o, seq in per_step.items():
            seq.append(values[o])
    summed = {}
    for o, seq in per_step.items():
        summed[o] = seq[0]
        for v in seq[1:]:
            summed[o] = summed[o] + v
    return summed


def outputs_and_grads(net, run, loss_of):
    """The outputs of ``run()`` and every parameter gradient of ``net``
    after backpropagating ``loss_of(outputs)``."""
    for p in net.param_list():
        p.zero_grad()
    outputs = run()
    loss_of(outputs).backward()
    return outputs, {name: p.grad.copy() for name, p in net.params().items()}
