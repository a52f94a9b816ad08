"""A tour of the tape-based tensor core.

Every operation appends an entry to the active computation record; calling
backward() consumes the record in reverse, once, and returns gradients for
every leaf tensor that asked for them. The record charges its outputs, the
arrays its closures save and its gradients to its memory ledger for as long
as each buffer lives. Frozen tensors simply never appear in the gradient
map, which is the whole trick behind feature extraction. Outside a record
nothing is taped, which is how evaluation runs.
"""

import numpy as np

from febench import ComputationRecord, Tensor, backward, grad_check
from febench import ops


def main():
    print("== forward and backward through a small expression ==")
    w = Tensor.param(np.array([[0.5, -0.2], [0.1, 0.3]]))
    x = Tensor(np.array([[1.0, 2.0]]), requires_grad=False)
    with ComputationRecord() as record:
        loss = ops.sum_all(ops.gelu(ops.matmul(x, w)))
        grads = backward(loss)
        print(f"loss = {float(loss.data):.6f}")
        print(f"dL/dw =\n{grads[w.tid]}")
        assert x.tid not in grads, "frozen input stays out of the map"
        print(f"bytes charged inside the block: {record.ledger.current()}")
    print(f"bytes charged once it exits, loss and gradients still held: "
          f"{record.ledger.current()}")
    del loss, grads
    print(f"bytes charged once they die: {record.ledger.current()} "
          f"(peak {record.ledger.peak()})")

    print()
    print("== the same gradient, checked against finite differences ==")

    def objective(weights):
        hidden = ops.matmul(Tensor(np.array([[1.0, 2.0]])), weights)
        return ops.sum_all(ops.gelu(hidden))

    error = grad_check(objective, [w])
    print(f"max relative error vs central differences: {error:.2e}")

    print()
    print("== outside a record nothing is taped ==")
    silent = ops.matmul(x, w)
    print(f"output computed: {silent.data.round(3).tolist()}, "
          f"requires_grad={silent.requires_grad}")

    print()
    print("== a frozen parameter never gets gradients or optimizer state ==")
    frozen = Tensor(np.ones((2, 2)), requires_grad=False)
    live = Tensor.param(np.ones((2, 2)))
    with ComputationRecord():
        out = ops.sum_all(ops.matmul(frozen, live))
        grads = backward(out)
    print(f"gradient map covers live param: {live.tid in grads}, "
          f"frozen param: {frozen.tid in grads}")


if __name__ == "__main__":
    main()
