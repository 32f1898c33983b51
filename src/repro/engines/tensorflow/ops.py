"""The miniTF op set, with the paper's documented restrictions.

Each op defines real evaluation over :class:`Tensor` payloads and a
nominal cost.  Restrictions faithful to Section 4.5 / 5.2.2:

- ``gather`` selects only along the FIRST axis ("TensorFlow, however,
  only supports filtering along the first dimension"), so selecting
  image volumes requires transposing/reshaping first -- priced as full
  data movement, which is why the TF filter is orders of magnitude
  slower (Figure 12a).
- There is no masked element-wise assignment ("TensorFlow does not
  support element-wise data assignment"), so the denoise step must
  process whole tensors (Figure 12c).
"""

import numpy as np

from repro.engines.tensorflow.tensor import Tensor


class OpError(Exception):
    """Unsupported or ill-typed graph operation."""


def _elements(tensor):
    return tensor.nominal_elements


# Each entry: (evaluate(cost_model, *inputs, **attrs) -> Tensor,
#              cost(cost_model, *inputs, **attrs) -> seconds)

def _reduce_mean_eval(inputs, axis):
    t = inputs[0]
    out = t.array.mean(axis=axis)
    nominal = tuple(
        d for i, d in enumerate(t.nominal_shape) if i != axis % len(t.nominal_shape)
    ) if axis is not None else ()
    if axis is None:
        out = np.asarray(t.array.mean())
        nominal = ()
    return Tensor(out, nominal_shape=nominal or (1,))


def _reduce_mean_cost(cm, inputs, axis):
    return _elements(inputs[0]) * cm.elementwise_per_element


def _reshape_eval(inputs, new_nominal, new_real):
    t = inputs[0]
    return Tensor(t.array.reshape(new_real), nominal_shape=new_nominal)


def _reshape_cost(cm, inputs, new_nominal, new_real):
    # Reshape across non-contiguous layouts moves the whole tensor
    # twice (read + write): "reshaping is expensive compared with
    # filtering" (Section 5.2.2).
    return 2.0 * inputs[0].nominal_bytes * cm.memcpy_per_byte


def _gather_eval(inputs, indices, nominal_indices):
    t = inputs[0]
    real = t.array[np.asarray(indices, dtype=int)]
    nominal = (len(nominal_indices),) + tuple(t.nominal_shape[1:])
    return Tensor(real, nominal_shape=nominal)


def _gather_cost(cm, inputs, indices, nominal_indices):
    t = inputs[0]
    per_row = t.nominal_bytes // max(1, t.nominal_shape[0])
    return len(nominal_indices) * per_row * cm.memcpy_per_byte


def _transpose_eval(inputs, perm):
    t = inputs[0]
    real = np.transpose(t.array, perm)
    nominal = tuple(t.nominal_shape[p] for p in perm)
    return Tensor(real, nominal_shape=nominal)


def _transpose_cost(cm, inputs, perm):
    return 2.0 * inputs[0].nominal_bytes * cm.memcpy_per_byte


def _conv3d_eval(inputs, kernel):
    from repro.algorithms.stencil import convolve3d

    t = inputs[0]
    return Tensor(convolve3d(t.array, kernel), nominal_shape=t.nominal_shape)


def _conv3d_cost(cm, inputs, kernel):
    taps = int(np.asarray(kernel).size)
    return _elements(inputs[0]) * taps * cm.elementwise_per_element


OPS = {
    "reduce_mean": (
        lambda cm, inputs, **a: _reduce_mean_eval(inputs, **a),
        lambda cm, inputs, **a: _reduce_mean_cost(cm, inputs, **a),
    ),
    "reshape": (
        lambda cm, inputs, **a: _reshape_eval(inputs, **a),
        lambda cm, inputs, **a: _reshape_cost(cm, inputs, **a),
    ),
    "gather": (
        lambda cm, inputs, **a: _gather_eval(inputs, **a),
        lambda cm, inputs, **a: _gather_cost(cm, inputs, **a),
    ),
    "transpose": (
        lambda cm, inputs, **a: _transpose_eval(inputs, **a),
        lambda cm, inputs, **a: _transpose_cost(cm, inputs, **a),
    ),
    "conv3d": (
        lambda cm, inputs, **a: _conv3d_eval(inputs, **a),
        lambda cm, inputs, **a: _conv3d_cost(cm, inputs, **a),
    ),
    "identity": (
        lambda cm, inputs, **a: inputs[0],
        lambda cm, inputs, **a: 0.0,
    ),
}
