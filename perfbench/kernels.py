"""Computed FLOP counts of the converter networks, derived from ModelArch.

These are counts, not measurements: the benchmark divides them by span time
to label a `gflops_per_s` figure as computed.

One converter forward pass touches every weight of that converter once per
frame, as one multiply-add (2 FLOPs):

    in conv l     : conv_channels x kernel x c_in      (c_in = in_dim, then conv_channels)
    GRU input     : 3 gru_hidden x (conv_channels + out_dim)
    GRU recurrent : 3 gru_hidden x gru_hidden
    out conv l    : c_out x kernel x c_in              (c_in = gru_hidden, then conv_channels;
                                                        c_out = out_dim on the last layer)

    forward FLOPs/frame = 2 x (sum of the products above)

Biases, gate nonlinearities and the elementwise GRU update are left out; at
the default arch they add under 1 %. A training step (`loss_gradients` with
rho > 0) runs three forward passes (f(X), g(Y), f(splice(g(Y), Y))) and three
backward passes; each backward pass costs two forward passes (the gradient
with respect to the weights and with respect to the layer input):

    train-step FLOPs/frame = 3 x forward + 3 x 2 x forward = 9 x forward

The self-conversion `cycle_path` runs two forward passes (g, then f).
"""


def forward_macs_per_frame(arch):
    macs = 0
    cin = arch.in_dim
    for _ in range(arch.in_conv_layers):
        macs += arch.conv_channels * arch.kernel * cin
        cin = arch.conv_channels
    macs += 3 * arch.gru_hidden * (arch.conv_channels + arch.out_dim)
    macs += 3 * arch.gru_hidden * arch.gru_hidden
    cin = arch.gru_hidden
    for layer in range(arch.out_conv_layers):
        cout = arch.out_dim if layer == arch.out_conv_layers - 1 else arch.conv_channels
        macs += cout * arch.kernel * cin
        cin = cout
    return macs


def forward_flops_per_frame(arch):
    return 2 * forward_macs_per_frame(arch)


def train_step_flops_per_frame(arch):
    return 9 * forward_flops_per_frame(arch)
