//! Minibatch SGD training with the paper's regularization recipe:
//! L2 weight decay (λ = 0.01) and gradient clipping (c = 2.5), §V-F.
//!
//! A step processes its minibatch as matrices. Activations and deltas are
//! feature-major `[width × lanes]` buffers, one lane per sample, padded to
//! whole lane blocks. Forward (`W·A`), back-propagation (`Wᵀ·Δ`) and the
//! weight gradient (`Δ·Aᵀ`) all run through one register-blocked product,
//! [`product`]. Every output element keeps the single left-to-right `f32`
//! sum a one-sample-at-a-time loop performs, so the trained parameters are
//! bit-identical to that loop's; see [`product`] for the order contract.

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::loss::Loss;
use crate::mlp::{Layer, Mlp};

/// Process-global memo of completed [`Trainer::fit`] calls.
///
/// Training is fully deterministic — the result is a pure function of the
/// hyperparameters, the network's initial state, and the dataset — so when
/// the same fit is requested twice in one process (the tier-1 bench trains
/// the identical PatrolBot detector for the baseline and Tartan
/// configurations, and robot training depends only on seed and scale, not
/// on the machine), the second call replays the cached parameters
/// bit-for-bit instead of re-running minutes of SGD. The key packs every
/// bit that feeds the computation, so a hit is exact by construction, not
/// by hashing.
type FitMemoEntry = (Vec<u64>, (Vec<Layer>, TrainReport));
static FIT_MEMO: Mutex<Vec<FitMemoEntry>> = Mutex::new(Vec::new());

/// Entries are environment-sized (the PatrolBot detector is ~150 KB); a
/// small cap bounds worst-case memo growth in long test processes.
const FIT_MEMO_MAX: usize = 32;

/// Summary statistics returned by [`Trainer::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainReport {
    /// Mean training loss after the final epoch.
    pub final_loss: f32,
    /// Number of epochs executed.
    pub epochs: usize,
    /// Fraction of training samples the final model *overestimates*
    /// (prediction > target on output 0) — the quantity the AXAR loss
    /// minimizes so that CPU rollbacks become rare (§V-F).
    pub overestimation_rate: f32,
}

/// Samples (or padded gradient columns) one register block spans: the
/// vector axis of every product.
const LANES: usize = 8;

/// Output rows one register block spans when the shape has that many.
const ROWS: usize = 4;

/// `n` rounded up to whole lane blocks.
fn padded(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

/// Where a product's coefficient `m(i, k)` lives in a row-major buffer.
#[derive(Clone, Copy)]
enum Coefs<'a> {
    /// `m(i, k) = data[i·stride + k]`: the weights for `W·A`, the deltas
    /// for `Δ·Aᵀ`.
    RowMajor(&'a [f32], usize),
    /// `m(i, k) = data[k·stride + i]`: the weights for `Wᵀ·Δ`.
    ColMajor(&'a [f32], usize),
}

/// `out[i][j] = Σ_k m(i, k) · x[k][j]` for `i < n_out`, `k < n_k`, and
/// every `j` of `x`'s rows, which are `width` long (a lane multiple).
/// `out` is resized to `[n_out × width]` and every element overwritten.
///
/// Order contract: each output element has exactly one accumulator. It
/// starts at `0.0` and adds the `k` terms in ascending `k`, the sequence a
/// one-sample-at-a-time dot product performs. A register block holds
/// [`ROWS`] × [`LANES`] such accumulators. They are independent chains,
/// not partial sums of one chain, so running them side by side hides the
/// floating-point add latency without reassociating anything. Rust never
/// contracts `a * b + c` into a fused multiply-add, so the bits do not
/// depend on the optimiser either.
///
/// The blocking follows the shape: rows left over after the [`ROWS`]-high
/// blocks (every row of a one-wide output layer) run one at a time.
fn product(n_out: usize, n_k: usize, m: Coefs, x: &[f32], width: usize, out: &mut Vec<f32>) {
    debug_assert!(
        width.is_multiple_of(LANES),
        "product rows must be whole lane blocks"
    );
    assert!(x.len() >= n_k * width, "product input is too short");
    out.resize(n_out * width, 0.0);
    let mut i0 = 0;
    while i0 + ROWS <= n_out {
        row_block::<ROWS>(i0, n_k, m, x, width, out);
        i0 += ROWS;
    }
    for i in i0..n_out {
        row_block::<1>(i, n_k, m, x, width, out);
    }
}

/// Output rows `i0..i0 + R` of [`product`], one lane block at a time.
fn row_block<const R: usize>(
    i0: usize,
    n_k: usize,
    m: Coefs,
    x: &[f32],
    width: usize,
    out: &mut [f32],
) {
    for j0 in (0..width).step_by(LANES) {
        let acc: [[f32; LANES]; R] = match m {
            Coefs::RowMajor(data, stride) => {
                let rows: [&[f32]; R] = std::array::from_fn(|i| &data[(i0 + i) * stride..][..n_k]);
                lane_block(n_k, |k| std::array::from_fn(|i| rows[i][k]), x, width, j0)
            }
            Coefs::ColMajor(data, stride) => lane_block(
                n_k,
                |k| {
                    data[k * stride + i0..][..R]
                        .try_into()
                        .expect("coefficient block is R wide")
                },
                x,
                width,
                j0,
            ),
        };
        for (i, lanes) in acc.iter().enumerate() {
            out[(i0 + i) * width + j0..][..LANES].copy_from_slice(lanes);
        }
    }
}

/// One `R × LANES` register block: `acc[i][j] += m(k)[i] · x[k][j0 + j]`
/// for `k` in ascending order.
#[inline(always)]
fn lane_block<const R: usize>(
    n_k: usize,
    m: impl Fn(usize) -> [f32; R],
    x: &[f32],
    width: usize,
    j0: usize,
) -> [[f32; LANES]; R] {
    let mut acc = [[0.0f32; LANES]; R];
    for (k, row) in x.chunks_exact(width).take(n_k).enumerate() {
        let coefs = m(k);
        let xs: &[f32; LANES] = row[j0..j0 + LANES]
            .try_into()
            .expect("lane block in bounds");
        for (acc_row, &c) in acc.iter_mut().zip(&coefs) {
            for (a, &v) in acc_row.iter_mut().zip(xs) {
                *a += c * v;
            }
        }
    }
    acc
}

/// Per-fit SGD state: the momentum of every parameter and the
/// feature-major minibatch buffers [`Trainer::step`] reuses.
struct SgdState {
    /// Momentum of each layer's weights, row-major, and biases.
    vel_w: Vec<Vec<f32>>,
    vel_b: Vec<Vec<f32>>,
    /// `acts[l]` is layer `l`'s input, `[width × lanes]`; the last entry is
    /// the network output.
    acts: Vec<Vec<f32>>,
    /// `acts_t[l]` is layer `l`'s input sample-major, `[batch × padded
    /// width]`. Only real samples are written; the padding columns stay
    /// zero.
    acts_t: Vec<Vec<f32>>,
    /// The delta at the current layer's output, `[rows × lanes]`, and the
    /// one back-propagated from it.
    delta: Vec<f32>,
    next_delta: Vec<f32>,
    /// Weight gradients, `[rows × padded cols]`, and bias gradients.
    grad_w: Vec<Vec<f32>>,
    grad_b: Vec<Vec<f32>>,
}

impl SgdState {
    fn new(mlp: &Mlp, batch: usize) -> Self {
        let per_layer = |len: &dyn Fn(&Layer) -> usize| -> Vec<Vec<f32>> {
            mlp.layers.iter().map(|l| vec![0.0; len(l)]).collect()
        };
        SgdState {
            vel_w: per_layer(&|l| l.weights.as_slice().len()),
            vel_b: per_layer(&|l| l.biases.len()),
            acts: vec![Vec::new(); mlp.layers.len() + 1],
            acts_t: per_layer(&|l| batch * padded(l.weights.cols())),
            delta: Vec::new(),
            next_delta: Vec::new(),
            grad_w: vec![Vec::new(); mlp.layers.len()],
            grad_b: per_layer(&|l| l.biases.len()),
        }
    }

    /// The momentum update `v = μ·v − η·g; p += v` of every parameter,
    /// where `g` is `weight_grad(raw gradient, old weight)` for weights and
    /// `bias_grad(raw gradient)` for biases.
    fn update(
        &mut self,
        mlp: &mut Mlp,
        (momentum, lr): (f32, f32),
        weight_grad: impl Fn(f32, f32) -> f32,
        bias_grad: impl Fn(f32) -> f32,
    ) {
        for (l, layer) in mlp.layers.iter_mut().enumerate() {
            let cols = layer.weights.cols();
            for ((g_row, v_row), w_row) in self.grad_w[l]
                .chunks_exact(padded(cols))
                .zip(self.vel_w[l].chunks_exact_mut(cols))
                .zip(layer.weights.as_mut_slice().chunks_exact_mut(cols))
            {
                for ((&g, v), w) in g_row.iter().zip(v_row).zip(w_row) {
                    *v = momentum * *v - lr * weight_grad(g, *w);
                    *w += *v;
                }
            }
            for ((&g, v), b) in self.grad_b[l]
                .iter()
                .zip(&mut self.vel_b[l])
                .zip(&mut layer.biases)
            {
                *v = momentum * *v - lr * bias_grad(g);
                *b += *v;
            }
        }
    }
}

/// A minibatch SGD trainer with momentum, L2 regularization, and global
/// gradient-norm clipping.
///
/// # Examples
///
/// ```
/// use tartan_nn::{Mlp, Topology, Loss, Trainer};
///
/// let topo = Topology::new(&[2, 8, 1]);
/// let mut mlp = Mlp::new(&topo, 0);
/// let xs = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
/// let ys = vec![vec![0.0], vec![1.0]];
/// let report = Trainer::new(Loss::Mse).epochs(200).fit(&mut mlp, &xs, &ys);
/// assert!(report.final_loss < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    loss: Loss,
    learning_rate: f32,
    momentum: f32,
    l2: f32,
    clip_norm: Option<f32>,
    epochs: usize,
    batch_size: usize,
    seed: u64,
}

impl Trainer {
    /// Creates a trainer with sensible defaults (lr 0.05, momentum 0.9,
    /// no regularization, no clipping, 100 epochs, batch 16).
    pub fn new(loss: Loss) -> Self {
        Trainer {
            loss,
            learning_rate: 0.05,
            momentum: 0.9,
            l2: 0.0,
            clip_norm: None,
            epochs: 100,
            batch_size: 16,
            seed: 0xC0FFEE,
        }
    }

    /// Sets the learning rate.
    pub fn learning_rate(mut self, lr: f32) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sets the momentum coefficient.
    pub fn momentum(mut self, m: f32) -> Self {
        self.momentum = m;
        self
    }

    /// Sets the L2 regularization strength λ (the paper uses 0.01).
    pub fn l2(mut self, lambda: f32) -> Self {
        self.l2 = lambda;
        self
    }

    /// Enables global gradient-norm clipping at `c` (the paper uses 2.5).
    pub fn clip_norm(mut self, c: f32) -> Self {
        self.clip_norm = Some(c);
        self
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the minibatch size.
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.batch_size = batch.max(1);
        self
    }

    /// Sets the shuffling seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The exact-match memo key: every bit of state the deterministic fit
    /// depends on, in a fixed order — hyperparameters, topology,
    /// activations, initial parameters, then the dataset.
    fn memo_key(&self, mlp: &Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> Vec<u64> {
        fn push_f32s(key: &mut Vec<u64>, xs: &[f32]) {
            key.push(xs.len() as u64);
            key.extend(xs.iter().map(|x| x.to_bits() as u64));
        }
        let mut key = Vec::new();
        match self.loss {
            Loss::Mse => key.push(0),
            Loss::Bce => key.push(1),
            Loss::Asymmetric { alpha } => {
                key.push(2);
                key.push(alpha.to_bits() as u64);
            }
        }
        push_f32s(&mut key, &[self.learning_rate, self.momentum, self.l2]);
        key.push(match self.clip_norm {
            None => u64::MAX,
            Some(c) => c.to_bits() as u64,
        });
        key.extend([self.epochs as u64, self.batch_size as u64, self.seed]);
        key.push(mlp.layers.len() as u64);
        for layer in &mlp.layers {
            key.push(layer.weights.rows() as u64);
            key.push(layer.weights.cols() as u64);
            key.push(layer.activation.memo_tag());
            push_f32s(&mut key, layer.weights.as_slice());
            push_f32s(&mut key, &layer.biases);
        }
        key.push(inputs.len() as u64);
        for (x, t) in inputs.iter().zip(targets.iter()) {
            push_f32s(&mut key, x);
            push_f32s(&mut key, t);
        }
        key
    }

    /// Trains `mlp` on `(inputs, targets)` pairs and reports final loss and
    /// overestimation rate.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or input/target shapes do not match
    /// the network topology.
    pub fn fit(&self, mlp: &mut Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) -> TrainReport {
        assert_eq!(inputs.len(), targets.len(), "inputs/targets must pair up");
        assert!(!inputs.is_empty(), "dataset must be non-empty");
        let (in_width, out_width) = (mlp.topology().input(), mlp.topology().output());
        assert!(
            inputs.iter().all(|x| x.len() == in_width),
            "every input must be {in_width} wide, the topology's input width"
        );
        assert!(
            targets.iter().all(|t| t.len() == out_width),
            "every target must be {out_width} wide, the topology's output width"
        );
        let key = self.memo_key(mlp, inputs, targets);
        let cached = FIT_MEMO
            .lock()
            .expect("fit memo poisoned by a panicking fit")
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone());
        if let Some((layers, report)) = cached {
            mlp.layers = layers;
            return report;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();

        let mut state = SgdState::new(mlp, self.batch_size.min(inputs.len()));
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(self.batch_size) {
                self.step(mlp, inputs, targets, chunk, &mut state);
            }
        }

        let preds: Vec<Vec<f32>> = inputs.iter().map(|x| mlp.forward(x)).collect();
        let final_loss = self.loss.mean(targets, &preds);
        let over = preds
            .iter()
            .zip(targets.iter())
            .filter(|(p, t)| p[0] > t[0])
            .count();
        let report = TrainReport {
            final_loss,
            epochs: self.epochs,
            overestimation_rate: over as f32 / inputs.len() as f32,
        };
        let mut memo = FIT_MEMO
            .lock()
            .expect("fit memo poisoned by a panicking fit");
        if memo.len() >= FIT_MEMO_MAX {
            memo.remove(0);
        }
        memo.push((key, (mlp.layers.clone(), report)));
        report
    }

    /// One SGD step over the index batch `chunk`, processed as matrices
    /// with one lane per sample.
    fn step(
        &self,
        mlp: &mut Mlp,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
        chunk: &[usize],
        state: &mut SgdState,
    ) {
        let n = chunk.len();
        let lanes = padded(n);
        let n_layers = mlp.layers.len();
        let SgdState {
            acts,
            acts_t,
            delta,
            next_delta,
            grad_w,
            grad_b,
            ..
        } = state;

        // Gather the inputs in both layouts: feature-major for the forward
        // product, sample-major for the weight gradient. Padding stays zero.
        let in_width = mlp.topology().input();
        acts[0].clear();
        acts[0].resize(in_width * lanes, 0.0);
        for (s, &idx) in chunk.iter().enumerate() {
            acts_t[0][s * padded(in_width)..][..in_width].copy_from_slice(&inputs[idx]);
            for (row, &x) in acts[0].chunks_exact_mut(lanes).zip(&inputs[idx]) {
                row[s] = x;
            }
        }

        // Forward: Z = W·A, then bias and activation on the real lanes,
        // which a hidden layer also writes sample-major.
        for (l, layer) in mlp.layers.iter().enumerate() {
            let (done, rest) = acts.split_at_mut(l + 1);
            let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
            let z = &mut rest[0];
            product(
                rows,
                cols,
                Coefs::RowMajor(layer.weights.as_slice(), cols),
                &done[l],
                lanes,
                z,
            );
            let mut z_t = acts_t.get_mut(l + 1);
            for (r, (row, &b)) in z.chunks_exact_mut(lanes).zip(&layer.biases).enumerate() {
                for (s, zi) in row[..n].iter_mut().enumerate() {
                    *zi = layer.activation.apply(*zi + b);
                    if let Some(z_t) = z_t.as_deref_mut() {
                        z_t[s * padded(rows) + r] = *zi;
                    }
                }
            }
        }

        // Delta at the output layer; padding lanes stay zero.
        let last = &mlp.layers[n_layers - 1];
        delta.clear();
        delta.resize(last.weights.rows() * lanes, 0.0);
        for (r, (d_row, y_row)) in delta
            .chunks_exact_mut(lanes)
            .zip(acts[n_layers].chunks_exact(lanes))
            .enumerate()
        {
            for ((d, &y), &idx) in d_row.iter_mut().zip(y_row).zip(chunk) {
                *d = self.loss.gradient(targets[idx][r], y)
                    * last.activation.derivative_from_output(y);
            }
        }

        // Backward: G = Δ·Aᵀ and the bias sums over the real samples in
        // chunk order, then Δ' = Wᵀ·Δ scaled by the activation derivative.
        for l in (0..n_layers).rev() {
            let layer = &mlp.layers[l];
            let (rows, cols) = (layer.weights.rows(), layer.weights.cols());
            product(
                rows,
                n,
                Coefs::RowMajor(delta, lanes),
                &acts_t[l],
                padded(cols),
                &mut grad_w[l],
            );
            for (g, d_row) in grad_b[l].iter_mut().zip(delta.chunks_exact(lanes)) {
                *g = d_row[..n].iter().fold(0.0, |acc, &d| acc + d);
            }
            if l > 0 {
                product(
                    cols,
                    rows,
                    Coefs::ColMajor(layer.weights.as_slice(), cols),
                    delta,
                    lanes,
                    next_delta,
                );
                let below = mlp.layers[l - 1].activation;
                for (d_row, y_row) in next_delta
                    .chunks_exact_mut(lanes)
                    .zip(acts[l].chunks_exact(lanes))
                {
                    for (d, &y) in d_row[..n].iter_mut().zip(&y_row[..n]) {
                        *d *= below.derivative_from_output(y);
                    }
                }
                std::mem::swap(delta, next_delta);
            }
        }

        // Mean over the batch plus L2 on the weights (not biases), clipping
        // on the global norm, then momentum: per element, the operations
        // and their order of a scale pass, a clip pass and an update pass.
        let scale = 1.0 / n as f32;
        let two_l2 = 2.0 * self.l2;
        let rates = (self.momentum, self.learning_rate);
        let Some(c) = self.clip_norm else {
            return state.update(mlp, rates, |g, w| g * scale + two_l2 * w, |g| g * scale);
        };
        let mut norm_sq = 0.0f32;
        for (gw, layer) in grad_w.iter_mut().zip(&mlp.layers) {
            let cols = layer.weights.cols();
            let mut layer_sq = 0.0f32;
            for (g_row, w_row) in gw
                .chunks_exact_mut(padded(cols))
                .zip(layer.weights.as_slice().chunks_exact(cols))
            {
                for (g, &w) in g_row.iter_mut().zip(w_row) {
                    *g = *g * scale + two_l2 * w;
                    layer_sq += *g * *g;
                }
            }
            norm_sq += layer_sq;
        }
        for gb in grad_b.iter_mut() {
            let mut layer_sq = 0.0f32;
            for g in gb.iter_mut() {
                *g *= scale;
                layer_sq += *g * *g;
            }
            norm_sq += layer_sq;
        }
        let norm = norm_sq.sqrt();
        if norm > c {
            let s = c / norm;
            state.update(mlp, rates, |g, _| g * s, |g| g * s);
        } else {
            state.update(mlp, rates, |g, _| g, |g| g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::mlp::{Activation, Topology};
    use rand::RngExt;

    /// Numerical gradient check: analytic backprop gradients must match
    /// finite differences of the loss.
    #[test]
    fn backprop_matches_finite_differences() {
        let topo = Topology::new(&[2, 3, 1]);
        let mlp = Mlp::new(&topo, 11);
        let x = vec![0.4f32, -0.7];
        let t = vec![0.3f32];
        let loss = Loss::Mse;

        // Analytic gradient of one sample: reuse a single trainer step with
        // lr so small that parameters barely move, then compare parameter
        // deltas against finite-difference gradients.
        let eval = |m: &Mlp| loss.value(t[0], m.forward(&x)[0]);
        let base = eval(&mlp);
        let h = 1e-3f32;

        // Finite-difference gradient for the first weight of layer 0.
        let mut plus = mlp.clone();
        plus.layers[0].weights[(0, 0)] += h;
        let fd = (eval(&plus) - base) / h;

        // Analytic: run one plain-SGD step (no momentum/clip/L2) with lr=1,
        // and read off the applied delta = -gradient.
        let trainer = Trainer::new(loss)
            .learning_rate(1.0)
            .momentum(0.0)
            .epochs(1)
            .batch_size(1);
        let mut trained = mlp.clone();
        trainer.fit(&mut trained, std::slice::from_ref(&x), std::slice::from_ref(&t));
        let analytic = mlp.layers[0].weights[(0, 0)] - trained.layers[0].weights[(0, 0)];
        assert!(
            (analytic - fd).abs() < 5e-2 * (1.0 + fd.abs()),
            "analytic {analytic} vs finite-difference {fd}"
        );
    }

    #[test]
    fn learns_xor_with_sigmoid_output() {
        let topo = Topology::new(&[2, 8, 1]);
        let mut mlp = Mlp::new(&topo, 5);
        mlp.set_output_activation(Activation::Sigmoid);
        let xs = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let ys = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        Trainer::new(Loss::Bce)
            .learning_rate(0.5)
            .epochs(2000)
            .batch_size(4)
            .fit(&mut mlp, &xs, &ys);
        for (x, y) in xs.iter().zip(ys.iter()) {
            let p = mlp.forward(x)[0];
            assert_eq!((p > 0.5) as i32 as f32, y[0], "xor({x:?}) predicted {p}");
        }
    }

    #[test]
    fn asymmetric_loss_reduces_overestimation() {
        // Regression task with noise: the AXAR loss should leave far fewer
        // overestimated samples than plain MSE.
        let topo = Topology::new(&[1, 8, 1]);
        let xs: Vec<Vec<f32>> = (0..128).map(|i| vec![i as f32 / 128.0]).collect();
        let ys: Vec<Vec<f32>> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| vec![x[0] + 0.05 * ((i % 7) as f32 / 7.0 - 0.5)])
            .collect();

        let mut mse_mlp = Mlp::new(&topo, 2);
        let mse_report = Trainer::new(Loss::Mse)
            .epochs(300)
            .fit(&mut mse_mlp, &xs, &ys);

        let mut ax_mlp = Mlp::new(&topo, 2);
        let ax_report = Trainer::new(Loss::Asymmetric { alpha: 8.0 })
            .l2(0.01)
            .clip_norm(2.5)
            .epochs(300)
            .fit(&mut ax_mlp, &xs, &ys);

        assert!(
            ax_report.overestimation_rate < mse_report.overestimation_rate,
            "AXAR {} vs MSE {}",
            ax_report.overestimation_rate,
            mse_report.overestimation_rate
        );
    }

    #[test]
    fn clipping_keeps_training_stable_at_high_lr() {
        let topo = Topology::new(&[1, 4, 1]);
        let xs: Vec<Vec<f32>> = (0..32).map(|i| vec![i as f32]).collect();
        let ys: Vec<Vec<f32>> = xs.iter().map(|x| vec![x[0] * 2.0]).collect();
        let mut mlp = Mlp::new(&topo, 9);
        let report = Trainer::new(Loss::Mse)
            .learning_rate(0.5)
            .clip_norm(2.5)
            .epochs(50)
            .fit(&mut mlp, &xs, &ys);
        assert!(
            report.final_loss.is_finite(),
            "clipped training must not diverge to NaN/inf"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let topo = Topology::new(&[2, 4, 1]);
        let xs = vec![vec![0.1, 0.9], vec![0.8, 0.2]];
        let ys = vec![vec![1.0], vec![0.0]];
        let run = || {
            let mut mlp = Mlp::new(&topo, 1);
            Trainer::new(Loss::Mse).epochs(20).fit(&mut mlp, &xs, &ys);
            mlp.forward(&[0.5, 0.5])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fit_memo_never_conflates_distinct_fits() {
        // Same topology and dataset, different seed / epochs / lr: each
        // variation must produce its own result, not a stale memo hit.
        let topo = Topology::new(&[2, 4, 1]);
        let xs = vec![vec![0.2, 0.6], vec![0.9, 0.1]];
        let ys = vec![vec![0.0], vec![1.0]];
        let run = |seed: u64, epochs: usize, lr: f32| {
            let mut mlp = Mlp::new(&topo, seed);
            Trainer::new(Loss::Mse)
                .learning_rate(lr)
                .epochs(epochs)
                .fit(&mut mlp, &xs, &ys);
            mlp.forward(&[0.4, 0.4])
        };
        let base = run(1, 30, 0.05);
        assert_eq!(base, run(1, 30, 0.05), "identical fit must replay identically");
        assert_ne!(base, run(2, 30, 0.05), "seed must be part of the memo key");
        assert_ne!(base, run(1, 31, 0.05), "epochs must be part of the memo key");
        assert_ne!(base, run(1, 30, 0.06), "lr must be part of the memo key");
    }

    #[test]
    #[should_panic(expected = "dataset must be non-empty")]
    fn empty_dataset_rejected() {
        let topo = Topology::new(&[1, 1]);
        let mut mlp = Mlp::new(&topo, 0);
        let _ = Trainer::new(Loss::Mse).fit(&mut mlp, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "every input must be 2 wide")]
    fn wrong_input_width_rejected() {
        let mut mlp = Mlp::new(&Topology::new(&[2, 3, 1]), 0);
        let xs = vec![vec![0.1, 0.2], vec![0.3, 0.4, 0.5]];
        let _ = Trainer::new(Loss::Mse).fit(&mut mlp, &xs, &[vec![0.0], vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "every target must be 1 wide")]
    fn wider_target_rejected() {
        let mut mlp = Mlp::new(&Topology::new(&[2, 3, 1]), 0);
        let xs = vec![vec![0.1, 0.2], vec![0.3, 0.4]];
        let _ = Trainer::new(Loss::Mse).fit(&mut mlp, &xs, &[vec![0.0], vec![1.0, 0.5]]);
    }

    /// The one-sample-at-a-time trainer the minibatch step replaced, kept
    /// as the bit-identity reference: the same shuffle and chunks, then per
    /// sample a forward trace, the output delta, the gradient accumulation
    /// and back-propagation, and finally the scale, clip and momentum
    /// passes. It runs its own loop, so the fit memo cannot serve it.
    fn reference_fit(trainer: &Trainer, mlp: &mut Mlp, inputs: &[Vec<f32>], targets: &[Vec<f32>]) {
        let n_layers = mlp.layers.len();
        let zeros = |mlp: &Mlp| -> (Vec<Matrix>, Vec<Vec<f32>>) {
            (
                mlp.layers
                    .iter()
                    .map(|l| Matrix::zeros(l.weights.rows(), l.weights.cols()))
                    .collect(),
                mlp.layers
                    .iter()
                    .map(|l| vec![0.0; l.biases.len()])
                    .collect(),
            )
        };
        let (mut vel_w, mut vel_b) = zeros(mlp);
        let mut rng = StdRng::seed_from_u64(trainer.seed);
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        for _ in 0..trainer.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(trainer.batch_size) {
                let (mut grad_w, mut grad_b) = zeros(mlp);
                for &idx in chunk {
                    let mut trace = vec![inputs[idx].clone()];
                    for layer in &mlp.layers {
                        let mut z = layer
                            .weights
                            .mul_vec(trace.last().expect("trace starts with the input"));
                        for (zi, b) in z.iter_mut().zip(&layer.biases) {
                            *zi = layer.activation.apply(*zi + b);
                        }
                        trace.push(z);
                    }
                    let output = &trace[n_layers];
                    let mut delta: Vec<f32> = output
                        .iter()
                        .zip(&targets[idx])
                        .map(|(p, t)| trainer.loss.gradient(*t, *p))
                        .collect();
                    for (d, y) in delta.iter_mut().zip(output) {
                        *d *= mlp.layers[n_layers - 1]
                            .activation
                            .derivative_from_output(*y);
                    }
                    for l in (0..n_layers).rev() {
                        for (r, &d) in delta.iter().enumerate() {
                            grad_b[l][r] += d;
                            for (g, &a) in grad_w[l].row_mut(r).iter_mut().zip(&trace[l]) {
                                *g += d * a;
                            }
                        }
                        if l > 0 {
                            let mut next = mlp.layers[l].weights.mul_vec_transposed(&delta);
                            for (d, y) in next.iter_mut().zip(&trace[l]) {
                                *d *= mlp.layers[l - 1].activation.derivative_from_output(*y);
                            }
                            delta = next;
                        }
                    }
                }
                let scale = 1.0 / chunk.len() as f32;
                for (gw, layer) in grad_w.iter_mut().zip(&mlp.layers) {
                    for (g, w) in gw.as_mut_slice().iter_mut().zip(layer.weights.as_slice()) {
                        *g = *g * scale + 2.0 * trainer.l2 * w;
                    }
                }
                for g in grad_b.iter_mut().flatten() {
                    *g *= scale;
                }
                if let Some(c) = trainer.clip_norm {
                    let mut norm_sq = 0.0f32;
                    for gw in &grad_w {
                        norm_sq += gw.norm_sq();
                    }
                    for gb in &grad_b {
                        norm_sq += gb.iter().map(|g| g * g).sum::<f32>();
                    }
                    let norm = norm_sq.sqrt();
                    if norm > c {
                        let s = c / norm;
                        for g in grad_w
                            .iter_mut()
                            .flat_map(|gw| gw.as_mut_slice().iter_mut())
                        {
                            *g *= s;
                        }
                        for g in grad_b.iter_mut().flatten() {
                            *g *= s;
                        }
                    }
                }
                for (l, layer) in mlp.layers.iter_mut().enumerate() {
                    for ((v, g), w) in vel_w[l]
                        .as_mut_slice()
                        .iter_mut()
                        .zip(grad_w[l].as_slice())
                        .zip(layer.weights.as_mut_slice())
                    {
                        *v = trainer.momentum * *v - trainer.learning_rate * g;
                        *w += *v;
                    }
                    for ((v, g), b) in vel_b[l]
                        .iter_mut()
                        .zip(&grad_b[l])
                        .zip(layer.biases.iter_mut())
                    {
                        *v = trainer.momentum * *v - trainer.learning_rate * g;
                        *b += *v;
                    }
                }
            }
        }
    }

    /// Every weight and bias as raw bits, layer by layer.
    fn parameter_bits(mlp: &Mlp) -> Vec<u32> {
        mlp.layers
            .iter()
            .flat_map(|l| l.weights.as_slice().iter().chain(&l.biases))
            .map(|x| x.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// The minibatch step leaves every parameter bit-identical to the
        /// per-sample reference: random depth 1–4 and widths 1–40 (most not
        /// block multiples), batch sizes 1, 3, 16, 17 and larger than the
        /// dataset with a ragged last chunk, every loss with and without L2
        /// and clipping.
        #[test]
        fn minibatch_step_matches_per_sample_reference(
            widths in proptest::collection::vec(1usize..41, 2..6),
            seed in 0u64..1_000_000,
        ) {
            let topo = Topology::new(&widths);
            let n = 37;
            let mut draw = StdRng::seed_from_u64(seed);
            let inputs: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..topo.input()).map(|_| draw.random_range(-1.0f32..1.0)).collect())
                .collect();
            let targets: Vec<Vec<f32>> = (0..n)
                .map(|_| (0..topo.output()).map(|_| draw.random_range(0.0f32..1.0)).collect())
                .collect();
            for loss in [Loss::Mse, Loss::Bce, Loss::Asymmetric { alpha: 8.0 }] {
                for (l2, clip) in [(0.0, None), (0.01, None), (0.0, Some(0.5)), (0.01, Some(2.5))] {
                    for batch in [1, 3, 16, 17, n + 5] {
                        let mut trainer = Trainer::new(loss)
                            .learning_rate(0.05)
                            .l2(l2)
                            .epochs(2)
                            .batch_size(batch)
                            .seed(seed);
                        trainer.clip_norm = clip;
                        let mut fitted = Mlp::new(&topo, seed);
                        if loss == Loss::Bce {
                            fitted.set_output_activation(Activation::Sigmoid);
                        }
                        let mut reference = fitted.clone();
                        trainer.fit(&mut fitted, &inputs, &targets);
                        reference_fit(&trainer, &mut reference, &inputs, &targets);
                        // The contract covers numbers, not NaN bits: the
                        // compiler does not preserve a NaN's sign or payload.
                        let expected = parameter_bits(&reference);
                        proptest::prop_assert!(
                            expected.iter().all(|&b| f32::from_bits(b).is_finite()),
                            "{} {:?} diverged",
                            topo,
                            loss
                        );
                        proptest::prop_assert_eq!(
                            parameter_bits(&fitted),
                            expected,
                            "{} {:?} l2 {} clip {:?} batch {}", topo, loss, l2, clip, batch
                        );
                    }
                }
            }
        }
    }
}
