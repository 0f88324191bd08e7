use crate::optim::Parameterized;
use muffin_tensor::{Init, Matrix, Rng64};

/// A fully connected layer computing `y = x · W + b`.
///
/// `W` has shape `(in_dim, out_dim)` so a batch `x` of shape
/// `(batch, in_dim)` produces `(batch, out_dim)`. Gradients are accumulated
/// into the layer by [`Linear::backward`] and cleared by
/// [`Parameterized::zero_grad`].
///
/// # Example
///
/// ```
/// use muffin_nn::Linear;
/// use muffin_tensor::{Matrix, Rng64};
///
/// let mut rng = Rng64::seed(1);
/// let layer = Linear::new(3, 2, &mut rng);
/// let x = Matrix::zeros(4, 3);
/// assert_eq!(layer.forward(&x).shape(), (4, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Matrix,
    bias: Vec<f32>,
    grad_weight: Matrix,
    grad_bias: Vec<f32>,
}

muffin_json::impl_json!(struct Linear { weight, bias, grad_weight, grad_bias });

impl Linear {
    /// Creates a layer with He-normal weights and zero biases.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut Rng64) -> Self {
        Self::with_init(in_dim, out_dim, Init::HeNormal, rng)
    }

    /// Creates a layer with the given weight initialisation.
    pub fn with_init(in_dim: usize, out_dim: usize, init: Init, rng: &mut Rng64) -> Self {
        Self {
            weight: Matrix::random(in_dim, out_dim, init, rng),
            bias: vec![0.0; out_dim],
            grad_weight: Matrix::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Borrow of the weight matrix.
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// Borrow of the bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Checks that the bias and both gradient buffers match the weight's
    /// shape, as a layer decoded from a file need not.
    pub(crate) fn check_shapes(&self) -> Result<(), String> {
        let (rows, cols) = self.weight.shape();
        if self.bias.len() != cols
            || self.grad_bias.len() != cols
            || self.grad_weight.shape() != (rows, cols)
        {
            return Err(format!(
                "weight is {rows}x{cols} but bias has {}, grad_weight is {}x{} \
                 and grad_bias has {} entries",
                self.bias.len(),
                self.grad_weight.rows(),
                self.grad_weight.cols(),
                self.grad_bias.len()
            ));
        }
        Ok(())
    }

    /// Forward pass: `x · W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(x, &mut out);
        out
    }

    /// [`Linear::forward`] writing into `out`, reusing its allocation.
    /// Byte-identical to `forward`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.weight, out);
        out.add_row_in_place(&self.bias);
    }

    /// Backward pass for the batch whose forward input was `input`.
    ///
    /// Accumulates `∂L/∂W` and `∂L/∂b` into the layer and returns
    /// `∂L/∂input`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with the forward pass.
    pub fn backward(&mut self, input: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut dw = Matrix::zeros(0, 0);
        let mut db = Vec::new();
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(input, grad_out, &mut dw, &mut db, &mut grad_in);
        grad_in
    }

    /// [`Linear::backward`] writing `∂L/∂input` into `grad_in` and using
    /// `dw`/`db` as scratch, reusing all three allocations. Accumulation
    /// order matches `backward` exactly, so gradients are byte-identical.
    pub fn backward_into(
        &mut self,
        input: &Matrix,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
        grad_in: &mut Matrix,
    ) {
        self.accumulate_grads(input, grad_out, dw, db);
        // dX = grad_out . W^T
        grad_out.matmul_nt_into(&self.weight, grad_in);
    }

    /// Accumulates `∂L/∂W` and `∂L/∂b` without computing `∂L/∂input`
    /// (the input gradient of the first layer is never consumed).
    pub fn accumulate_grads(
        &mut self,
        input: &Matrix,
        grad_out: &Matrix,
        dw: &mut Matrix,
        db: &mut Vec<f32>,
    ) {
        debug_assert_eq!(input.rows(), grad_out.rows());
        // dW = input^T . grad_out
        input.matmul_tn_into(grad_out, dw);
        self.grad_weight.axpy(1.0, dw);
        // db = column sums of grad_out
        grad_out.col_sums_into(db);
        for (gb, &g) in self.grad_bias.iter_mut().zip(db.iter()) {
            *gb += g;
        }
    }
}

impl Parameterized for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.weight.as_mut_slice(), self.grad_weight.as_mut_slice());
        f(&mut self.bias, &mut self.grad_bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Parameterized;

    fn layer() -> Linear {
        let mut rng = Rng64::seed(3);
        Linear::new(4, 3, &mut rng)
    }

    #[test]
    fn forward_shape() {
        let l = layer();
        let x = Matrix::zeros(5, 4);
        assert_eq!(l.forward(&x).shape(), (5, 3));
    }

    #[test]
    fn forward_applies_bias() {
        let mut rng = Rng64::seed(3);
        let mut l = Linear::with_init(2, 2, Init::Zeros, &mut rng);
        l.visit_params(&mut |p, _| {
            if p.len() == 2 {
                p.copy_from_slice(&[1.0, -1.0]); // bias
            }
        });
        let out = l.forward(&Matrix::zeros(1, 2));
        assert_eq!(out.row(0), &[1.0, -1.0]);
    }

    #[test]
    fn param_count_matches_shapes() {
        assert_eq!(layer().param_count(), 4 * 3 + 3);
    }

    #[test]
    fn backward_gradient_matches_finite_difference() {
        let mut rng = Rng64::seed(9);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = Matrix::random(4, 3, Init::ScaledNormal { std_dev: 1.0 }, &mut rng);
        // Loss = sum(forward(x)); grad_out = ones.
        let grad_out = Matrix::filled(4, 2, 1.0);
        l.zero_grad();
        let grad_in = l.backward(&x, &grad_out);

        // Finite difference on one weight entry.
        let h = 1e-2f32;
        let base: f32 = l.forward(&x).sum();
        let mut l2 = l.clone();
        l2.visit_params(&mut |p, _| {
            if p.len() == 6 {
                p[0] += h;
            }
        });
        let bumped: f32 = l2.forward(&x).sum();
        let numeric = (bumped - base) / h;
        let mut analytic = 0.0;
        l.visit_params(&mut |p, g| {
            if p.len() == 6 {
                analytic = g[0];
            }
        });
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} vs {analytic}");

        // grad wrt input: column sums of W rows.
        assert_eq!(grad_in.shape(), x.shape());
    }

    #[test]
    fn backward_accumulates_bias_gradient() {
        let mut l = layer();
        l.zero_grad();
        let x = Matrix::filled(2, 4, 0.0);
        let grad_out = Matrix::filled(2, 3, 1.0);
        l.backward(&x, &grad_out);
        l.visit_params(&mut |p, g| {
            if p.len() == 3 {
                assert!(g.iter().all(|&v| (v - 2.0).abs() < 1e-6));
            }
        });
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut l = layer();
        let x = Matrix::filled(2, 4, 1.0);
        let grad_out = Matrix::filled(2, 3, 1.0);
        l.backward(&x, &grad_out);
        l.zero_grad();
        l.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }
}
