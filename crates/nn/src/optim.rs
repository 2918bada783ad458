//! Optimizers: Adam (used for all autoencoder training in this reproduction)
//! and plain SGD (kept for ablations and tests).
//!
//! The optimizer owns its moment buffers, keyed by position in the parameter
//! list, so the same optimizer instance must always be stepped with the same
//! model's parameter list (which is how [`crate::train::Trainer`] uses it).

use crate::layer::Param;

/// Adam optimizer with bias-corrected first/second moments.
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Adam with the usual defaults (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Current learning rate.
    pub fn learning_rate(&self) -> f32 {
        self.lr
    }

    /// Change the learning rate (for simple decay schedules).
    pub fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Apply one update step to `params` using their accumulated gradients,
    /// then clear the gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.len() != params.len() {
            self.m = params.iter().map(|p| vec![0.0; p.len()]).collect();
            self.v = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        self.step += 1;
        let t = self.step as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        for (idx, param) in params.iter_mut().enumerate() {
            let m = &mut self.m[idx];
            let v = &mut self.v[idx];
            assert_eq!(m.len(), param.len(), "parameter list changed between steps");
            let Param { value, grad } = &mut **param;
            let (values, grads) = (value.as_mut_slice(), grad.as_slice());
            for i in 0..values.len() {
                let g = grads[i];
                m[i] = self.beta1 * m[i] + (1.0 - self.beta1) * g;
                v[i] = self.beta2 * v[i] + (1.0 - self.beta2) * g * g;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                values[i] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
            param.zero_grad();
        }
    }
}

/// Plain stochastic gradient descent (no momentum).
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }

    /// Apply one update step and clear the gradients.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        for param in params.iter_mut() {
            let Param { value, grad } = &mut **param;
            for (v, &g) in value.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *v -= self.lr * g;
            }
            param.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aesz_tensor::Tensor;

    /// Minimise f(x) = (x − 3)² with each optimizer; both must converge.
    fn quadratic_descent(optimizer: &mut dyn FnMut(&mut [&mut Param])) -> f32 {
        let mut p = Param::new(Tensor::zeros(&[1]));
        for _ in 0..500 {
            let x = p.value.as_slice()[0];
            p.grad = Tensor::from_vec(&[1], vec![2.0 * (x - 3.0)]).unwrap();
            optimizer(&mut [&mut p]);
        }
        p.value.as_slice()[0]
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.05);
        let x = quadratic_descent(&mut |ps| adam.step(ps));
        assert!((x - 3.0).abs() < 0.05, "x = {x}");
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.05);
        let x = quadratic_descent(&mut |ps| sgd.step(ps));
        assert!((x - 3.0).abs() < 0.01, "x = {x}");
    }

    #[test]
    fn step_clears_gradients() {
        let mut adam = Adam::new(0.01);
        let mut p = Param::new(Tensor::ones(&[4]));
        p.grad = Tensor::ones(&[4]);
        adam.step(&mut [&mut p]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn learning_rate_can_be_decayed() {
        let mut adam = Adam::new(0.1);
        assert_eq!(adam.learning_rate(), 0.1);
        adam.set_learning_rate(0.01);
        assert_eq!(adam.learning_rate(), 0.01);
    }

    #[test]
    #[should_panic(expected = "parameter list changed")]
    fn detects_parameter_list_mismatch() {
        let mut adam = Adam::new(0.01);
        let mut a = Param::new(Tensor::ones(&[2]));
        adam.step(&mut [&mut a]);
        let mut b = Param::new(Tensor::ones(&[5]));
        adam.step(&mut [&mut b]);
    }
}
