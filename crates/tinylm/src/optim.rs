//! Optimizers over flat parameter vectors.

/// Plain stochastic gradient *ascent/descent* with optional gradient
/// clipping.
///
/// The sign convention is descent: `step` subtracts `lr · grad`. Pass the
/// gradient of a *loss*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Clip gradients to this Euclidean norm (`None` = no clipping).
    pub clip_norm: Option<f32>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            clip_norm: Some(5.0),
        }
    }

    /// Applies one descent step in place.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grad` differ in length.
    pub fn step(&self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), grad.len());
        let scale = clip_scale(grad, self.clip_norm);
        for (p, g) in params.iter_mut().zip(grad) {
            *p -= self.lr * scale * g;
        }
    }
}

/// Adam (Kingma & Ba, 2015) with bias correction and optional clipping.
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Clip gradients to this Euclidean norm (`None` = no clipping).
    pub clip_norm: Option<f32>,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimizer for a parameter vector of length `n`.
    pub fn new(lr: f32, n: usize) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            clip_norm: Some(5.0),
            m: vec![0.0; n],
            v: vec![0.0; n],
            t: 0,
        }
    }

    /// Applies one descent step in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths do not match the construction-time `n`.
    pub fn step(&mut self, params: &mut [f32], grad: &[f32]) {
        assert_eq!(params.len(), self.m.len());
        assert_eq!(grad.len(), self.m.len());
        self.t += 1;
        let scale = clip_scale(grad, self.clip_norm);
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..params.len() {
            let g = grad[i] * scale;
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g;
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g;
            let m_hat = self.m[i] / bc1;
            let v_hat = self.v[i] / bc2;
            params[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Resets moments (e.g. between seeds).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

fn clip_scale(grad: &[f32], clip: Option<f32>) -> f32 {
    match clip {
        None => 1.0,
        Some(max_norm) => {
            let norm = grad.iter().map(|g| g * g).sum::<f32>().sqrt();
            if norm > max_norm && norm > 0.0 {
                max_norm / norm
            } else {
                1.0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// f(x) = (x-3)², minimized at 3.
    fn quad_grad(x: f32) -> f32 {
        2.0 * (x - 3.0)
    }

    #[test]
    fn sgd_descends_quadratic() {
        let opt = Sgd::new(0.1);
        let mut x = vec![0.0f32];
        for _ in 0..200 {
            let g = vec![quad_grad(x[0])];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(0.1, 1);
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![quad_grad(x[0])];
            opt.step(&mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn clipping_bounds_step() {
        let opt = Sgd {
            lr: 1.0,
            clip_norm: Some(1.0),
        };
        let mut x = vec![0.0f32, 0.0];
        opt.step(&mut x, &[300.0, 400.0]); // norm 500 → scaled to 1
        let moved = (x[0] * x[0] + x[1] * x[1]).sqrt();
        assert!((moved - 1.0).abs() < 1e-5);
    }

    #[test]
    fn adam_reset_clears_state() {
        let mut opt = Adam::new(0.1, 2);
        let mut x = vec![0.0f32, 0.0];
        opt.step(&mut x, &[1.0, -1.0]);
        assert!(opt.t == 1);
        opt.reset();
        assert_eq!(opt.t, 0);
        assert!(opt.m.iter().all(|&m| m == 0.0));
    }

    #[test]
    #[should_panic(expected = "assertion")]
    fn sgd_length_mismatch_panics() {
        let opt = Sgd::new(0.1);
        let mut x = vec![0.0f32];
        opt.step(&mut x, &[1.0, 2.0]);
    }
}
