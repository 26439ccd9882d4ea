//! The workspace's one finite-difference gradient check.
//!
//! Every backward pass is checked against [`gradcheck`]: the dense layers
//! and the cross tower here, each model end to end in `hetgmp-core`
//! (every input element and every parameter), and TransE's margin-ranking
//! gradient. A new backward pass lands with a check through this harness.
//!
//! The loss is taken in f64 (callers accumulate their f32 outputs in f64),
//! so the only f32 noise in a difference is the forward pass's own rounding.

/// Checks `analytic`, the claimed gradient of `loss` at `point`, against
/// central differences over every element.
///
/// Element `i` is moved to `point[i] ± eps` (in f32) and its numeric
/// partial is the loss difference over the step actually taken. It passes
/// when `|numeric − analytic| ≤ atol + rtol·|numeric|`. The last call is at
/// `point` itself, so a closure that writes its argument into a model
/// leaves the model as it found it.
///
/// # Panics
/// Panics if `analytic` and `point` differ in length, or on the first
/// element that fails, naming the element, its numeric and its analytic
/// value.
pub fn gradcheck(
    loss: impl FnMut(&[f32]) -> f64,
    point: &[f32],
    analytic: &[f32],
    eps: f32,
    atol: f64,
    rtol: f64,
) {
    if let Err(e) = mismatch(loss, point, analytic, eps, atol, rtol) {
        panic!("{e}");
    }
}

/// [`gradcheck`] on every parameter buffer of `model`, in the order `visit`
/// (its `visit_params`) walks them, each against the gradient `visit`
/// hands out beside it. `loss` runs after the probed buffer is written
/// back into the model.
///
/// # Panics
/// As [`gradcheck`], naming the buffer too.
pub fn gradcheck_params<M: ?Sized>(
    model: &mut M,
    visit: impl Fn(&mut M, &mut dyn FnMut(&mut [f32], &mut [f32])),
    mut loss: impl FnMut(&mut M) -> f64,
    eps: f32,
    atol: f64,
    rtol: f64,
) {
    let mut buffers = Vec::new();
    visit(model, &mut |p, g| buffers.push((p.to_vec(), g.to_vec())));
    for (k, (params, grads)) in buffers.iter().enumerate() {
        let at = |p: &[f32]| {
            let mut i = 0;
            visit(model, &mut |q, _| {
                if i == k {
                    q.copy_from_slice(p);
                }
                i += 1;
            });
            loss(model)
        };
        if let Err(e) = mismatch(at, params, grads, eps, atol, rtol) {
            panic!("parameter buffer {k}, {e}");
        }
    }
}

/// The first element of [`gradcheck`] that fails, as its message.
fn mismatch(
    mut loss: impl FnMut(&[f32]) -> f64,
    point: &[f32],
    analytic: &[f32],
    eps: f32,
    atol: f64,
    rtol: f64,
) -> Result<(), String> {
    assert_eq!(point.len(), analytic.len(), "gradient length mismatch");
    let mut probe = point.to_vec();
    let mut first = Ok(());
    for (i, (&x, &ana)) in point.iter().zip(analytic).enumerate() {
        let (hi, lo) = (x + eps, x - eps);
        probe[i] = hi;
        let up = loss(&probe);
        probe[i] = lo;
        let down = loss(&probe);
        probe[i] = x;
        let num = (up - down) / (hi as f64 - lo as f64);
        let tol = atol + rtol * num.abs();
        if (num - ana as f64).abs() > tol {
            first = Err(format!(
                "gradient element {i}: numeric {num:.6e} vs analytic {ana:.6e} (tolerance {tol:.1e})"
            ));
            break;
        }
    }
    loss(point);
    first
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `L(x) = Σ x_i³`: `dL/dx_i = 3·x_i²`.
    fn cubes(x: &[f32]) -> f64 {
        x.iter().map(|&v| (v as f64).powi(3)).sum()
    }

    #[test]
    fn exact_gradient_passes() {
        let x = [0.5f32, -1.25, 2.0, 0.0];
        let g: Vec<f32> = x.iter().map(|v| 3.0 * v * v).collect();
        gradcheck(cubes, &x, &g, 1e-3, 1e-4, 1e-4);
    }

    #[test]
    #[should_panic(expected = "gradient element 2: numeric 1.2")]
    fn a_wrong_element_is_named() {
        let x = [0.5f32, -1.25, 2.0, 0.0];
        let mut g: Vec<f32> = x.iter().map(|v| 3.0 * v * v).collect();
        g[2] *= 0.9;
        gradcheck(cubes, &x, &g, 1e-3, 1e-4, 1e-4);
    }

    /// Two parameter buffers and their gradients, `(a, dL/da, b, dL/db)`.
    type Buffers = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);

    /// `a` and `b` under `L = Σ a³ + Σ b³`, with the claimed `dL/db[1]`
    /// multiplied by `scale`.
    fn cube_buffers(scale: f32) -> Buffers {
        let (a, b) = (vec![0.5f32, -1.0], vec![2.0f32, 0.25]);
        let d = |v: &[f32]| v.iter().map(|x| 3.0 * x * x).collect::<Vec<f32>>();
        let mut gb = d(&b);
        gb[1] *= scale;
        (a.clone(), d(&a), b, gb)
    }

    fn visit(m: &mut Buffers, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut m.0, &mut m.1);
        f(&mut m.2, &mut m.3);
    }

    fn loss(m: &mut Buffers) -> f64 {
        cubes(&m.0) + cubes(&m.2)
    }

    #[test]
    fn every_parameter_buffer_is_checked_and_restored() {
        let mut m = cube_buffers(1.0);
        let before = m.clone();
        gradcheck_params(&mut m, visit, loss, 1e-3, 1e-4, 1e-4);
        assert_eq!(m, before, "the model is left as it was found");
    }

    #[test]
    #[should_panic(expected = "parameter buffer 1, gradient element 1")]
    fn a_wrong_parameter_names_its_buffer() {
        let mut m = cube_buffers(2.0);
        gradcheck_params(&mut m, visit, loss, 1e-3, 1e-4, 1e-4);
    }
}
