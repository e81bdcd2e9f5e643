//! Runtime-sanitizer acceptance tests (`cargo test -p nnet --features
//! sanitize`): an injected NaN must be caught at the faulty layer with an
//! attributed diagnostic, and the incident must reach the global hook
//! before the fatal panic.
#![cfg(feature = "sanitize")]

use nnet::layers::{Activation, Layer, Sequential};
use nnet::sanitize::{self, Incident, IncidentKind};
use nnet::tensor::Tensor;
use nnet::{GradClip, Parameterized};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

fn panic_message(r: std::thread::Result<Tensor>) -> String {
    let err = r.expect_err("sanitizer should have tripped");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// The headline acceptance check: poison one input element with NaN, run
/// the forward pass, and require a panic that names the offending layer.
#[test]
fn injected_nan_is_caught_with_layer_attribution() {
    // The hook is process-global; capture everything and filter by op and
    // scope so concurrent tests in this binary (one of which trips the
    // same op at `seq[2]`) cannot confuse the assertion.
    let seen: Arc<Mutex<Vec<Incident>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    sanitize::set_hook(move |inc: &Incident| {
        sink.lock().unwrap().push(inc.clone());
    });

    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Sequential::mlp(4, &[8], 2, Activation::Tanh, &mut rng);
    let mut x = Tensor::randn(3, 4, &mut rng);
    x.data_mut()[5] = f32::NAN; // the injected fault

    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| net.forward(&x))));
    // Layer-attributed diagnostic: the first Linear node is named, and the
    // tripping op plus the bad element are identified.
    assert!(msg.contains("non-finite"), "{msg}");
    assert!(msg.contains("seq[0]:Linear"), "{msg}");
    assert!(msg.contains("matmul_add_bias"), "{msg}");

    let incidents = seen.lock().unwrap();
    let inc = incidents
        .iter()
        .find(|i| i.op == "matmul_add_bias" && i.scope.contains("seq[0]:Linear"))
        .expect("hook must observe the trip before the panic");
    assert_eq!(inc.kind, IncidentKind::NonFinite);
    sanitize::clear_hook();
}

/// A NaN appearing mid-network (not in the input) is attributed to the
/// node where it first surfaces, not to the network entry.
#[test]
fn mid_network_fault_names_the_faulty_node() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut net = Sequential::mlp(3, &[5, 5], 1, Activation::Relu, &mut rng);
    // Poison the second Linear's bias (node index 2: Linear,Activation,
    // Linear; parameter order w0,b0,w2,b2). The bias seeds the fused GEMM
    // output unconditionally, so the fault cannot dodge the zero-skip
    // kernel fast path.
    net.parameters_mut()[3].data_mut()[0] = f32::INFINITY;
    let x = Tensor::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| net.forward(&x))));
    assert!(msg.contains("seq[2]:Linear"), "{msg}");
    assert!(!msg.contains("seq[0]"), "{msg}");
}

#[test]
fn backward_pass_is_attributed_too() {
    let mut rng = StdRng::seed_from_u64(9);
    let mut net = Sequential::mlp(2, &[4], 2, Activation::Tanh, &mut rng);
    let x = Tensor::randn(2, 2, &mut rng);
    let y = net.forward(&x);
    let mut grad = Tensor::from_vec(y.rows(), y.cols(), vec![1.0; y.len()]);
    grad.data_mut()[0] = f32::NAN;
    net.zero_grad();
    let msg = panic_message(catch_unwind(AssertUnwindSafe(|| net.backward(&grad))));
    assert!(msg.contains("non-finite"), "{msg}");
    assert!(msg.contains("/backward"), "{msg}");
}

#[test]
fn gradient_norm_explosion_is_detected() {
    let mut rng = StdRng::seed_from_u64(10);
    let mut net = Sequential::mlp(2, &[4], 1, Activation::Relu, &mut rng);
    for g in net.gradients_mut() {
        g.fill(1.0e5);
    }
    sanitize::set_grad_norm_limit(1.0e3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        GradClip::clip_global_norm(&mut net, 1.0e9) // max_norm above the norm: no clip, must still trip
    }));
    sanitize::set_grad_norm_limit(1.0e6); // restore the default for other tests
    let err = result.expect_err("explosion should trip");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("grad-explosion"), "{msg}");
    assert!(msg.contains("clip_global_norm"), "{msg}");
}

/// A healthy forward/backward/clip cycle must not trip anything.
#[test]
fn clean_training_step_does_not_trip() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut net = Sequential::mlp(3, &[6], 2, Activation::LeakyRelu, &mut rng);
    let x = Tensor::randn(4, 3, &mut rng);
    let y = net.forward(&x);
    let grad = Tensor::from_vec(y.rows(), y.cols(), vec![0.1; y.len()]);
    net.zero_grad();
    let _ = net.backward(&grad);
    let norm = GradClip::clip_global_norm(&mut net, 1.0);
    assert!(norm.is_finite());
}
