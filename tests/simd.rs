//! SIMD dispatch-tier determinism, proven end to end.
//!
//! The kernel's contract (see `chiron_tensor::kernel` docs) is that every
//! dispatch tier — pinned scalar, AVX2, NEON — and every autotuned blocking
//! choice produces **bitwise-identical** output. These tests drive the
//! public matmul API exactly as the training stack does (so the active
//! tier, the autotuner, and the `CHIRON_SIMD` / `CHIRON_AUTOTUNE` knobs all
//! apply) and compare against the pinned scalar reference configuration via
//! [`chiron_tensor::matmul_into_with`]. CI runs this suite across the
//! `CHIRON_SIMD={0,1} × CHIRON_THREADS={1,4,8}` matrix; in-process we also
//! sweep the pool size directly.

use chiron_tensor::{
    cached_params, detect, matmul_into_with, params_for, pool, reset_profile_cache, DispatchTier,
    Init, KernelParams, MatView, ShapeKey, TensorRng,
};

/// The paper's conv im2col products (MNIST CNN forward shapes) plus one
/// deliberately ragged shape that divides none of the micro-tiles.
const SHAPES: [(usize, usize, usize); 3] = [(5760, 25, 10), (640, 250, 20), (131, 260, 37)];

/// Pinned scalar reference: the pre-SIMD kernel's exact configuration.
fn scalar_reference(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let av = MatView::row_major(a, m, k);
    let bv = MatView::row_major(b, k, n);
    let mut out = vec![0.0f32; m * n];
    matmul_into_with(
        &av,
        &bv,
        &mut out,
        DispatchTier::Scalar,
        KernelParams::pinned_scalar(),
    );
    out
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn active_tier_honors_chiron_simd() {
    if std::env::var("CHIRON_SIMD").as_deref() == Ok("0") {
        assert_eq!(chiron_tensor::active_tier(), DispatchTier::Scalar);
    } else {
        assert_eq!(chiron_tensor::active_tier(), detect());
    }
}

/// The env-honoring public path (whatever tier and autotuned blocking this
/// process resolved) must equal the pinned scalar reference bitwise at the
/// paper's shapes, at several pool sizes.
#[test]
fn public_matmul_matches_pinned_scalar_reference_bitwise() {
    let mut rng = TensorRng::seed_from(1234);
    for (m, k, n) in SHAPES {
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let want = bits(&scalar_reference(a.as_slice(), b.as_slice(), m, k, n));
        for threads in [1, 4, 8] {
            pool::set_threads(threads);
            let got = a.matmul(&b);
            pool::set_threads(1);
            assert_eq!(
                bits(got.as_slice()),
                want,
                "{m}x{k}x{n} diverged from pinned scalar at {threads} threads"
            );
        }
    }
}

/// Same contract for the transposed operand layouts the backward passes use.
#[test]
fn transposed_variants_match_pinned_scalar_reference_bitwise() {
    let mut rng = TensorRng::seed_from(77);
    let (m, k, n) = (640, 250, 20);
    let a_t = rng.init(&[k, m], Init::Normal(1.0));
    let b = rng.init(&[k, n], Init::Normal(1.0));
    let av = MatView::transposed(a_t.as_slice(), m, k);
    let bv = MatView::row_major(b.as_slice(), k, n);
    let mut want = vec![0.0f32; m * n];
    matmul_into_with(
        &av,
        &bv,
        &mut want,
        DispatchTier::Scalar,
        KernelParams::pinned_scalar(),
    );
    for threads in [1, 4] {
        pool::set_threads(threads);
        let got = a_t.matmul_tn(&b);
        pool::set_threads(1);
        assert_eq!(
            bits(got.as_slice()),
            bits(&want),
            "matmul_tn diverged at {threads} threads"
        );
    }
}

/// Satellite regression: tuning a paper shape cold, then hitting the warm
/// cache, must return the identical parameters — and both choices (and the
/// static heuristic, and every other candidate) produce bitwise-identical
/// output, so a timing-noise-dependent winner can never change results.
#[test]
fn autotuner_cold_then_warm_is_pinned_and_bitwise_stable() {
    let tier = chiron_tensor::active_tier();
    // A shape unique to this test so parallel tests in this binary cannot
    // interleave their own cache entries under the same key.
    let (m, k, n) = (641, 250, 21);
    let key = ShapeKey {
        m,
        k,
        n,
        layout_a: 0,
        layout_b: 0,
    };
    let mut rng = TensorRng::seed_from(9);
    let a = rng.init(&[m, k], Init::Normal(1.0));
    let b = rng.init(&[k, n], Init::Normal(1.0));
    let av = MatView::row_major(a.as_slice(), m, k);
    let bv = MatView::row_major(b.as_slice(), k, n);

    reset_profile_cache();
    let cold = params_for(tier, key, &av, &bv);
    let warm = params_for(tier, key, &av, &bv);
    assert_eq!(cold, warm, "warm cache hit changed the tuned parameters");
    if tier != DispatchTier::Scalar {
        assert_eq!(
            cached_params(tier, key),
            Some(cold),
            "tuned profile was not cached"
        );
    }

    let mut reference = vec![0.0f32; m * n];
    matmul_into_with(&av, &bv, &mut reference, tier, cold);
    for params in [
        warm,
        KernelParams::heuristic(tier),
        KernelParams::pinned_scalar(),
    ] {
        let run_tier = if params.tile == chiron_tensor::MicroTile::M8N4 {
            DispatchTier::Scalar
        } else {
            tier
        };
        let mut out = vec![0.0f32; m * n];
        matmul_into_with(&av, &bv, &mut out, run_tier, params);
        assert_eq!(
            bits(&out),
            bits(&reference),
            "params {params:?} changed output bits"
        );
    }
}

/// The PPO networks' products all fall below the blocked threshold, so they
/// run the small-product path — unpacked AVX2 tiles on the vector tier,
/// scalar loops on the pinned one. Both tiers, and the env-honoring public
/// API, must agree bitwise on every layout the forward and backward passes
/// use: plain `x·W`, `tn` (`xᵀ·dy`) and `nt` (`dy·Wᵀ`).
#[test]
fn ppo_small_products_match_across_tiers_bitwise() {
    let tier = detect();
    let mut rng = TensorRng::seed_from(31);
    for (m, k, n) in [(30, 64, 64), (1, 62, 64), (32, 64, 1), (32, 64, 5)] {
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let a_t = a.transpose();
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let b_t = b.transpose();
        let cases = [
            (
                "plain",
                MatView::row_major(a.as_slice(), m, k),
                MatView::row_major(b.as_slice(), k, n),
                a.matmul(&b),
            ),
            (
                "tn",
                MatView::transposed(a_t.as_slice(), m, k),
                MatView::row_major(b.as_slice(), k, n),
                a_t.matmul_tn(&b),
            ),
            (
                "nt",
                MatView::row_major(a.as_slice(), m, k),
                MatView::transposed(b_t.as_slice(), k, n),
                a.matmul_nt(&b_t),
            ),
        ];
        for (name, av, bv, public) in cases {
            let mut want = vec![0.0f32; m * n];
            matmul_into_with(
                &av,
                &bv,
                &mut want,
                DispatchTier::Scalar,
                KernelParams::pinned_scalar(),
            );
            let mut vector = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut vector, tier, KernelParams::heuristic(tier));
            assert_eq!(
                bits(&vector),
                bits(&want),
                "{m}x{k}x{n} {name}: {tier:?} diverged from pinned scalar"
            );
            assert_eq!(
                bits(public.as_slice()),
                bits(&want),
                "{m}x{k}x{n} {name}: public API diverged from pinned scalar"
            );
        }
    }
}
