//! Property-based tests for tensor algebra invariants.

use crate::{
    col2im, detect, im2col, matmul_into_with, Conv2dGeometry, DispatchTier, Init, KernelParams,
    MatView, MicroTile, Tensor, TensorRng,
};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..6, 1usize..6).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-10.0f32..10.0, m * n).prop_map(move |v| (m, n, v))
    })
}

/// Reference matmul in the canonical accumulation order: one `f32`
/// accumulator per output element, ascending `k`. The kernel must match
/// this bitwise on every dispatch path (see `kernel` module docs).
fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #[test]
    fn matmul_identity_is_noop((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let i = Tensor::eye(n);
        let out = a.matmul(&i);
        for (x, y) in a.as_slice().iter().zip(out.as_slice()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involution((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let tt = a.transpose().transpose();
        prop_assert_eq!(a.as_slice(), tt.as_slice());
        prop_assert_eq!(a.dims(), tt.dims());
    }

    #[test]
    fn matmul_tn_matches_naive((m, n, data) in small_matrix(), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[m, n]);
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.init(&[m, 3], Init::Normal(1.0));
        let fast = a.matmul_tn(&b);
        let naive = a.transpose().matmul(&b);
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_nt_matches_naive((m, n, data) in small_matrix(), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[m, n]);
        let mut rng = TensorRng::seed_from(seed);
        let b = rng.init(&[4, n], Init::Normal(1.0));
        let fast = a.matmul_nt(&b);
        let naive = a.matmul(&b.transpose());
        for (x, y) in fast.as_slice().iter().zip(naive.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn softmax_rows_sum_to_one((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let s = a.softmax_rows();
        for r in 0..m {
            let row_sum: f32 = s.as_slice()[r * n..(r + 1) * n].iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-5);
            prop_assert!(s.as_slice()[r * n..(r + 1) * n].iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn sum_rows_matches_total((m, n, data) in small_matrix()) {
        let a = Tensor::from_vec(data, &[m, n]);
        let col_sums = a.sum_rows();
        prop_assert!((col_sums.sum() - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn im2col_col2im_adjoint(
        seed in 0u64..500,
        h in 3usize..8,
        w in 3usize..8,
        k in 1usize..4,
        stride in 1usize..3,
        pad in 0usize..2,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut rng = TensorRng::seed_from(seed);
        let x = rng.init(&[1, 2, h, w], Init::Normal(1.0));
        let geo = Conv2dGeometry::new(h, w, k, k, stride, pad);
        let cols = im2col(&x, 2, &geo);
        let y = rng.init(cols.dims(), Init::Normal(1.0));
        let lhs = cols.dot(&y) as f64;
        let rhs = x.dot(&col2im(&y, 1, 2, &geo)) as f64;
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn clamp_respects_bounds(data in proptest::collection::vec(-100.0f32..100.0, 1..32)) {
        let n = data.len();
        let t = Tensor::from_vec(data, &[n]);
        let c = t.clamp(-1.0, 1.0);
        prop_assert!(c.as_slice().iter().all(|&x| (-1.0..=1.0).contains(&x)));
    }

    #[test]
    fn direct_matmul_matches_naive_exactly(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
    ) {
        // m·k·n < 2^18, so this stays on the direct path; shapes cover
        // everything non-divisible by MR=8 / NR=4.
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a.matmul(&b);
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }
}

// Larger shapes that cross BLOCKED_FLOP_THRESHOLD (2^18 flops) and so take
// the packed, cache-blocked kernel. Fewer cases — each one is a real GEMM.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn blocked_matmul_matches_naive_exactly(
        m in 64usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
    ) {
        // m·k·n ≥ 64·240·33 > 2^18 → blocked path; k straddles KC=256 so
        // some shapes accumulate a C tile across two packed panels, and the
        // ranges are chosen to never divide MR/NR/MC evenly for all cases.
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a.matmul(&b);
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }

    #[test]
    fn blocked_tn_matches_naive_exactly(
        m in 100usize..130, k in 64usize..90, n in 45usize..60, seed in 0u64..1000,
    ) {
        // Exercises the ColMajor packing specialization on the blocked path.
        let mut rng = TensorRng::seed_from(seed);
        let a_t = rng.init(&[k, m], Init::Normal(1.0));
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let fast = a_t.matmul_tn(&b);
        let a = a_t.transpose();
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }

    /// Every vector micro-tile must reproduce the pinned scalar kernel
    /// bitwise on the blocked path — including on signed zeros, subnormals,
    /// and NaNs sprinkled through both operands (the packed path has no
    /// zero-skip, so NaN terms flow through every tier identically).
    #[test]
    fn vector_tiers_match_pinned_scalar_bitwise(
        m in 64usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..12),
    ) {
        const EDGE: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::MIN_POSITIVE,      // smallest normal
            1.0e-40,                // subnormal
            -1.0e-44,               // subnormal, negative
            3.0e38,                 // near f32::MAX — products overflow to inf
            -7.25,
        ];
        let tier = detect();
        prop_assume!(tier != DispatchTier::Scalar);
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0)).as_slice().to_vec();
        let mut b = rng.init(&[k, n], Init::Normal(1.0)).as_slice().to_vec();
        let (alen, blen) = (a.len(), b.len());
        for &(pos, val) in &picks {
            a[pos % alen] = EDGE[val % EDGE.len()];
            b[(pos / 7) % blen] = EDGE[(val + 3) % EDGE.len()];
        }
        let av = MatView::row_major(&a, m, k);
        let bv = MatView::row_major(&b, k, n);
        let mut scalar = vec![0.0f32; m * n];
        matmul_into_with(
            &av, &bv, &mut scalar, DispatchTier::Scalar, KernelParams::pinned_scalar(),
        );
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        for &tile in MicroTile::candidates(tier) {
            let params = KernelParams { mc: 64, kc: 256, nc: 512, tile };
            let mut out = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut out, tier, params);
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&sb, &ob, "tile {:?} diverged from pinned scalar", tile);
        }
    }

    /// Tier equality on the non-row-major operand layouts: a transposed
    /// (ColMajor) A against a conv-gradient-style BatchCol B, both packed
    /// through their specialized paths.
    #[test]
    fn vector_tiers_match_scalar_on_all_layouts(
        m in 100usize..130, half in 32usize..45, n in 45usize..60, seed in 0u64..1000,
    ) {
        let tier = detect();
        prop_assume!(tier != DispatchTier::Scalar);
        let k = 2 * half; // batch=2, positions=half → k rows
        let mut rng = TensorRng::seed_from(seed);
        let a_t = rng.init(&[k, m], Init::Normal(1.0));
        let b_nchw = rng.init(&[2, n, half], Init::Normal(1.0));
        let av = MatView::transposed(a_t.as_slice(), m, k);
        let bv = MatView::batch_transposed(b_nchw.as_slice(), 2, n, half);
        let mut scalar = vec![0.0f32; m * n];
        matmul_into_with(
            &av, &bv, &mut scalar, DispatchTier::Scalar, KernelParams::pinned_scalar(),
        );
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        for &tile in MicroTile::candidates(tier) {
            let params = KernelParams { mc: 64, kc: 256, nc: 512, tile };
            let mut out = vec![0.0f32; m * n];
            matmul_into_with(&av, &bv, &mut out, tier, params);
            let ob: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(&sb, &ob, "tile {:?} diverged on ColMajor×BatchCol", tile);
        }
    }

    #[test]
    fn blocked_nt_matches_naive_exactly(
        m in 100usize..130, k in 64usize..90, n in 45usize..60, seed in 0u64..1000,
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let b_t = rng.init(&[n, k], Init::Normal(1.0));
        let fast = a.matmul_nt(&b_t);
        let b = b_t.transpose();
        let naive = naive_matmul(a.as_slice(), b.as_slice(), m, k, n);
        prop_assert_eq!(fast.as_slice(), &naive[..]);
    }
}

/// Special values sprinkled into operands by the cache/epilogue equality
/// sweeps: NaN payloads, signed zeros, subnormals, and near-overflow
/// magnitudes all have to survive every code path bitwise.
const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::MIN_POSITIVE,
    1.0e-40,  // subnormal
    -1.0e-44, // subnormal, negative
    3.0e38,   // products overflow to inf
    -7.25,
];

fn sprinkle(data: &mut [f32], picks: &[(usize, usize)], salt: usize) {
    let len = data.len();
    for &(pos, val) in picks {
        data[(pos + salt) % len] = SPECIALS[(val + salt) % SPECIALS.len()];
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

// Packed-operand-cache and fused-epilogue equality sweeps. The cache and
// the epilogues are performance features that must be bitwise invisible;
// these run the same product with the feature forced off and forced on
// (cold → admitted → hot) and require identical bits, on both the direct
// and blocked dispatch paths, across all B layouts the nn stack uses.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pack_cache_on_off_is_bitwise_invisible(
        m in 60usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..10),
    ) {
        let _g = crate::kernel::pack_cache::test_override_lock();
        let mut rng = TensorRng::seed_from(seed);
        let a = rng.init(&[m, k], Init::Normal(1.0));
        let mut b = rng.init(&[k, n], Init::Normal(1.0));
        let mut b_t = rng.init(&[n, k], Init::Normal(1.0));
        sprinkle(b.as_mut_slice(), &picks, 0);
        sprinkle(b_t.as_mut_slice(), &picks, 3);

        crate::set_pack_cache_enabled(Some(false));
        crate::clear_pack_cache();
        let plain_nn = bits(&a.matmul(&b));
        let plain_nt = bits(&a.matmul_nt(&b_t));

        crate::set_pack_cache_enabled(Some(true));
        crate::clear_pack_cache();
        // Three passes: first sighting (uncached), admission (packs into
        // the cache), and a hot hit serving the cached panels. RowMajor
        // and ColMajor B exercise both packing specializations.
        for pass in 0..3 {
            prop_assert_eq!(&bits(&a.matmul(&b)), &plain_nn, "matmul pass {}", pass);
            prop_assert_eq!(&bits(&a.matmul_nt(&b_t)), &plain_nt, "matmul_nt pass {}", pass);
        }

        crate::set_pack_cache_enabled(None);
        crate::clear_pack_cache();
    }

    #[test]
    fn fused_epilogues_match_unfused_bitwise_blocked(
        m in 60usize..100, k in 240usize..280, n in 33usize..70, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..10),
    ) {
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0));
        let mut b = rng.init(&[k, n], Init::Normal(1.0));
        let mut bias = rng.init(&[n], Init::Normal(1.0));
        sprinkle(a.as_mut_slice(), &picks, 0);
        sprinkle(b.as_mut_slice(), &picks, 3);
        sprinkle(bias.as_mut_slice(), &picks, 5);

        let unfused = a.matmul(&b).add_row_broadcast(&bias);
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias)), bits(&unfused));
        let unfused_relu = unfused.map(|x| x.max(0.0));
        prop_assert_eq!(bits(&a.matmul_bias_relu(&b, &bias)), bits(&unfused_relu));
    }
}

proptest! {
    #[test]
    fn fused_epilogues_match_unfused_bitwise_direct(
        m in 1usize..20, k in 1usize..24, n in 1usize..24, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 12, 0usize..16), 0..6),
    ) {
        // m·k·n < 2^18 → direct path, shapes not divisible by MR/NR.
        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0));
        let mut b = rng.init(&[k, n], Init::Normal(1.0));
        let mut bias = rng.init(&[n], Init::Normal(1.0));
        sprinkle(a.as_mut_slice(), &picks, 0);
        sprinkle(b.as_mut_slice(), &picks, 3);
        sprinkle(bias.as_mut_slice(), &picks, 5);

        let unfused = a.matmul(&b).add_row_broadcast(&bias);
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias)), bits(&unfused));
        let unfused_relu = unfused.map(|x| x.max(0.0));
        prop_assert_eq!(bits(&a.matmul_bias_relu(&b, &bias)), bits(&unfused_relu));
    }
}

/// Mutating a cached operand through any mutation surface must invalidate
/// its cache identity: the next product repacks and reflects the new
/// bytes, never the stale panels.
#[test]
fn mutated_operand_never_serves_stale_packs() {
    let _g = crate::kernel::pack_cache::test_override_lock();
    crate::set_pack_cache_enabled(Some(true));
    crate::clear_pack_cache();

    let (m, k, n) = (70, 260, 48); // blocked path
    let mut rng = TensorRng::seed_from(42);
    let a = rng.init(&[m, k], Init::Normal(1.0));
    let mut b = rng.init(&[k, n], Init::Normal(1.0));
    // Warm past the seen-once admission gate so the panels are resident.
    let _ = a.matmul(&b);
    let _ = a.matmul(&b);
    let hits_before = crate::pack_stats().hits;
    let _ = a.matmul(&b);
    assert!(
        crate::pack_stats().hits > hits_before,
        "warmup should leave the packed operand hot in the cache"
    );

    b.as_mut_slice()[k * n / 2] += 1.0;
    let naive = {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += a.as_slice()[i * k + kk] * b.as_slice()[kk * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    };
    let fresh = a.matmul(&b);
    assert_eq!(
        bits(&fresh),
        naive.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "stale cached panels served after mutation"
    );

    crate::set_pack_cache_enabled(None);
    crate::clear_pack_cache();
}

/// `matmul_batched_into` must be bitwise-equal to issuing the same GEMMs
/// one call at a time, for every epilogue, on both dispatch paths.
#[test]
fn batched_gemm_matches_per_call_bitwise() {
    use crate::{matmul_batched_into, matmul_views_ep, Epilogue};

    for &(m, k, n) in &[(5usize, 7usize, 9usize), (70, 260, 48)] {
        let mut rng = TensorRng::seed_from(7);
        let b = rng.init(&[k, n], Init::Normal(1.0));
        let instances: Vec<Tensor> = (0..5)
            .map(|_| rng.init(&[m, k], Init::Normal(1.0)))
            .collect();
        let bias = rng.init(&[n], Init::Normal(1.0));
        for ep_kind in 0..3 {
            let ep = || match ep_kind {
                0 => Epilogue::None,
                1 => Epilogue::Bias(bias.as_slice()),
                _ => Epilogue::BiasRelu(bias.as_slice()),
            };
            let bv = MatView::row_major(b.as_slice(), k, n);
            let avs: Vec<MatView<'_>> = instances
                .iter()
                .map(|t| MatView::row_major(t.as_slice(), m, k))
                .collect();
            let mut outs = vec![vec![0.0f32; m * n]; instances.len()];
            {
                let mut out_refs: Vec<&mut [f32]> =
                    outs.iter_mut().map(|v| v.as_mut_slice()).collect();
                matmul_batched_into(&avs, &bv, &mut out_refs, ep());
            }
            for (av, out) in avs.iter().zip(&outs) {
                let solo = matmul_views_ep(av, &bv, ep());
                assert_eq!(
                    solo.as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect::<Vec<_>>(),
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batched diverged at ({m},{k},{n}) epilogue {ep_kind}"
                );
            }
        }
    }
}

/// Bits with every NaN mapped to one pattern: when two NaN operands meet,
/// which payload an add propagates depends on the operand order the
/// compiler emits, so NaN-ness is compared exactly and payloads not at all.
fn nan_canonical_bits(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// `0 · ±inf` is NaN on every path: no path skips a zero term, so size
/// dispatch and the dispatch tier stay invisible on non-finite data too.
/// Shapes on both sides of the blocked threshold (2^18 multiply-adds), both
/// B layouts, the pinned scalar tier and the detected one.
#[test]
fn zeros_times_non_finite_match_naive_on_every_path_and_tier() {
    const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    for (m, k, n) in [(7, 9, 13), (33, 64, 64), (70, 64, 64)] {
        let mut rng = TensorRng::seed_from(11);
        let mut a = rng.init(&[m, k], Init::Normal(1.0)).as_slice().to_vec();
        let mut b = rng.init(&[k, n], Init::Normal(1.0)).as_slice().to_vec();
        for x in a.iter_mut().step_by(3) {
            *x = 0.0;
        }
        for (i, x) in b.iter_mut().enumerate().step_by(5) {
            *x = NON_FINITE[i / 5 % 3];
        }
        let want = nan_canonical_bits(&naive_matmul(&a, &b, m, k, n));
        assert!(want.iter().any(|&v| f32::from_bits(v).is_nan()));
        // The same logical B stored transposed (the `nt` layout).
        let b_t: Vec<f32> = (0..n * k).map(|x| b[(x % k) * n + x / k]).collect();
        let av = MatView::row_major(&a, m, k);
        for bv in [
            MatView::row_major(&b, k, n),
            MatView::transposed(&b_t, k, n),
        ] {
            for tier in [DispatchTier::Scalar, detect()] {
                let params = match tier {
                    DispatchTier::Scalar => KernelParams::pinned_scalar(),
                    _ => KernelParams::heuristic(tier),
                };
                let mut out = vec![0.0f32; m * n];
                matmul_into_with(&av, &bv, &mut out, tier, params);
                assert_eq!(nan_canonical_bits(&out), want, "({m},{k},{n}) on {tier:?}");
            }
        }
    }
}

// The small-product path against the blocked path and the naive reference
// on every shape the PPO networks produce and beyond: m·k·n stays below the
// blocked threshold, so `matmul_into_with` would always take the small path
// — the blocked path is run directly on the same operands.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_path_matches_blocked_and_naive_bitwise(
        m in 1usize..40, k in 1usize..80, n in 1usize..80,
        layouts in 0usize..4, ep_kind in 0usize..4, seed in 0u64..1000,
        picks in proptest::collection::vec((0usize..1 << 16, 0usize..16), 0..10),
    ) {
        use crate::kernel::{blocked, direct};
        use crate::Epilogue;

        let mut rng = TensorRng::seed_from(seed);
        let mut a = rng.init(&[m, k], Init::Normal(1.0)).as_slice().to_vec();
        let mut b = rng.init(&[k, n], Init::Normal(1.0)).as_slice().to_vec();
        let mut bias = rng.init(&[n], Init::Normal(1.0)).as_slice().to_vec();
        sprinkle(&mut a, &picks, 0);
        sprinkle(&mut b, &picks, 3);
        sprinkle(&mut bias, &picks, 5);
        let ep = match ep_kind {
            0 => Epilogue::None,
            1 => Epilogue::Bias(&bias),
            2 => Epilogue::BiasRelu(&bias),
            _ => Epilogue::Relu,
        };

        let mut want = naive_matmul(&a, &b, m, k, n);
        for (idx, o) in want.iter_mut().enumerate() {
            let j = idx % n;
            match ep_kind {
                0 => {}
                1 => *o += bias[j],
                2 => *o = (*o + bias[j]).max(0.0),
                _ => *o = o.max(0.0),
            }
        }
        let want = nan_canonical_bits(&want);

        // The same logical operands, stored transposed where asked.
        let a_t: Vec<f32> = (0..m * k).map(|x| a[(x % m) * k + x / m]).collect();
        let b_t: Vec<f32> = (0..k * n).map(|x| b[(x % k) * n + x / k]).collect();
        let (a_col_major, b_col_major) = (layouts & 1 == 1, layouts & 2 == 2);
        let av = if a_col_major {
            MatView::transposed(&a_t, m, k)
        } else {
            MatView::row_major(&a, m, k)
        };
        let bv = if b_col_major {
            MatView::transposed(&b_t, k, n)
        } else {
            MatView::row_major(&b, k, n)
        };

        for tier in [DispatchTier::Scalar, detect()] {
            let params = match tier {
                DispatchTier::Scalar => KernelParams::pinned_scalar(),
                _ => KernelParams::heuristic(tier),
            };
            let mut small = vec![0.0f32; m * n];
            direct(&av, &bv, m, k, n, &mut small, tier, ep);
            prop_assert_eq!(&nan_canonical_bits(&small), &want, "small path on {:?}", tier);
            let mut packed = vec![0.0f32; m * n];
            blocked(&av, &bv, m, k, n, &mut packed, tier, params, ep);
            prop_assert_eq!(&nan_canonical_bits(&packed), &want, "blocked path on {:?}", tier);
        }
    }
}
