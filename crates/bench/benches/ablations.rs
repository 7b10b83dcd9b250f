//! Ablations of the framework's design choices:
//!
//! * the cost of the privacy mechanisms (plaintext randomization and
//!   shuffling in the chain) versus plain partial decryption;
//! * the comparison circuit's shared suffix sums (`O(l)` ciphertext adds)
//!   versus naive per-position recomputation (`O(l²)`);
//! * the oblivious compare-exchange versus an opened (insecure)
//!   comparison in the SS baseline;
//! * fixed-base comb exponentiation versus a generic exponentiation.

use criterion::{criterion_group, criterion_main, Criterion};
use ppgr_bigint::BigUint;
use ppgr_core::circuit::compare_encrypted;
use ppgr_elgamal::{encrypt_bits, Ciphertext, ExpElGamal, KeyPair};
use ppgr_group::GroupKind;
use ppgr_smc::compare::cmp_lt;
use ppgr_smc::SsEngine;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const L: usize = 32;

fn bench_chain_mechanisms(c: &mut Criterion) {
    let group = GroupKind::Ecc160.group();
    let mut rng = StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&group, &mut rng);
    let scheme = ExpElGamal::new(group.clone());
    let set: Vec<Ciphertext> = (0..L)
        .map(|i| {
            scheme.encrypt(
                kp.public_key(),
                &group.scalar_from_u64(i as u64 % 3),
                &mut rng,
            )
        })
        .collect();

    let mut g = c.benchmark_group("ablation_chain_hop");
    g.sample_size(10);
    g.bench_function("decrypt_only", |b| {
        b.iter(|| {
            set.iter()
                .map(|ct| scheme.partial_decrypt(ct, kp.secret_key()))
                .collect::<Vec<_>>()
        });
    });
    g.bench_function("decrypt_randomize", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| {
            set.iter()
                .map(|ct| {
                    let c = scheme.partial_decrypt(ct, kp.secret_key());
                    let r = group.random_nonzero_scalar(&mut rng);
                    scheme.randomize_plaintext(&c, &r)
                })
                .count()
        });
    });
    g.bench_function("decrypt_randomize_shuffle", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut out: Vec<Ciphertext> = set
                .iter()
                .map(|ct| {
                    let c = scheme.partial_decrypt(ct, kp.secret_key());
                    let r = group.random_nonzero_scalar(&mut rng);
                    scheme.randomize_plaintext(&c, &r)
                })
                .collect();
            out.shuffle(&mut rng);
            out.len()
        });
    });
    g.finish();
}

fn bench_circuit_suffix_sums(c: &mut Criterion) {
    let group = GroupKind::Ecc160.group();
    let mut rng = StdRng::seed_from_u64(4);
    let kp = KeyPair::generate(&group, &mut rng);
    let scheme = ExpElGamal::new(group.clone());
    let own = BigUint::from(0x1234_5678u64);
    let other = encrypt_bits(
        &scheme,
        kp.public_key(),
        &BigUint::from(0x8765_4321u64),
        L,
        &mut rng,
    );

    let mut g = c.benchmark_group("ablation_comparison_circuit");
    g.sample_size(10);
    g.bench_function("shared_suffix_sums", |b| {
        b.iter(|| compare_encrypted(&scheme, &own, &other, L));
    });
    g.bench_function("naive_quadratic", |b| {
        b.iter(|| {
            // Same circuit but recomputing Σ_{v>t} γ_v from scratch per
            // position — the O(l²) formulation the paper's step-7 formula
            // literally reads as.
            let one = group.scalar_from_u64(1);
            let gammas: Vec<Ciphertext> = (0..L)
                .map(|idx| {
                    if own.bit(idx) {
                        scheme.add_plaintext(&scheme.neg(&other[idx]), &one)
                    } else {
                        other[idx].clone()
                    }
                })
                .collect();
            (0..L)
                .map(|idx| {
                    let weight = (L - idx) as u64;
                    let mut suffix = Ciphertext {
                        alpha: group.identity(),
                        beta: group.identity(),
                    };
                    for g_v in &gammas[idx + 1..] {
                        suffix = scheme.add(&suffix, g_v);
                    }
                    let neg = scheme.scalar_mul(
                        &gammas[idx],
                        &group.scalar_neg(&group.scalar_from_u64(weight)),
                    );
                    let tau = scheme.add_plaintext(&neg, &group.scalar_from_u64(weight));
                    scheme.add(&tau, &suffix)
                })
                .count()
        });
    });
    g.finish();
}

fn bench_oblivious_vs_open_compare(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_ss_compare");
    g.sample_size(10);
    g.bench_function("oblivious_cmp_lt", |b| {
        let mut e = SsEngine::new(5, 2, 5).unwrap();
        let f = e.field().clone();
        let x = e.input(&f.from_u64(123));
        let y = e.input(&f.from_u64(456));
        b.iter(|| cmp_lt(&mut e, &x, &y, 16));
    });
    g.bench_function("open_and_compare_insecure", |b| {
        let mut e = SsEngine::new(5, 2, 6).unwrap();
        let f = e.field().clone();
        let x = e.input(&f.from_u64(123));
        let y = e.input(&f.from_u64(456));
        b.iter(|| {
            let xv = e.open(&x);
            let yv = e.open(&y);
            xv.value() < yv.value()
        });
    });
    g.finish();
}

fn bench_fixed_base(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_fixed_base");
    g.sample_size(20);
    for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
        let group = kind.group();
        let mut rng = StdRng::seed_from_u64(10);
        let s = group.random_scalar(&mut rng);
        // Warm the comb table outside the measurement.
        let _ = group.exp_gen(&s);
        g.bench_function(format!("{kind}/comb_exp_gen"), |b| {
            b.iter(|| group.exp_gen(&s));
        });
        g.bench_function(format!("{kind}/generic_exp"), |b| {
            b.iter(|| group.exp(group.generator(), &s));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_chain_mechanisms,
    bench_circuit_suffix_sums,
    bench_oblivious_vs_open_compare,
    bench_fixed_base
);
criterion_main!(benches);
