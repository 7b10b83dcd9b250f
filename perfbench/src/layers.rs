//! Per-layer microbenchmarks, timed from outside each crate through its
//! public API: field arithmetic, group exponentiation, the ElGamal hop and
//! bit encryption, Schnorr batch verification, wire framing and the mesh.

use bytes::Bytes;
use ppgr_bigint::{BigUint, MontElem4, Montgomery, Montgomery4};
use ppgr_core::wire::{Reader, Writer};
use ppgr_elgamal::{encrypt_bits_with_precomputed, Ciphertext, ExpElGamal, MaskPair};
use ppgr_group::{CurveParams, DlGroup, DlParams, Group, GroupKind};
use ppgr_net::LocalMesh;
use ppgr_zkp::{verify_multi_batch, verify_sessions_multi_batch, MultiVerifierProof};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Each sample times a batch of calls lasting about this long.
const BATCH: Duration = Duration::from_millis(15);
/// Samples per measurement; the median is reported.
const SAMPLES: usize = 5;

/// Median time per call of `op`, in nanoseconds.
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let t = Instant::now();
    op();
    let once = t.elapsed().as_nanos().max(1);
    let calls = (BATCH.as_nanos() / once).clamp(1, 1 << 20) as u32;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                op();
            }
            t.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    median(&samples)
}

fn group_name(kind: GroupKind) -> &'static str {
    match kind {
        GroupKind::Dl1024 => "dl1024",
        _ => "ecc160",
    }
}

/// A set of `len` encryptions of 0 and 1 under a random key.
fn ciphertext_set(group: &Group, len: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
    let scheme = ExpElGamal::new(group.clone());
    let y = group.exp_gen(&group.random_nonzero_scalar(rng));
    (0..len)
        .map(|i| scheme.encrypt(&y, &group.scalar_from_u64(i as u64 % 2), rng))
        .collect()
}

/// One secp160r1 field multiplication, single-threaded, in nanoseconds.
/// Read before and after a window, it tells a slow host from a slow
/// program: the hypervisor does not always report the time it takes.
pub fn p160_mul_ns() -> f64 {
    let (p160, a, b) = p160_operands();
    ns_per_call(|| {
        black_box(p160.mmul(black_box(&a), black_box(&b)));
    })
}

fn p160_operands() -> (Montgomery4, MontElem4, MontElem4) {
    let mut rng = StdRng::seed_from_u64(0x160);
    let p160 = Montgomery4::new(CurveParams::secp160r1().p);
    let a = p160.enter(&ppgr_bigint::random_below(&mut rng, p160.modulus()));
    let b = p160.enter(&ppgr_bigint::random_below(&mut rng, p160.modulus()));
    (p160, a, b)
}

/// Field multiplication and inversion on the secp160r1 prime, and a
/// multi-limb Montgomery multiplication on the DL-1024 prime.
pub fn bigint(out: &mut Vec<(String, f64, &'static str)>) {
    out.push(("bigint.p160_mul_ns".into(), p160_mul_ns(), "ns"));
    let (p160, a, _) = p160_operands();
    out.push((
        "bigint.p160_inv_ns".into(),
        ns_per_call(|| {
            black_box(p160.minv(black_box(&a)));
        }),
        "ns",
    ));
    let mut rng = StdRng::seed_from_u64(0x1024);
    let p1024: BigUint = DlGroup::new(DlParams::Modp1024).modulus().clone();
    let dl = Montgomery::new(p1024);
    let c = dl.enter(&ppgr_bigint::random_below(&mut rng, dl.modulus()));
    let d = dl.enter(&ppgr_bigint::random_below(&mut rng, dl.modulus()));
    out.push((
        "bigint.dl1024_mont_mul_ns".into(),
        ns_per_call(|| {
            black_box(dl.mmul(black_box(&c), black_box(&d)));
        }),
        "ns",
    ));
}

/// Variable-base, fixed-base (generator and prepared table) and
/// multi-exponentiation for one group.
pub fn group(kind: GroupKind, out: &mut Vec<(String, f64, &'static str)>) {
    let g = kind.group();
    let name = group_name(kind);
    let mut rng = StdRng::seed_from_u64(0x9e);
    let base = g.exp_gen(&g.random_nonzero_scalar(&mut rng));
    let s = g.random_scalar(&mut rng);
    let us = |ns: f64| ns / 1e3;
    out.push((
        format!("group.exp_us.{name}"),
        us(ns_per_call(|| {
            black_box(g.exp(black_box(&base), black_box(&s)));
        })),
        "us",
    ));
    out.push((
        format!("group.exp_gen_us.{name}"),
        us(ns_per_call(|| {
            black_box(g.exp_gen(black_box(&s)));
        })),
        "us",
    ));
    let table = g.prepare_base(&base);
    out.push((
        format!("group.exp_prepared_us.{name}"),
        us(ns_per_call(|| {
            black_box(g.exp_prepared(black_box(&table), black_box(&s)));
        })),
        "us",
    ));
    for terms in [8, 32, 128] {
        let owned: Vec<_> = (0..terms)
            .map(|_| {
                (
                    g.exp_gen(&g.random_nonzero_scalar(&mut rng)),
                    g.random_scalar(&mut rng),
                )
            })
            .collect();
        let pairs: Vec<_> = owned.iter().map(|(e, s)| (e, s)).collect();
        out.push((
            format!("group.msm{terms}_us.{name}"),
            us(ns_per_call(|| {
                black_box(g.multi_exp(black_box(&pairs)));
            })),
            "us",
        ));
    }
}

/// The fused partial-decrypt-randomize hop on one `(n−1)·l` set with
/// prepared hop scalars (as a keygen-tier stock supplies them), per
/// ciphertext; and bit encryption from precomputed mask pairs, per bit.
pub fn elgamal(kind: GroupKind, n: usize, l: usize, out: &mut Vec<(String, f64, &'static str)>) {
    let g = kind.group();
    let name = group_name(kind);
    let scheme = ExpElGamal::new(g.clone());
    let mut rng = StdRng::seed_from_u64(0xe1);
    let set = ciphertext_set(&g, (n - 1) * l, &mut rng);
    let secret = g.random_nonzero_scalar(&mut rng);
    let rs: Vec<_> = set
        .iter()
        .map(|_| g.random_nonzero_scalar(&mut rng))
        .collect();
    let prep = g.prepare_hop_scalars(&secret, &rs);
    let mut hopped = Vec::with_capacity(set.len());
    let per_set = ns_per_call(|| {
        scheme.partial_decrypt_randomize_prepared_gather_into(
            black_box(&set),
            black_box(&prep),
            None,
            &mut hopped,
        );
        black_box(&hopped);
    });
    out.push((
        format!("elgamal.hop_ct_us.{name}"),
        per_set / 1e3 / set.len() as f64,
        "us",
    ));

    // Mask pairs are single-use, so each sample consumes freshly drawn
    // rows; the draw and the key halves are offline work, off the clock.
    let key_table = scheme.prepare_key(&g.exp_gen(&g.random_nonzero_scalar(&mut rng)));
    let value = BigUint::from((1u64 << l.min(63)) - 1);
    let rows_per_sample = 8;
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let rows: Vec<Vec<MaskPair>> = (0..rows_per_sample)
                .map(|_| {
                    let mut row: Vec<MaskPair> =
                        (0..l).map(|_| MaskPair::draw(&g, &mut rng)).collect();
                    MaskPair::fill_key_halves(&g, &key_table, &mut row);
                    row
                })
                .collect();
            let t = Instant::now();
            for row in rows {
                black_box(encrypt_bits_with_precomputed(
                    &scheme,
                    &key_table,
                    black_box(&value),
                    l,
                    row,
                ));
            }
            t.elapsed().as_nanos() as f64 / (rows_per_sample * l) as f64
        })
        .collect();
    out.push((
        format!("elgamal.encrypt_bit_us.{name}"),
        median(&samples) / 1e3,
        "us",
    ));
}

/// Keygen proof verification on ECC-160 with `n` provers: one session's
/// aggregate batch, and four sessions in one cross-session batch (per
/// session).
pub fn zkp(n: usize, out: &mut Vec<(String, f64, &'static str)>) {
    let g = GroupKind::Ecc160.group();
    let mut rng = StdRng::seed_from_u64(0x2c);
    let sessions: Vec<Vec<_>> = (0..4)
        .map(|_| {
            (0..n)
                .map(|_| {
                    let witness = g.random_scalar(&mut rng);
                    let statement = g.exp_gen(&witness);
                    (
                        statement,
                        MultiVerifierProof::run(&g, &witness, n - 1, &mut rng),
                    )
                })
                .collect()
        })
        .collect();
    let borrowed: Vec<Vec<_>> = sessions
        .iter()
        .map(|s| s.iter().map(|(y, t)| (y, t)).collect())
        .collect();
    let slices: Vec<&[_]> = borrowed.iter().map(Vec::as_slice).collect();
    out.push((
        "zkp.verify_session_ms".into(),
        ns_per_call(|| {
            verify_multi_batch(&g, black_box(&borrowed[0])).expect("honest proofs verify");
        }) / 1e6,
        "ms",
    ));
    out.push((
        "zkp.verify_cross_ms".into(),
        ns_per_call(|| {
            verify_sessions_multi_batch(&g, black_box(&slices)).expect("honest proofs verify");
        }) / 1e6
            / slices.len() as f64,
        "ms",
    ));
}

/// Encoding and parsing one `(n−1)·l` ECC-160 ciphertext set, and one
/// round trip of that frame between two threads over the channel mesh.
pub fn wire(n: usize, l: usize, out: &mut Vec<(String, f64, &'static str)>) {
    let g = GroupKind::Ecc160.group();
    let mut rng = StdRng::seed_from_u64(0x3e);
    let set = ciphertext_set(&g, (n - 1) * l, &mut rng);
    let encode = || {
        let mut w = Writer::new();
        w.put_ciphertexts(&g, &set).expect("set fits a frame");
        w.finish()
    };
    let frame: Bytes = encode();
    let parsed = Reader::new(frame.clone())
        .ciphertexts(&g)
        .expect("frame parses");
    assert!(parsed == set, "wire round trip changed the set");
    out.push((
        "wire.encode_set_us".into(),
        ns_per_call(|| {
            black_box(encode());
        }) / 1e3,
        "us",
    ));
    out.push((
        "wire.parse_set_us".into(),
        ns_per_call(|| {
            black_box(
                Reader::new(black_box(frame.clone()))
                    .ciphertexts(&g)
                    .expect("frame parses"),
            );
        }) / 1e3,
        "us",
    ));

    let mut ends = LocalMesh::new::<Bytes>(2).into_iter();
    let (a, b) = (ends.next().expect("party 0"), ends.next().expect("party 1"));
    let trips = 2000;
    let samples: Vec<f64> = std::thread::scope(|s| {
        s.spawn(move || {
            for _ in 0..trips * SAMPLES {
                let m = b.recv_from(0).expect("echo receive");
                b.send(0, m).expect("echo send");
            }
        });
        (0..SAMPLES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..trips {
                    a.send(1, frame.clone()).expect("send");
                    black_box(a.recv_from(1).expect("receive"));
                }
                t.elapsed().as_nanos() as f64 / f64::from(trips as u32)
            })
            .collect()
    });
    out.push(("net.mesh_send_recv_us".into(), median(&samples) / 1e3, "us"));
}
