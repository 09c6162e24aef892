//! Substrate microbenchmarks: GEMM, direct vs column-free convolution, and
//! pooling — validating the performance assumptions the training and
//! kernel code rely on (e.g. the rayon fork crossover in `linalg`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mlcnn_tensor::conv::{
    conv2d_direct, conv2d_im2col, conv2d_into, conv_scratch_len, conv_tap_offsets,
};
use mlcnn_tensor::linalg::{matmul, matmul_into, matmul_serial_into};
use mlcnn_tensor::pool::{avg_pool2d, max_pool2d};
use mlcnn_tensor::{init, ConvGeometry, Shape4};
use std::hint::black_box;

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for &n in &[32usize, 64, 128, 256] {
        let mut rng = init::rng(1);
        let a = init::uniform(Shape4::new(1, 1, n, n), -1.0, 1.0, &mut rng);
        let b = init::uniform(Shape4::new(1, 1, n, n), -1.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("matmul", n), &n, |bench, &n| {
            bench.iter(|| black_box(matmul(a.as_slice(), b.as_slice(), n, n, n)))
        });
    }
    group.finish();
}

/// `matmul_into` (forks above `PAR_MIN_MACS`) against the serial driver on
/// cubes either side of the threshold: the pair that sets the constant.
fn bench_gemm_fork_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_fork_crossover");
    group.sample_size(20);
    for &n in &[128usize, 160, 192, 256] {
        let mut rng = init::rng(4);
        let a = init::uniform(Shape4::new(1, 1, n, n), -1.0, 1.0, &mut rng);
        let b = init::uniform(Shape4::new(1, 1, n, n), -1.0, 1.0, &mut rng);
        let mut out = vec![0.0_f32; n * n];
        group.bench_with_input(BenchmarkId::new("matmul_into", n), &n, |bench, &n| {
            bench.iter(|| matmul_into(a.as_slice(), b.as_slice(), black_box(&mut out), n, n, n))
        });
        group.bench_with_input(BenchmarkId::new("serial", n), &n, |bench, &n| {
            bench.iter(|| {
                matmul_serial_into(a.as_slice(), b.as_slice(), black_box(&mut out), n, n, n)
            })
        });
    }
    group.finish();
}

fn bench_conv_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv_direct_vs_im2col");
    group.sample_size(15);
    let mut rng = init::rng(2);
    let input = init::uniform(Shape4::new(4, 16, 32, 32), -1.0, 1.0, &mut rng);
    let weight = init::uniform(Shape4::new(32, 16, 3, 3), -0.5, 0.5, &mut rng);
    group.bench_function("direct", |b| {
        b.iter(|| black_box(conv2d_direct(&input, &weight, None, 1, 1).unwrap()))
    });
    group.bench_function("im2col_gemm", |b| {
        b.iter(|| black_box(conv2d_im2col(&input, &weight, None, 1, 1).unwrap()))
    });
    // the kernel under conv2d_im2col as the execution plan drives it:
    // tap table and scratch built once, output written in place
    let geom = ConvGeometry::new(32, 32, 3, 3, 1, 1).unwrap();
    let taps = conv_tap_offsets(16, &geom);
    let mut scratch = vec![0.0_f32; conv_scratch_len(16, &geom).unwrap()];
    let mut out = vec![0.0_f32; 4 * 32 * geom.out_len()];
    group.bench_function("column_free_into", |b| {
        b.iter(|| {
            conv2d_into(
                input.as_slice(),
                16,
                &geom,
                weight.as_slice(),
                None,
                &taps,
                &mut scratch,
                black_box(&mut out),
            )
        })
    });
    group.finish();
}

fn bench_pooling(c: &mut Criterion) {
    let mut group = c.benchmark_group("pooling");
    group.sample_size(30);
    let mut rng = init::rng(3);
    let input = init::uniform(Shape4::new(4, 32, 32, 32), -1.0, 1.0, &mut rng);
    group.bench_function("avg_2x2", |b| {
        b.iter(|| black_box(avg_pool2d(&input, 2, 2).unwrap()))
    });
    group.bench_function("max_2x2", |b| {
        b.iter(|| black_box(max_pool2d(&input, 2, 2).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_fork_crossover,
    bench_conv_paths,
    bench_pooling
);
criterion_main!(benches);
